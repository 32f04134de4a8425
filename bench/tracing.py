"""Spans and counters around the program's public functions.

``Tracer.install`` replaces each target function at every name an
``osinv`` module binds it to (so ``cli.sweep`` and
``invariants.sweep`` are both wrapped, and so is a module's call to its
own function), and ``Tracer.uninstall`` puts every original back.  The
wrappers record only inside ``Tracer.request``; elsewhere they call
straight through, so the harness's own calls (input generation,
reference values for the checks) leave no trace.

A span is ``[name, start, end, parent, request]`` with ``parent`` the
index of the enclosing span (-1 at the top).  Hot leaves are counted,
not spanned.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: (module, attribute, span name) of every spanned function.
SPANNED = (
    ("osinv.cli", "main", "cli.main"),
    ("osinv.cli", "parse_space_descriptor", "cli.parse"),
    ("osinv.cli", "parse_n_grid", "cli.parse"),
    ("osinv.spaces", "descriptor_from_json", "spaces.descriptor_from_json"),
    ("osinv.spaces", "dual", "spaces.dual"),
    ("osinv.spaces", "canonical_weights", "spaces.canonical_weights"),
    ("osinv.invariants", "sweep", "invariants.sweep"),
    ("osinv.invariants", "pi1_fundamental", "invariants.pi1_fundamental"),
    ("osinv.invariants", "exactness", "invariants.exactness"),
    ("osinv.monotone_fn", "compose", "monotone_fn.compose"),
    ("osinv.monotone_fn", "inverse_fn", "monotone_fn.inverse_fn"),
    ("osinv.monotone_fn", "fit_loglog_slope", "monotone_fn.fit_loglog_slope"),
    ("osinv.growth", "growth_fn", "growth.growth_fn"),
    ("osinv.orlicz", "sequence_norm", "orlicz.sequence_norm"),
    ("osinv.orlicz", "from_fundamental_sequence",
     "orlicz.from_fundamental_sequence"),
    ("osinv.orlicz", "from_weight", "orlicz.from_weight"),
    ("osinv.orlicz", "psi", "orlicz.psi"),
    ("osinv.schatten", "pi1_of_map", "schatten.pi1_of_map"),
    ("osinv.schatten", "singular_values", "schatten.singular_values"),
    ("osinv.oracle", "orlicz_norm_scan", "oracle.orlicz_norm_scan"),
    ("osinv.oracle", "indicator_search", "oracle.indicator_search"),
    ("osinv.oracle", "aux_diag_norm", "oracle.aux_diag_norm"),
    ("osinv.oracle", "riemann_integral", "oracle.riemann_integral"),
)

#: (module, class, method, span name) of every spanned method.
SPANNED_METHODS = (
    ("osinv.growth", "TailIntegral", "from_density",
     "growth.TailIntegral.from_density"),
    ("osinv.growth", "TailIntegral", "integral_of_composed",
     "growth.TailIntegral.integral_of_composed"),
)

#: (module, attribute, counter name) of every counted hot leaf.
COUNTED = (
    ("osinv.monotone_fn", "generalized_inverse",
     "monotone_fn.generalized_inverse"),
)

#: Structural counters read off a spanned function's result.
PROBES: dict[str, Callable[[Any], float]] = {
    "spaces.descriptor_from_json":
        lambda d: len(d.phi_c.knots) + len(d.phi_r.knots),
    "monotone_fn.compose": lambda f: len(f.knots),
    "invariants.sweep": lambda r: len(r.reports),
}


def _bindings(obj: Any) -> list[tuple[Any, str]]:
    """Every (module, name) in the loaded ``osinv`` modules bound to `obj`."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "osinv" or modname.startswith("osinv.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is obj:
                found.append((mod, attr))
    return found


class Tracer:
    """In-memory spans, counters and probes for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.probes: dict[str, list[float]] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    @property
    def active(self) -> bool:
        return self._request is not None

    @contextmanager
    def request(self, rid: int) -> Iterator[None]:
        """Record what the program does for request `rid`."""
        self._request = rid
        try:
            yield
        finally:
            self._request = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record `name` around the block (inside a request only)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self._request]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if probe is not None:
                self.probes[name].append(probe(result))
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._request is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _split_suites(self, run_suite: Callable, names: tuple[str, ...]) -> Callable:
        """``run_suite("all")`` as one call per suite, each spanned as
        ``verify.<suite>``; the results are the same checks in the same
        order, which the output digest confirms."""

        @functools.wraps(run_suite)
        def wrapper(suite: str = "all") -> Any:
            if not self.active:
                return run_suite(suite)
            results = []
            for name in names if suite == "all" else (suite,):
                with self.span(f"verify.{name}"):
                    results.extend(run_suite(name))
            return results

        return wrapper

    def _patch_everywhere(self, orig: Any, new: Any) -> None:
        for mod, attr in _bindings(orig):
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, new)

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is
        listed in ``missing`` and its metrics read 0."""
        import importlib

        def lookup(modname: str, attr: str) -> Any:
            return getattr(importlib.import_module(modname), attr, None)

        for modname, attr, name in SPANNED:
            fn = lookup(modname, attr)
            if fn is None:
                self.missing.append(name)
                continue
            self._patch_everywhere(fn, self._spanned(name, fn))
        for modname, attr, name in COUNTED:
            fn = lookup(modname, attr)
            if fn is None:
                self.missing.append(name)
                continue
            self._patch_everywhere(fn, self._counted(name, fn))
        for modname, clsname, attr, name in SPANNED_METHODS:
            cls = lookup(modname, clsname)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                new: Any = classmethod(self._spanned(name, raw.__func__))
            else:
                new = self._spanned(name, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)
        run_suite = lookup("osinv.verify", "run_suite")
        names = lookup("osinv.verify", "SUITE_NAMES")
        if run_suite is None or names is None:
            self.missing.append("verify.run_suite")
        else:
            self._patch_everywhere(run_suite, self._split_suites(run_suite, names))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class Profile:
    """Per-name totals over a tracer's spans.

    ``incl`` sums the durations of the outermost span of each name (a
    span nested in one of the same name is already inside it); ``self``
    sums each span's duration minus the time its children cover.
    """

    def __init__(self, tracer: Tracer, requests: int) -> None:
        spans = tracer.spans
        self.requests = max(requests, 1)
        self.counts = tracer.counts
        self.probes = tracer.probes
        self.spans = spans
        #: (hits, misses) of the summing-function cache, when known.
        self.cache: tuple[int, int] | None = None
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: Counter[str] = Counter()
        self.incl: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            self.calls[name] += 1
            self.self_time[name] += end - start - child[i]
            if not self._has_ancestor(parent, name):
                self.incl[name] += end - start

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def marked(self, name: str, child_name: str) -> set[int]:
        """Indices of `name` spans with a `child_name` span below them."""
        out = set()
        for rec in self.spans:
            if rec[0] != child_name:
                continue
            idx = rec[3]
            while idx >= 0 and self.spans[idx][0] != name:
                idx = self.spans[idx][3]
            if idx >= 0:
                out.add(idx)
        return out

    def ms_per_request(self, name: str) -> float:
        return 1e3 * self.incl[name] / self.requests

    def calls_per_request(self, name: str) -> float:
        return (self.calls[name] + self.counts[name]) / self.requests

    def mean_probe(self, name: str) -> float:
        vals = self.probes.get(name) or [0.0]
        return sum(vals) / len(vals)
