"""Command-line front end.

Four subcommands drive the library end to end:

``table``
    Sweep one structure over an n-grid and tabulate its fundamental
    functions, exactness and projection constants, and the diagonal
    summing norm, with fitted exponents in a footer row.
``pi1``
    Sweep a domain/codomain pair and tabulate the summing norm with its
    per-quadrant breakdown and breaking points.
``fit``
    Report only the fitted exponents of a self-sweep.
``verify``
    Run the named self-check suites and report pass/fail per check.

Space descriptors are given as inline JSON or as a path to a JSON
file; n-grids as ``"16,64,256"`` or ``"geometric:a:b:count"``.  Tables
are written as CSV (default) or JSON, both carrying a metadata record
of the descriptor, the grid, and the tool version; identical
invocations produce byte-identical output.  Exit codes: 0 success,
1 failed verification, 2 non-regular space, 3 parse/config errors.
The environment variable ``OSINV_GRID_DENSITY`` overrides the default
quadrature density (integer points per decade).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .errors import NotRegular, OsinvError, ParseError
from .invariants import SweepResult, sweep
from .monotone_fn import evaluate, fit_loglog_slope
from .spaces import SpaceDescriptor, descriptor_from_json, descriptor_to_json
from .verify import SUITE_NAMES, run_suite

__all__ = [
    "MAX_GRID_COUNT",
    "MAX_N",
    "RunConfig",
    "cmd_fit",
    "cmd_pi1",
    "cmd_table",
    "cmd_verify",
    "main",
    "parse_n_grid",
    "parse_space_descriptor",
]

_TABLE_HEADER = "n,phi_c,phi_r,ex,proj,pi1"
_PI1_HEADER = (
    "n,pi1,lambda1_mp,lambda1_pm,lambda2_mp,lambda2_pm,"
    "lambda3_mp,lambda3_pm,s_break,t_break"
)
_FIT_HEADER = "quantity,slope,r_squared"

#: Largest dimension an n-grid may hold: the top of the range over which
#: the invariants are checked exact (OH ``pi1`` against its closed form).
MAX_N = 2**60

#: Most points a ``geometric:a:b:count`` grid may ask for; every point is
#: built before duplicates collapse, so the count bounds the work.
MAX_GRID_COUNT = 10_000

#: Most characters of an offending input that an error message quotes.
_QUOTE_LIMIT = 40


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation: the command plus its inputs and sinks."""

    command: str
    space: str | None = None
    domain: str | None = None
    codomain: str | None = None
    n_grid: str | None = None
    out_format: str = "csv"
    out_path: str = "-"
    suite: str = "all"
    timings: bool = False


def parse_space_descriptor(text: str) -> SpaceDescriptor:
    """Descriptor from inline JSON (leading ``{``) or a JSON file path.

    Raises
    ------
    ParseError
        Unreadable or non-UTF-8 file, malformed JSON (with line/column),
        JSON nested too deeply to decode, or a structurally invalid
        descriptor.
    NotRegular
        Explicit fundamental tables that fail the regularity gate.
    """
    raw = text.strip()
    if not raw.startswith("{"):
        try:
            raw = Path(text).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"descriptor file {text!r} is not UTF-8 text: {exc}"
            ) from exc
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ParseError(
                f"cannot read descriptor file {text!r}: {exc}"
            ) from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"descriptor is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(
            "descriptor JSON is nested too deeply to decode"
        ) from exc
    return descriptor_from_json(obj)


def parse_n_grid(text: str) -> tuple[int, ...]:
    """Grid from ``"16,64,256"`` or ``"geometric:a:b:count"``.

    Geometric grids are rounded to integers; duplicates collapse and
    the result is sorted.  Points may not exceed :data:`MAX_N`, nor a
    geometric count :data:`MAX_GRID_COUNT`.

    Raises
    ------
    ParseError
        Malformed syntax, non-finite geometric bounds, a geometric count
        above :data:`MAX_GRID_COUNT`, an empty grid, or a point below 1
        or above :data:`MAX_N`.  The message quotes at most
        :data:`_QUOTE_LIMIT` characters of the offending text.
    """
    s = text.strip()
    ns: list[int]
    if s.startswith("geometric:"):
        parts = s.split(":")
        if len(parts) != 4:
            raise ParseError(
                "geometric grid must be geometric:a:b:count, "
                f"got {_clip(text)!r}"
            )
        try:
            a, b, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ParseError(
                f"bad geometric grid {_clip(text)!r}: a and b must be "
                f"numbers and count an integer from 1 to {MAX_GRID_COUNT}"
            ) from exc
        if not (math.isfinite(a) and math.isfinite(b)) or b > MAX_N:
            raise ParseError(
                f"geometric grid bounds must be finite and at most "
                f"2**60 = {MAX_N}, got {_clip(text)!r}"
            )
        if not (0.0 < a <= b) or count < 1:
            raise ParseError(
                f"need 0 < a <= b and count >= 1, got {_clip(text)!r}"
            )
        if count > MAX_GRID_COUNT:
            raise ParseError(
                f"geometric grid count must be at most {MAX_GRID_COUNT}, "
                f"got {_clip(str(count))}"
            )
        if count == 1:
            ns = [round(a)]
        else:
            ratio = b / a
            ns = [
                round(a * ratio ** (k / (count - 1))) for k in range(count)
            ]
    else:
        ns = []
        for tok in s.split(","):
            if not tok.strip():
                continue
            try:
                ns.append(int(tok))
            except ValueError as exc:
                raise ParseError(
                    f"bad n-grid point {_clip(tok.strip())!r}: grid points "
                    f"must be integers from 1 to 2**60 = {MAX_N}"
                ) from exc
    ns = sorted(set(ns))
    if not ns:
        raise ParseError(f"empty n-grid {_clip(text)!r}")
    if ns[0] < 1:
        raise ParseError(f"grid points must be >= 1, got {_clip(str(ns[0]))}")
    if ns[-1] > MAX_N:
        raise ParseError(
            f"grid points must be at most 2**60 = {MAX_N}, "
            f"got {_clip(str(ns[-1]))}"
        )
    return tuple(ns)


def _clip(text: str) -> str:
    """`text` cut to :data:`_QUOTE_LIMIT` characters for an error message."""
    if len(text) <= _QUOTE_LIMIT:
        return text
    return text[:_QUOTE_LIMIT] + "..."


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _descriptor_json(desc: SpaceDescriptor) -> str:
    return json.dumps(
        descriptor_to_json(desc), sort_keys=True, separators=(",", ":")
    )


def _csv_comment(
    command: str, ns: Sequence[int], **descs: SpaceDescriptor
) -> str:
    parts = [f"# osinv {__version__} {command}"]
    parts += [f"{key}={_descriptor_json(d)}" for key, d in descs.items()]
    parts.append(f"n_grid={','.join(str(n) for n in ns)}")
    return " ".join(parts)


def _json_meta(
    command: str, ns: Sequence[int], **descs: SpaceDescriptor
) -> dict[str, Any]:
    meta: dict[str, Any] = {
        "tool": "osinv",
        "version": __version__,
        "command": command,
        "n_grid": list(ns),
    }
    for key, d in descs.items():
        meta[key] = descriptor_to_json(d)
    return meta


def _emit(text: str, out_path: str) -> None:
    if out_path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ParseError(
            f"cannot write output file {out_path!r}: {exc}"
        ) from exc


def _render(
    cfg: RunConfig,
    comment: str,
    meta: dict[str, Any],
    header: str,
    csv_rows: list[str],
    json_body: dict[str, Any],
) -> str:
    if cfg.out_format == "json":
        return (
            json.dumps(
                {"meta": meta, **json_body}, indent=2, sort_keys=True
            )
            + "\n"
        )
    return "\n".join([comment, header, *csv_rows]) + "\n"


def cmd_table(cfg: RunConfig) -> int:
    """Self-sweep table: fundamental functions and invariants per n."""
    desc = parse_space_descriptor(cfg.space or "")
    ns = parse_n_grid(cfg.n_grid or "")
    result = sweep(desc, n_grid=ns)
    rows = [
        (
            rep.n,
            evaluate(desc.phi_c, float(rep.n)),
            evaluate(desc.phi_r, float(rep.n)),
            float(rep.ex or 0.0),
            float(rep.proj or 0.0),
            rep.pi1,
        )
        for rep in result.reports
    ]
    upper = rows[-result.window:]
    slopes = {
        "phi_c": fit_loglog_slope([(r[0], r[1]) for r in upper]),
        "phi_r": fit_loglog_slope([(r[0], r[2]) for r in upper]),
        "ex": result.slopes["ex"],
        "proj": result.slopes["proj"],
        "pi1": result.slopes["pi1"],
    }
    csv_rows = [
        ",".join([str(r[0])] + [_fmt(v) for v in r[1:]]) for r in rows
    ]
    csv_rows.append(
        "slope,"
        + ",".join(
            _fmt(slopes[key][0])
            for key in ("phi_c", "phi_r", "ex", "proj", "pi1")
        )
    )
    json_body = {
        "rows": [
            dict(zip(("n", "phi_c", "phi_r", "ex", "proj", "pi1"), r))
            for r in rows
        ],
        "slopes": {k: list(v) for k, v in slopes.items()},
    }
    _emit(
        _render(
            cfg,
            _csv_comment("table", ns, space=desc),
            _json_meta("table", ns, space=desc),
            _TABLE_HEADER,
            csv_rows,
            json_body,
        ),
        cfg.out_path,
    )
    return 0


def cmd_pi1(cfg: RunConfig) -> int:
    """Pair sweep: summing norm with per-quadrant breakdown per n."""
    domain = parse_space_descriptor(cfg.domain or "")
    codomain = parse_space_descriptor(cfg.codomain or "")
    ns = parse_n_grid(cfg.n_grid or "")
    result = sweep(domain, codomain, n_grid=ns)
    fields = (
        "n", "pi1", "lambda1_mp", "lambda1_pm", "lambda2_mp",
        "lambda2_pm", "lambda3_mp", "lambda3_pm", "s_break", "t_break",
    )
    rows = [
        (
            rep.n,
            rep.pi1,
            rep.lambda1[0],
            rep.lambda1[1],
            rep.lambda2[0],
            rep.lambda2[1],
            rep.lambda3[0],
            rep.lambda3[1],
            rep.s_break,
            rep.t_break,
        )
        for rep in result.reports
    ]
    csv_rows = [
        ",".join([str(r[0])] + [_fmt(v) for v in r[1:]]) for r in rows
    ]
    csv_rows.append(
        "slope," + _fmt(result.slopes["pi1"][0]) + "," * (len(fields) - 2)
    )
    json_body = {
        "rows": [dict(zip(fields, r)) for r in rows],
        "slopes": {k: list(v) for k, v in result.slopes.items()},
    }
    _emit(
        _render(
            cfg,
            _csv_comment("pi1", ns, domain=domain, codomain=codomain),
            _json_meta("pi1", ns, domain=domain, codomain=codomain),
            _PI1_HEADER,
            csv_rows,
            json_body,
        ),
        cfg.out_path,
    )
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    """Fitted exponents of a self-sweep, one row per quantity."""
    desc = parse_space_descriptor(cfg.space or "")
    ns = parse_n_grid(cfg.n_grid or "")
    result: SweepResult = sweep(desc, n_grid=ns)
    order = ("ex", "proj", "pi1")
    csv_rows = [
        f"{key},{_fmt(result.slopes[key][0])},{_fmt(result.slopes[key][1])}"
        for key in order
    ]
    json_body = {"slopes": {k: list(result.slopes[k]) for k in order}}
    _emit(
        _render(
            cfg,
            _csv_comment("fit", ns, space=desc),
            _json_meta("fit", ns, space=desc),
            _FIT_HEADER,
            csv_rows,
            json_body,
        ),
        cfg.out_path,
    )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    """Run the self-check suites; exit 0 only if every check passes.

    With ``timings`` set, each check's wall time also goes to standard
    error, one ``suite.check elapsed_ms`` line per check.
    """
    results = run_suite(cfg.suite)
    if cfg.timings:
        for r in results:
            print(f"{r.suite + '.' + r.name:<30} {r.elapsed_ms:.1f}",
                  file=sys.stderr)
    lines = [
        f"{'pass' if r.passed else 'fail'}  "
        f"{r.suite + '.' + r.name:<30} {r.detail}"
        for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if failed == 0 else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``osinv`` argument parser, built on first use and then reused.

    Parsing leaves the parser unchanged, and help text is laid out
    afresh on each request, so it still follows ``COLUMNS``.
    """
    parser = argparse.ArgumentParser(
        prog="osinv",
        description=(
            "Tables, exponent fits, and self-checks for homogeneous "
            "Hilbertian structures given by weight pairs."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"osinv {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser(
        "table", help="sweep one structure and tabulate its invariants"
    )
    table.add_argument(
        "--space", required=True, help="inline JSON descriptor or a path"
    )
    pi1 = sub.add_parser(
        "pi1", help="sweep a pair and tabulate the summing-norm breakdown"
    )
    pi1.add_argument("--domain", required=True, help="domain descriptor")
    pi1.add_argument("--codomain", required=True, help="codomain descriptor")
    fit = sub.add_parser("fit", help="report only the fitted exponents")
    fit.add_argument(
        "--space", required=True, help="inline JSON descriptor or a path"
    )
    for cmd in (table, pi1, fit):
        cmd.add_argument(
            "--n",
            dest="n_grid",
            required=True,
            help='n-grid: "16,64,256" or "geometric:a:b:count"',
        )
        cmd.add_argument(
            "--out",
            dest="out_format",
            choices=("csv", "json"),
            default="csv",
            help="output format (default csv)",
        )
        cmd.add_argument(
            "--out-path",
            default="-",
            help="output file, or - for standard output (default)",
        )

    verify = sub.add_parser("verify", help="run the self-check suites")
    verify.add_argument(
        "--suite",
        choices=(*SUITE_NAMES, "all"),
        default="all",
        help="which suite to run (default all)",
    )
    verify.add_argument(
        "--timings",
        action="store_true",
        help="print each check's elapsed milliseconds to standard error",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        space=getattr(args, "space", None),
        domain=getattr(args, "domain", None),
        codomain=getattr(args, "codomain", None),
        n_grid=getattr(args, "n_grid", None),
        out_format=getattr(args, "out_format", "csv"),
        out_path=getattr(args, "out_path", "-"),
        suite=getattr(args, "suite", "all"),
        timings=getattr(args, "timings", False),
    )
    handlers = {
        "table": cmd_table,
        "pi1": cmd_pi1,
        "fit": cmd_fit,
        "verify": cmd_verify,
    }
    try:
        return handlers[cfg.command](cfg)
    except NotRegular as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OsinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
