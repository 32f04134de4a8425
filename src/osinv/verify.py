"""Named runtime self-checks behind the command line's verify command.

Each check recomputes a cross-module identity or an oracle comparison
on a fixed, seeded workload and reports a pass/fail verdict with the
measured margin.  Checks are grouped into suites:

``growth``
    Closed-form growth functions for power-law weights, the
    tail/growth inverse identity, and the weight-recovery roundtrip.
``orlicz``
    The Euclidean special case, the bisection solver against the
    scanning oracle, the fundamental sequence of the standard
    square-log function, and the smoothing sandwich.
``oracle``
    The quadrature oracle against closed-form integrals, the diagonal
    decomposition bound against the row Orlicz norm, the indicator
    search against the analytic quadrant breakdown, and grid-refinement
    monotonicity of both searches.

Workloads are deterministic (fixed seeds, fixed grids), so repeated
runs produce byte-identical reports.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BadParameter
from .growth import growth_fn, growth_profile, recover_weight
from .invariants import pi1_fundamental
from .monotone_fn import evaluate, evaluate_many, integral, make_piecewise
from .oracle import (
    aux_diag_norm,
    indicator_search,
    orlicz_norm_scan,
    riemann_integral,
)
from .orlicz import (
    from_weight,
    fundamental_sequence,
    make_orlicz,
    power_orlicz,
    psi,
    sequence_norm,
    smooth_from_raw,
)
from .spaces import canonical_weights, catalog

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("growth", "orlicz", "oracle")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: verdict plus the measured margin, and
    the wall time the check took (not part of equality)."""

    suite: str
    name: str
    passed: bool
    detail: str
    elapsed_ms: float = field(default=0.0, compare=False)


def _power_weight(a: float):
    """Density that is 1 up to 1 and decays like ``t**-a`` beyond."""
    return make_piecewise(
        [1.0], [1.0], right_exponent=-a, direction="nonincreasing"
    )


# ---------------------------------------------------------------------------
# growth suite
# ---------------------------------------------------------------------------


def _check_power_law_growth() -> tuple[bool, str]:
    worst = 0.0
    for a in (1.5, 2.0, 3.0):
        g = growth_fn(_power_weight(a))
        ss = np.geomspace(10.0, 1e6, 41)
        expected = (ss / (a - 1.0)) ** (1.0 / a)
        got = evaluate_many(g, ss)
        worst = max(worst, float(np.max(np.abs(got / expected - 1.0))))
    return worst <= 1e-6, f"max rel err {worst:.2e}"


def _check_tail_growth_identity() -> tuple[bool, str]:
    worst = 0.0
    for a in (1.5, 2.0, 3.0):
        profile = growth_profile(
            _power_weight(a), s_grid=np.geomspace(1.0, 1e8, 129)
        )
        for t in profile.g.values[::4]:
            lhs = evaluate(profile.h, t) * evaluate(profile.g_inv, t) / t
            worst = max(worst, abs(lhs - 1.0))
    return worst <= 1e-6, f"max residual {worst:.2e}"


def _check_weight_recovery() -> tuple[bool, str]:
    lo, hi = 1.0, 1.0
    for e in (0.3, 0.5, 0.7):
        g0 = make_piecewise([1.0], [1.0], right_exponent=e)
        g1 = growth_fn(recover_weight(g0), s_grid=np.geomspace(1.0, 1e7, 129))
        for s in np.geomspace(10.0, 1e6, 30):
            ratio = evaluate(g1, float(s)) / evaluate(g0, float(s))
            lo, hi = min(lo, ratio), max(hi, ratio)
    return 0.25 <= lo and hi <= 4.0, f"roundtrip ratio in [{lo:.3f}, {hi:.3f}]"


# ---------------------------------------------------------------------------
# orlicz suite
# ---------------------------------------------------------------------------


def _check_euclidean_norm() -> tuple[bool, str]:
    rng = np.random.default_rng(2)
    phi = power_orlicz(2.0)
    worst = 0.0
    for _ in range(50):
        x = rng.normal(size=int(rng.integers(1, 64)))
        ratio = sequence_norm(phi, x) / float(np.linalg.norm(x))
        worst = max(worst, abs(ratio - 1.0))
    return worst <= 1e-9, f"max rel err {worst:.2e}"


@functools.cache
def _oh_row_orlicz():
    """The row Orlicz function of OH, built once per :func:`run_suite`."""
    return from_weight(canonical_weights(catalog("oh")).ur_fn)


def _check_bisection_vs_scan() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    phis = (power_orlicz(1.5), psi(), _oh_row_orlicz())
    worst = 0.0
    for i in range(100):
        phi = phis[i % len(phis)]
        x = rng.lognormal(0.0, 1.5, size=int(rng.integers(1, 40)))
        scanned = orlicz_norm_scan(phi, x)
        solved = sequence_norm(phi, x)
        worst = max(worst, abs(scanned - solved) / solved)
    return worst <= 1e-3, f"max rel dev {worst:.2e}"


def _check_square_log_fundamental() -> tuple[bool, str]:
    phi = psi()
    lo, hi = math.inf, 0.0
    for k in range(3, 21):
        n = 2**k
        ratio = fundamental_sequence(phi, n) / math.sqrt(
            n * math.log(n + 1.0)
        )
        lo, hi = min(lo, ratio), max(hi, ratio)
    return 0.5 <= lo and hi <= 2.0, f"ratio in [{lo:.3f}, {hi:.3f}]"


def _check_smoothing_sandwich() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    ok = True
    worst = 1.0
    for _ in range(10):
        knots = np.geomspace(1e-3, 10.0, 5) * rng.uniform(0.5, 2.0)
        exps = rng.uniform(1.0, 4.0, size=4)
        values = [rng.uniform(0.5, 2.0)]
        for (t0, t1), e in zip(zip(knots, knots[1:]), exps):
            values.append(values[-1] * (t1 / t0) ** e)
        raw = make_piecewise(
            knots.tolist(), values,
            right_exponent=float(rng.uniform(1.0, 4.0)),
            direction="nondecreasing",
        )
        smooth = smooth_from_raw(raw)
        raw_fn = make_orlicz(raw)
        for t in np.geomspace(1e-6, 100.0, 60):
            lo_v, hi_v = smooth.eval(float(t)), raw_fn.eval(float(t))
            worst = max(worst, hi_v / lo_v)
            if not (
                lo_v <= hi_v * (1.0 + 1e-9)
                and hi_v <= 4.0 * lo_v * (1.0 + 1e-9)
            ):
                ok = False
    return ok, f"max raw/smooth factor {worst:.3f}"


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------


def _check_integral_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 6))
        knots = np.cumsum(rng.uniform(0.3, 2.0, size=k))
        values = 5.0 * np.cumprod(rng.uniform(0.3, 0.95, size=k))
        f = make_piecewise(
            knots, values,
            right_exponent=-float(rng.uniform(1.5, 3.0)),
            direction="nonincreasing",
        )
        exact = integral(f, 0.3, 50.0)
        approx = riemann_integral(f, 0.3, 50.0, points=8192)
        worst = max(worst, abs(approx - exact) / exact)
    return worst <= 1e-4, f"max rel err {worst:.2e}"


def _check_diag_decomposition() -> tuple[bool, str]:
    pair = canonical_weights(catalog("oh"))
    phi_r = _oh_row_orlicz()
    rng = np.random.default_rng(7)
    lo, hi = math.inf, 0.0
    for _ in range(25):
        x = rng.lognormal(0.0, 1.0, size=int(rng.integers(1, 33)))
        ratio = aux_diag_norm(pair, x) / sequence_norm(phi_r, x)
        lo, hi = min(lo, ratio), max(hi, ratio)
    return 0.125 <= lo and hi <= 8.0, f"ratio in [{lo:.3f}, {hi:.3f}]"


def _check_indicator_argmin() -> tuple[bool, str]:
    space = catalog("oh")
    pair = canonical_weights(space)
    worst_factor = 1.0
    worst_cells = 0.0
    for n in (16, 256, 4096):
        report = pi1_fundamental(space, space, n)
        quadrant = (
            report.lambda1[0] + report.lambda2[0] + report.lambda3[0]
        )
        value, (s, t) = indicator_search(pair, pair, n)
        ratio = value / math.sqrt(quadrant)
        worst_factor = max(worst_factor, ratio, 1.0 / ratio)
        pitch = math.log(max(16.0, 4.0 * n) / 0.25) / 63.0
        cells = max(
            abs(math.log(s / report.s_break)),
            abs(math.log(t / report.t_break)),
        ) / pitch
        worst_cells = max(worst_cells, cells)
    ok = worst_factor <= 4.0 and worst_cells <= 1.0
    return ok, (
        f"value factor {worst_factor:.3f}, "
        f"corner offset {worst_cells:.2f} cells"
    )


def _check_refinement_monotone() -> tuple[bool, str]:
    pair = canonical_weights(catalog("oh"))
    rng = np.random.default_rng(5)
    x = rng.lognormal(0.0, 1.0, size=12)
    coarse_d = aux_diag_norm(pair, x, tau_points=96)
    fine_d = aux_diag_norm(pair, x, tau_points=191)
    coarse_i, _ = indicator_search(pair, pair, 256, grid=64)
    fine_i, _ = indicator_search(pair, pair, 256, grid=127)
    ok = fine_d <= coarse_d * (1.0 + 1e-9) and fine_i <= coarse_i * (
        1.0 + 1e-9
    )
    return ok, (
        f"diag {coarse_d:.6g} -> {fine_d:.6g}, "
        f"corner {coarse_i:.6g} -> {fine_i:.6g}"
    )


_CHECKS: tuple[tuple[str, str, Callable[[], tuple[bool, str]]], ...] = (
    ("growth", "power-law-growth", _check_power_law_growth),
    ("growth", "tail-growth-identity", _check_tail_growth_identity),
    ("growth", "weight-recovery", _check_weight_recovery),
    ("orlicz", "euclidean-norm", _check_euclidean_norm),
    ("orlicz", "bisection-vs-scan", _check_bisection_vs_scan),
    ("orlicz", "square-log-fundamental", _check_square_log_fundamental),
    ("orlicz", "smoothing-sandwich", _check_smoothing_sandwich),
    ("oracle", "integral-oracle", _check_integral_oracle),
    ("oracle", "diag-decomposition", _check_diag_decomposition),
    ("oracle", "indicator-argmin", _check_indicator_argmin),
    ("oracle", "refinement-monotone", _check_refinement_monotone),
)


def run_suite(suite: str = "all") -> list[CheckResult]:
    """Run one suite (or ``"all"``) and return per-check results.

    A check that raises is reported as failed with the exception in its
    detail line rather than aborting the run.

    Raises
    ------
    BadParameter
        Unknown suite name.
    """
    if suite != "all" and suite not in SUITE_NAMES:
        raise BadParameter(
            f"unknown suite {suite!r}; pick one of "
            f"{', '.join(SUITE_NAMES)} or all"
        )
    _oh_row_orlicz.cache_clear()  # each run pays for its own build
    results: list[CheckResult] = []
    for name, check, fn in _CHECKS:
        if suite != "all" and name != suite:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed_ms = (time.perf_counter() - start) * 1e3
        results.append(CheckResult(name, check, passed, detail, elapsed_ms))
    return results
