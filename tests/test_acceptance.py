"""End-to-end acceptance gate: one check per published accuracy target.

Each test covers one numbered criterion, computes its figure of merit
against the stated tolerance, and prints a single ``PASS``/``FAIL`` line
with the measured margin before asserting.  Run with ``-v`` (one result
line per criterion) or ``-s`` (the measured margins too).

All workloads are deterministic: fixed seeds, fixed dyadic grids.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

from osinv import (
    catalog,
    evaluate,
    from_fundamental,
    pi1_fundamental,
    projection,
    sweep,
)
from osinv.growth import growth_fn, growth_profile, recover_weight
from osinv.monotone_fn import make_piecewise
from osinv.oracle import aux_diag_norm, indicator_search, orlicz_norm_scan
from osinv.orlicz import (
    from_weight,
    fundamental_sequence,
    make_orlicz,
    power_orlicz,
    psi,
    sequence_norm,
    smooth_from_raw,
)
from osinv.schatten import schatten_orlicz_norm, schatten_p_norm
from osinv.spaces import canonical_weights, check_space_regularity, dual

DYADIC = [2**k for k in range(4, 21)]
LOG_WINDOW = [2**k for k in range(6, 21)]
SLOPE_TOL = 0.03
PER_SPACE_BUDGET = 10.0


def _emit(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


def test_criterion_01_exactness_slopes() -> None:
    """Exactness grows like n**(1/4), n**(1/pp'), n**(1/2p) per family."""
    cases = [
        (catalog("oh"), 0.25),
        (catalog("column_p", 4 / 3), 3.0 / 16.0),
        (catalog("column_p", 3), 2.0 / 9.0),
        (catalog("column_p", 4), 3.0 / 16.0),
        (catalog("cr_p", 1.5), 1.0 / 3.0),
        (catalog("cr_p", 3), 1.0 / 6.0),
    ]
    worst = 0.0
    slowest = 0.0
    ok = True
    for desc, expect in cases:
        start = time.perf_counter()
        slope = sweep(desc, n_grid=DYADIC).slopes["ex"][0]
        elapsed = time.perf_counter() - start
        worst = max(worst, abs(slope - expect))
        slowest = max(slowest, elapsed)
        ok = ok and abs(slope - expect) <= SLOPE_TOL
        ok = ok and elapsed < PER_SPACE_BUDGET
    detail = (
        f"worst slope margin {worst:.4f} (tol {SLOPE_TOL}), "
        f"slowest space {slowest:.2f}s (budget {PER_SPACE_BUDGET:.0f}s)"
    )
    _emit("criterion 1 exactness slopes", ok, detail)
    assert ok, detail


def test_criterion_02_pairwise_summing_slopes() -> None:
    """pi1 across a column pair grows like n**(1/min(r, r'))."""
    cases = [
        (2, 4, DYADIC, 0.625),
        (3, 3, DYADIC, 2.0 / 3.0),
        # The balanced pair's power law carries a slowly-decaying
        # logarithmic correction, so its slope is fitted further out.
        (4, 4 / 3, [2**k for k in range(24, 45, 4)], 0.5),
    ]
    worst = 0.0
    ok = True
    for p, q, grid, expect in cases:
        res = sweep(catalog("column_p", p), catalog("column_p", q),
                    n_grid=grid)
        slope = res.slopes["pi1"][0]
        worst = max(worst, abs(slope - expect))
        ok = ok and abs(slope - expect) <= SLOPE_TOL
    detail = f"worst slope margin {worst:.4f} (tol {SLOPE_TOL})"
    _emit("criterion 2 pairwise summing slopes", ok, detail)
    assert ok, detail


def test_criterion_03_log_factor_flatness() -> None:
    """pi1**2 / (n log(n+1)) stays within a factor 4 band."""
    worst = 1.0
    ok = True
    for desc in (catalog("oh"), catalog("cr_p", 1.5), catalog("cr_p", 3)):
        vals = [
            pi1_fundamental(desc, desc, n).pi1 ** 2
            / (n * math.log(n + 1.0))
            for n in LOG_WINDOW
        ]
        variation = max(vals) / min(vals)
        worst = max(worst, variation)
        ok = ok and variation <= 4.0
    detail = f"worst variation {worst:.3f} (budget 4)"
    _emit("criterion 3 log-factor flatness", ok, detail)
    assert ok, detail


def test_criterion_04_projection_slopes() -> None:
    """Projection grows like n**(1/max(p, p')); like sqrt(n/log n) at 2."""
    worst = 0.0
    ok = True
    for p, expect in ((3, 1.0 / 3.0), (4 / 3, 0.25)):
        slope = sweep(catalog("column_p", p), n_grid=DYADIC).slopes["proj"][0]
        worst = max(worst, abs(slope - expect))
        ok = ok and abs(slope - expect) <= SLOPE_TOL
    oh = catalog("oh")
    vals = [
        projection(oh, n) * math.sqrt(math.log(n + 1.0)) / math.sqrt(n)
        for n in LOG_WINDOW
    ]
    variation = max(vals) / min(vals)
    ok = ok and variation <= 4.0
    detail = (
        f"worst slope margin {worst:.4f} (tol {SLOPE_TOL}), "
        f"self-dual variation {variation:.3f} (budget 4)"
    )
    _emit("criterion 4 projection slopes", ok, detail)
    assert ok, detail


def test_criterion_05_duality() -> None:
    """phi_c * dual phi_c = n; projection is self-dual; dual regularity."""
    members = [
        catalog("oh"), catalog("c"), catalog("r"), catalog("c_cap_r"),
        catalog("column_p", 4 / 3), catalog("column_p", 2),
        catalog("column_p", 3), catalog("column_p", 4),
        catalog("row_p", 4 / 3), catalog("row_p", 3),
        catalog("cr_p", 1.5), catalog("cr_p", 3),
    ]
    worst_prod = 0.0
    for desc in members:
        dd = dual(desc)
        for n in (1, 7, 64, 1000, 2**20):
            prod = evaluate(desc.phi_c, float(n)) * evaluate(dd.phi_c, float(n))
            worst_prod = max(worst_prod, abs(prod / float(n) - 1.0))

    worst_proj = 0.0
    for desc in members:
        if not check_space_regularity(desc).passed:
            continue
        dd = dual(desc)
        for n in (4, 64, 4096):
            a, b = projection(desc, n), projection(dd, n)
            worst_proj = max(worst_proj, abs(a / b - 1.0))

    rng = np.random.default_rng(19)
    iff_ok = True
    for i in range(20):
        e1, e2, e3, e4 = rng.uniform(0.15, 0.85, size=4)
        k2 = float(rng.uniform(2.0, 50.0))
        k3 = float(rng.uniform(2.0, 50.0))
        desc = from_fundamental(
            make_piecewise([1.0, k2], [1.0, k2**e1], right_exponent=e2),
            make_piecewise([1.0, k3], [1.0, k3**e3], right_exponent=e4),
            label=f"rand{i}",
        )
        iff_ok = iff_ok and check_space_regularity(desc).passed
        iff_ok = iff_ok and check_space_regularity(dual(desc)).passed
    for kind in ("c", "r", "c_cap_r"):
        desc = catalog(kind)
        iff_ok = iff_ok and not check_space_regularity(desc).passed
        iff_ok = iff_ok and not check_space_regularity(dual(desc)).passed

    ok = worst_prod <= 1e-12 and worst_proj <= 1e-6 and iff_ok
    detail = (
        f"phi_c product rel err {worst_prod:.2e} (tol 1e-12), "
        f"projection duality rel err {worst_proj:.2e} (tol 1e-6), "
        f"dual-regularity iff on 20 random + 3 endpoint spaces: {iff_ok}"
    )
    _emit("criterion 5 duality", ok, detail)
    assert ok, detail


def test_criterion_06_growth_machinery() -> None:
    """Growth of power weights, the tail identity, weight recovery."""
    worst_growth = 0.0
    for a in (1.5, 2.0, 3.0):
        w = make_piecewise([1.0], [1.0], right_exponent=-a,
                           direction="nonincreasing")
        g = growth_fn(w)
        for s in np.geomspace(10.0, 1e6, 41):
            expect = (s / (a - 1.0)) ** (1.0 / a)
            worst_growth = max(
                worst_growth, abs(evaluate(g, float(s)) / expect - 1.0)
            )

    w = make_piecewise([1.0], [1.0], right_exponent=-2.0,
                       direction="nonincreasing")
    prof = growth_profile(w)
    worst_ident = 0.0
    for t in prof.g.values[::4]:
        if t <= 0.0:
            continue
        lhs = evaluate(prof.h, float(t)) * evaluate(prof.g_inv, float(t))
        worst_ident = max(worst_ident, abs(lhs / t - 1.0))

    lo, hi = 1.0, 1.0
    for e in (0.3, 0.5, 0.7):
        w = make_piecewise([1.0], [1.0], right_exponent=-1.0 / e,
                           direction="nonincreasing")
        w2 = recover_weight(growth_fn(w))
        for t in np.geomspace(1.0, 1e4, 17):
            r = evaluate(w2, float(t)) / evaluate(w, float(t))
            lo, hi = min(lo, r), max(hi, r)

    ok = worst_growth <= 1e-6 and worst_ident <= 1e-6 and 0.25 <= lo <= hi <= 4.0
    detail = (
        f"power growth rel err {worst_growth:.2e} (tol 1e-6), "
        f"tail identity rel err {worst_ident:.2e} (tol 1e-6), "
        f"recovery ratio [{lo:.3f}, {hi:.3f}] (band [1/4, 4])"
    )
    _emit("criterion 6 growth machinery", ok, detail)
    assert ok, detail


def test_criterion_07_orlicz_norms() -> None:
    """Euclidean special case, solver-vs-scan, psi growth, smoothing."""
    sq = power_orlicz(2.0)
    rng = np.random.default_rng(2)
    worst_eucl = 0.0
    for _ in range(50):
        x = rng.normal(size=rng.integers(1, 40))
        worst_eucl = max(
            worst_eucl, abs(sequence_norm(sq, x) / np.linalg.norm(x) - 1.0)
        )

    phis = [power_orlicz(1.5), psi(),
            from_weight(canonical_weights(catalog("oh")).ur_fn)]
    rng = np.random.default_rng(11)
    worst_scan = 0.0
    for i in range(100):
        x = rng.lognormal(0.0, 1.5, size=rng.integers(1, 30))
        phi = phis[i % 3]
        worst_scan = max(
            worst_scan,
            abs(sequence_norm(phi, x) / orlicz_norm_scan(phi, x) - 1.0),
        )

    lo, hi = math.inf, 0.0
    for k in range(3, 21):
        n = 2**k
        r = fundamental_sequence(psi(), n) / math.sqrt(n * math.log(n + 1.0))
        lo, hi = min(lo, r), max(hi, r)

    rng = np.random.default_rng(11)
    sandwich_ok = True
    worst_factor = 1.0
    for _ in range(10):
        knots = np.geomspace(1e-3, 10.0, 5) * rng.uniform(0.5, 2.0)
        exps = rng.uniform(1.0, 4.0, size=4)
        values = [rng.uniform(0.5, 2.0)]
        for (t0, t1), e in zip(zip(knots, knots[1:]), exps):
            values.append(values[-1] * (t1 / t0) ** e)
        raw = make_piecewise(knots.tolist(), values,
                             right_exponent=float(rng.uniform(1.0, 4.0)))
        smooth = smooth_from_raw(raw)
        raw_fn = make_orlicz(raw)
        for t in np.geomspace(1e-6, 100.0, 60):
            lo_v, hi_v = smooth.eval(float(t)), raw_fn.eval(float(t))
            worst_factor = max(worst_factor, hi_v / lo_v)
            if not (lo_v <= hi_v * (1.0 + 1e-9)
                    and hi_v <= 4.0 * lo_v * (1.0 + 1e-9)):
                sandwich_ok = False

    ok = (worst_eucl <= 1e-9 and worst_scan <= 1e-3
          and 0.5 <= lo <= hi <= 2.0 and sandwich_ok)
    detail = (
        f"euclidean rel err {worst_eucl:.2e} (tol 1e-9), "
        f"scan rel err {worst_scan:.2e} (tol 1e-3), "
        f"psi ratio [{lo:.3f}, {hi:.3f}] (band [1/2, 2]), "
        f"smoothing factor {worst_factor:.3f} (budget 4)"
    )
    _emit("criterion 7 orlicz norms", ok, detail)
    assert ok, detail


def test_criterion_08_schatten_layer() -> None:
    """Identity norms exact; column fundamental via singular values."""
    exact_ok = all(
        schatten_p_norm(np.eye(n), p) == float(n) ** (1.0 / p)
        for p in (1.0, 1.5, 2.0, 3.0, 4.0)
        for n in (1, 2, 5, 16, 100)
    )

    worst_fund = 0.0
    for p in (1.5, 3.0, 4.0):
        desc = catalog("column_p", p)
        two_p_conj = 2.0 * p / (p - 1.0)
        for n in (2, 8, 64, 512):
            a = evaluate(desc.phi_c, float(n))
            b = schatten_p_norm(np.eye(n), two_p_conj) ** 2
            worst_fund = max(worst_fund, abs(a / b - 1.0))

    rng = np.random.default_rng(8)
    worst_unitary = 0.0
    phi = psi()
    for _ in range(5):
        x = rng.normal(size=(8, 8))
        q1, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        q2, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        a = schatten_orlicz_norm(x, phi)
        b = schatten_orlicz_norm(q1 @ x @ q2, phi)
        worst_unitary = max(worst_unitary, abs(a / b - 1.0))

    ok = exact_ok and worst_fund <= 1e-9 and worst_unitary <= 1e-8
    detail = (
        f"identity norms exact: {exact_ok}, "
        f"column fundamental rel err {worst_fund:.2e} (tol 1e-9), "
        f"unitary invariance rel err {worst_unitary:.2e} (tol 1e-8)"
    )
    _emit("criterion 8 schatten layer", ok, detail)
    assert ok, detail


def test_criterion_09_search_oracles() -> None:
    """Diagonal split within [1/8, 8]; indicator corner within one cell."""
    oh = catalog("oh")
    oh_w = canonical_weights(oh)
    phi_r = from_weight(oh_w.ur_fn)
    rng = np.random.default_rng(7)
    lo, hi = math.inf, 0.0
    for _ in range(25):
        x = rng.lognormal(0.0, 1.0, size=rng.integers(1, 33))
        r = aux_diag_norm(oh_w, x) / sequence_norm(phi_r, x)
        lo, hi = min(lo, r), max(hi, r)
    aux_ok = 0.125 <= lo <= hi <= 8.0

    grid_lo, grid_n = 0.25, 64
    worst_ratio = 1.0
    worst_cells = 0.0
    corner_ok = True
    for n in (16, 256, 4096):
        rep = pi1_fundamental(oh, oh, n)
        ref = math.sqrt(rep.lambda1[0] + rep.lambda2[0] + rep.lambda3[0])
        val, (s_c, t_c) = indicator_search(oh_w, oh_w, n)
        ratio = val / ref
        cell = math.log(max(16.0, 4.0 * n) / grid_lo) / (grid_n - 1)
        cells = max(abs(math.log(s_c / rep.s_break)),
                    abs(math.log(t_c / rep.t_break))) / cell
        worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
        worst_cells = max(worst_cells, cells)
        corner_ok = corner_ok and 0.25 <= ratio <= 4.0 and cells <= 1.0

    ok = aux_ok and corner_ok
    detail = (
        f"diagonal ratio [{lo:.3f}, {hi:.3f}] (band [1/8, 8]), "
        f"indicator factor {worst_ratio:.3f} (budget 4), "
        f"corner offset {worst_cells:.2f} cells (budget 1)"
    )
    _emit("criterion 9 search oracles", ok, detail)
    assert ok, detail


def _osinv(*argv: str) -> subprocess.CompletedProcess[str]:
    """Run the CLI in a fresh interpreter, installed or not."""
    return subprocess.run(
        [sys.executable, "-m", "osinv.cli", *argv],
        capture_output=True, text=True,
    )


def _failure(label: str, res: subprocess.CompletedProcess[str]) -> str:
    lines = res.stderr.strip().splitlines()
    last = lines[-1] if lines else "<no stderr>"
    return f"; {label} exit {res.returncode}: {last}"


def test_criterion_10_end_to_end() -> None:
    """`osinv verify` exits 0; a four-space table run stays under 60s."""
    start = time.perf_counter()
    res = _osinv("verify")
    verify_ok = res.returncode == 0
    summary = res.stdout.strip().splitlines()[-1] if res.stdout else "<empty>"
    causes = "" if verify_ok else _failure("verify", res)

    table_args = [
        '{"kind": "oh"}',
        '{"kind": "column_p", "p": 3}',
        '{"kind": "column_p", "p": 1.3333333333333333}',
        '{"kind": "cr_p", "p": 1.5}',
    ]
    tables_ok = True
    for space in table_args:
        res = _osinv("table", "--space", space,
                     "--n", "geometric:16:1048576:9")
        if res.returncode != 0:
            tables_ok = False
            causes += _failure(f"table {space}", res)
    elapsed = time.perf_counter() - start

    ok = verify_ok and tables_ok and elapsed < 60.0
    detail = (
        f"verify exit 0: {verify_ok} ({summary}), "
        f"four 9-point tables ok: {tables_ok}, "
        f"total {elapsed:.1f}s (budget 60s){causes}"
    )
    _emit("criterion 10 end to end", ok, detail)
    assert ok, detail
