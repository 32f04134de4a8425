"""Correctness checks on every request's output.

Each check returns ``None`` when the output is right and a one-line
reason when it is not.  Expected values are computed here from the
request's inputs (closed forms, independent table evaluation), not by
the code under test, except for the ``pi1_of_map`` reference, which is
``pi1_fundamental`` by definition.

CSV cells carry 10 significant digits, so a CSV value must equal the
exact value to within half a unit in its tenth digit plus the stated
relative tolerance; JSON values carry every digit and get the relative
tolerance alone.  One changed digit in either format is rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Callable

import numpy as np

from workloads import ACCEPTANCE_P, DEFAULT_SEED, Request, stream

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Requests of the default seed replayed after every run and checked
#: against their committed digests.
GOLDEN_COUNT = {"catalog": 100, "knotted": 12, "verify": 1}

SLOPE_TOL = 0.03
VALUE_RTOL = 1e-12
PROJ_RTOL = 1e-9
MAP_RTOL = 1e-9
VERIFY_TALLY = "11 passed, 0 failed"

PI1_FIELDS = ("n", "pi1", "lambda1_mp", "lambda1_pm", "lambda2_mp",
              "lambda2_pm", "lambda3_mp", "lambda3_pm", "s_break", "t_break")


def half_unit(x: float, csv: bool) -> float:
    """Largest rounding error of `x` printed with 10 significant digits."""
    if not csv or x == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 9)


def close(printed: float, exact: float, csv: bool,
          rtol: float = VALUE_RTOL) -> bool:
    return abs(printed - exact) <= rtol * abs(exact) + half_unit(exact, csv)


def parse_output(text: str, fmt: str, op: str
                 ) -> tuple[list[dict[str, float]], dict[str, float]]:
    """Rows (field -> value) and fitted slopes (quantity -> slope)."""
    if fmt == "json":
        doc = json.loads(text)
        rows = [{k: float(v) for k, v in r.items()} for r in doc.get("rows", [])]
        return rows, {k: float(v[0]) for k, v in doc["slopes"].items()}
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("# osinv "):
        raise ValueError("missing metadata comment")
    header = lines[1].split(",")
    body = [line.split(",") for line in lines[2:]]
    if op == "fit":
        return [], {cells[0]: float(cells[1]) for cells in body}
    if body[-1][0] != "slope":
        raise ValueError("missing slope row")
    rows = [dict(zip(header, map(float, cells))) for cells in body[:-1]]
    slopes = {k: float(v) for k, v in zip(header[1:], body[-1][1:]) if v}
    return rows, slopes


# -- expected values -------------------------------------------------------

def catalog_exponents(space: dict[str, Any]) -> tuple[float, float]:
    """Exponents of ``phi_c`` and ``phi_r`` of a catalog space."""
    kind, p = space["kind"], space.get("p")
    if kind == "oh":
        return 0.5, 0.5
    e_dual, e_same = 1.0 - 1.0 / p, 1.0 / p
    return {"column_p": (e_dual, e_same), "row_p": (e_same, e_dual),
            "cr_p": (e_dual, e_dual)}[kind]


def slope_targets(space: dict[str, Any]) -> dict[str, float]:
    """Exponents tests/test_acceptance.py asserts for a catalog space:
    exactness ``1/4`` (OH), ``1/(p p')`` (column/row), ``1/(2p)`` (cr_p);
    projection ``1/max(p, p')`` (column/row).  Column/row targets hold
    only at the acceptance p values; elsewhere a logarithmic correction
    moves the fitted slope by more than the tolerance, so none is set."""
    kind, p = space["kind"], space.get("p")
    if kind == "oh":
        return {"ex": 0.25}
    if kind == "cr_p":
        return {"ex": 1.0 / (2.0 * p)}
    if p in ACCEPTANCE_P:
        q = p / (p - 1.0)
        return {"ex": 1.0 / (p * q), "proj": 1.0 / max(p, q)}
    return {}


def table_fn(table: dict[str, Any]) -> Callable[[float], float]:
    """Independent evaluation of a fundamental table: log-linear
    interpolation between knots, the power extension beyond them."""
    lk = np.log(table["knots"])
    lv = np.log(table["values"])
    k_last, v_last = table["knots"][-1], table["values"][-1]
    right = table["right_exponent"]

    def fn(n: float) -> float:
        if n >= k_last:
            return v_last * (n / k_last) ** right
        return float(np.exp(np.interp(math.log(n), lk, lv)))

    return fn


def space_fns(space: dict[str, Any]) -> tuple[Callable, Callable]:
    if space["kind"] == "fundamental":
        return table_fn(space["phi_c"]), table_fn(space["phi_r"])
    ec, er = catalog_exponents(space)
    return (lambda n: n ** ec), (lambda n: n ** er)


def oh_pi1(n: float) -> float:
    return math.sqrt(8.0 * n + 2.0 * n * math.log(n))


def oh_ex(n: float) -> float:
    """``sqrt(I_plus + I_minus)`` with each half-line integral equal to
    ``sqrt(n)`` times the canonical mass 2: ``2 n**(1/4)`` (README:
    ``exactness(oh, 16) == 4.0``)."""
    return 2.0 * n ** 0.25


# -- per-command checks ----------------------------------------------------

def _check_slopes(slopes: dict[str, float], space: dict[str, Any]) -> str | None:
    if abs(slopes["pi1"] + slopes["proj"] - 1.0) > 1e-8:
        return "slopes of pi1 and proj = n/pi1 do not sum to 1"
    if space["kind"] != "fundamental":
        for key, target in slope_targets(space).items():
            if abs(slopes[key] - target) > SLOPE_TOL:
                return f"{key} slope {slopes[key]:.4f} not within {SLOPE_TOL} of {target:.4f}"
    return None


def check_table(req: Request, rows: list, slopes: dict) -> str | None:
    e = req.expect
    csv = e["fmt"] == "csv"
    phi_c, phi_r = space_fns(e["space"])
    oh = e["space"]["kind"] == "oh"
    for row in rows:
        n = row["n"]
        if not close(row["phi_c"], phi_c(n), csv):
            return f"phi_c at n={n:g}"
        if not close(row["phi_r"], phi_r(n), csv):
            return f"phi_r at n={n:g}"
        slack = (PROJ_RTOL + half_unit(row["proj"], csv) / row["proj"]
                 + half_unit(row["pi1"], csv) / row["pi1"])
        if abs(row["proj"] * row["pi1"] / n - 1.0) > slack:
            return f"proj * pi1 / n != 1 at n={n:g}"
        if oh and not (close(row["ex"], oh_ex(n), csv)
                       and close(row["pi1"], oh_pi1(n), csv)):
            return f"OH row at n={n:g} off its closed form"
    if e["space"]["kind"] != "fundamental":
        exponents = catalog_exponents(e["space"])
        for key, target in zip(("phi_c", "phi_r"), exponents):
            if abs(slopes[key] - target) > SLOPE_TOL:
                return f"{key} slope {slopes[key]:.4f} off exponent {target:.4f}"
    return _check_slopes(slopes, e["space"])


def check_pi1(req: Request, rows: list, slopes: dict) -> str | None:
    e = req.expect
    csv = e["fmt"] == "csv"
    dom_c, _ = space_fns(e["domain"])
    _, cod_r = space_fns(e["codomain"])
    oh = e["domain"]["kind"] == e["codomain"]["kind"] == "oh"
    for row in rows:
        n = row["n"]
        lams = [row[k] for k in PI1_FIELDS[2:8]]
        total = 2.0 * n + sum(lams)
        slack = (PROJ_RTOL * total + 2.0 * row["pi1"] * half_unit(row["pi1"], csv)
                 + sum(half_unit(v, csv) for v in lams))
        if abs(row["pi1"] ** 2 - total) > slack:
            return f"pi1**2 != 2n + sum of quadrant terms at n={n:g}"
        if not close(row["s_break"], n / dom_c(n), csv):
            return f"s_break at n={n:g}"
        if not close(row["t_break"], cod_r(n), csv):
            return f"t_break at n={n:g}"
        if oh and not close(row["pi1"], oh_pi1(n), csv):
            return f"OH pi1 at n={n:g} off its closed form"
    return None


def check_cli(req: Request, code: int, text: str) -> str | None:
    """Judge one CLI invocation from its exit code and standard output."""
    if code != 0:
        return f"exit code {code}"
    op = req.expect["op"]
    if op == "verify":
        lines = text.rstrip("\n").split("\n")
        if lines[-1] != VERIFY_TALLY:
            return f"verify tally {lines[-1]!r}"
        if not all(line.startswith("pass ") for line in lines[:-1]):
            return "verify printed a failed check"
        return None
    try:
        rows, slopes = parse_output(text, req.expect["fmt"], op)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable output: {exc}"
    if op == "fit":
        return _check_slopes(slopes, req.expect["space"])
    if [int(r["n"]) for r in rows] != req.expect["ns"]:
        return "n column differs from the requested grid"
    try:
        if op == "table":
            return check_table(req, rows, slopes)
        return check_pi1(req, rows, slopes)
    except KeyError as exc:
        return f"missing field {exc}"


def check_map(req: Request, value: float,
              reference: Callable[[Request], float]) -> str | None:
    """``pi1_of_map`` lies between ``s_min * phi_r`` and ``s_max * phi_r``
    for the fundamental value ``phi_r = pi1_fundamental(pair, r).pi1``
    (``r = min(shape)``, a power of two, where the two agree exactly),
    and equals ``phi_r`` on the identity."""
    if not (isinstance(value, float) and math.isfinite(value)):
        return f"non-finite value {value!r}"
    phi_r = reference(req)
    if req.expect["identity"]:
        if abs(value / phi_r - 1.0) > MAP_RTOL:
            return f"identity: {value!r} != pi1_fundamental {phi_r!r}"
        return None
    s = np.linalg.svd(req.matrix, compute_uv=False)
    lo, hi = s[-1] * phi_r * (1.0 - MAP_RTOL), s[0] * phi_r * (1.0 + MAP_RTOL)
    if not lo <= value <= hi:
        return f"{value!r} outside [s_min, s_max] * phi_r = [{lo!r}, {hi!r}]"
    return None


# -- committed digests -----------------------------------------------------

def argv_key(argv: tuple[str, ...]) -> str:
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_requests(workload: str) -> list[Request]:
    """The first requests of the default seed, whose outputs have digests."""
    count = GOLDEN_COUNT.get(workload, 0)
    it = stream(workload, DEFAULT_SEED)
    return [next(it) for _ in range(count)]


def load_golden() -> dict[str, str]:
    """argv key -> sha256 of the CLI output at the baseline commit."""
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def check_digest(golden: dict[str, str], req: Request, text: str) -> str | None:
    want = golden.get(argv_key(req.argv))
    if want is not None and want != output_digest(text):
        return "output differs byte-wise from the committed digest"
    return None
