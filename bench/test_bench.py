"""Self-tests of the benchmark: ``python3 -m pytest bench``.

They cover the request streams (seeded and reproducible), the output
checks (each rejects a tampered output), the tracer (it leaves no
wrapper behind) and the agreement of ``BENCHMARK.json`` with the code.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Request, knotted_space, stream  # noqa: E402

import osinv.cli  # noqa: E402
import osinv.growth  # noqa: E402
import osinv.invariants  # noqa: E402
import osinv.monotone_fn  # noqa: E402
import osinv.schatten  # noqa: E402
import osinv.spaces  # noqa: E402
import osinv.verify  # noqa: E402


def _take(workload: str, seed: int, count: int = 25) -> list[Request]:
    it = stream(workload, seed)
    return [next(it) for _ in range(count)]


def _fingerprint(req: Request) -> tuple:
    pair = None
    if req.pair is not None:
        pair = tuple(osinv.spaces.descriptor_to_json(d) for d in req.pair)
    matrix = None if req.matrix is None else req.matrix.tobytes()
    return req.argv, json.dumps(req.expect, sort_keys=True), repr(pair), matrix


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload: str) -> None:
    first = [_fingerprint(r) for r in _take(workload, 5)]
    again = [_fingerprint(r) for r in _take(workload, 5)]
    assert first == again


@pytest.mark.parametrize("workload", ["catalog", "knotted", "maps"])
def test_other_seed_other_requests(workload: str) -> None:
    assert ([_fingerprint(r) for r in _take(workload, 5)]
            != [_fingerprint(r) for r in _take(workload, 6)])


def test_stream_mix_is_exact() -> None:
    ops = [r.expect["op"] for r in _take("catalog", 3, 400)]
    assert (ops.count("table"), ops.count("fit"), ops.count("pi1")) == (200, 100, 100)
    knotted = _take("knotted", 3, 120)
    for i in range(0, 120, 20):
        ms = [r.expect["m"] for r in knotted[i:i + 20]]
        assert [ms.count(m) for m in (25, 50, 100, 200)] == [6, 6, 5, 3]
    for m in (25, 50, 100, 200):
        ops = [r.expect["op"] for r in knotted if r.expect["m"] == m]
        assert ops.count("table") == 2 * ops.count("pi1")
    pairs = [r.expect["pair_id"] for r in _take("maps", 3, 400)]
    assert len(set(pairs)) == 400 // 20


# -- checks reject tampered outputs ----------------------------------------

def _cli(argv: tuple[str, ...]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = osinv.cli.main(list(argv))
    return code, buf.getvalue()


def _request(op: str, space: dict, fmt: str = "csv", **extra) -> Request:
    grid = "geometric:16:1048576:5"
    spec = json.dumps(space)
    if op == "pi1":
        other = json.dumps(extra["codomain"])
        argv = ("pi1", "--domain", spec, "--codomain", other, "--n", grid,
                "--out", fmt)
        expect = {"domain": space, "codomain": extra["codomain"]}
    else:
        argv = (op, "--space", spec, "--n", grid, "--out", fmt)
        expect = {"space": space}
    expect.update(op=op, fmt=fmt, ns=[16, 256, 4096, 65536, 1048576])
    return Request("catalog", argv, expect=expect)


def _bump_digit(cell: str, index: int = -1) -> str:
    """Change the digit at `index` of `cell` (counting digits only)."""
    pos = [i for i, ch in enumerate(cell) if ch.isdigit()][index]
    new = "1" if cell[pos] != "1" else "2"
    return cell[:pos] + new + cell[pos + 1:]


def _tamper_csv(text: str, row: int, col: int, index: int = -1) -> str:
    lines = text.split("\n")
    cells = lines[2 + row].split(",")
    cells[col] = _bump_digit(cells[col], index)
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines)


OH = {"kind": "oh"}
KNOTTED = knotted_space(np.random.default_rng(7), 12)


@pytest.mark.parametrize("col", range(1, 6))
def test_oh_row_rejects_one_changed_digit(col: int) -> None:
    req = _request("table", OH)
    code, text = _cli(req.argv)
    assert checks.check_cli(req, code, text) is None
    assert checks.check_cli(req, code, _tamper_csv(text, 2, col)) is not None


def test_oh_json_rejects_a_change_beyond_1e12() -> None:
    req = _request("table", OH, fmt="json")
    code, text = _cli(req.argv)
    assert checks.check_cli(req, code, text) is None
    doc = json.loads(text)
    doc["rows"][1]["pi1"] *= 1.0 + 1e-11
    assert checks.check_cli(req, code, json.dumps(doc)) is not None


def test_slope_check_rejects_a_changed_slope() -> None:
    req = _request("fit", {"kind": "cr_p", "p": 3.0})
    code, text = _cli(req.argv)
    assert checks.check_cli(req, code, text) is None
    ex_line = [ln for ln in text.split("\n") if ln.startswith("ex,")][0]
    _, slope, r2 = ex_line.split(",")
    bad = text.replace(ex_line, f"ex,{float(slope) + 0.05:.10g},{r2}")
    assert "ex slope" in checks.check_cli(req, code, bad)


def test_knotted_table_rejects_changed_phi_and_proj() -> None:
    req = _request("table", KNOTTED)
    code, text = _cli(req.argv)
    assert checks.check_cli(req, code, text) is None
    assert "phi_c" in checks.check_cli(req, code, _tamper_csv(text, 1, 1))
    assert "proj" in checks.check_cli(req, code, _tamper_csv(text, 1, 4, 4))


def test_pi1_rejects_a_changed_quadrant_term() -> None:
    req = _request("pi1", KNOTTED, codomain={"kind": "column_p", "p": 2.5})
    code, text = _cli(req.argv)
    assert checks.check_cli(req, code, text) is None
    assert "pi1**2" in checks.check_cli(req, code, _tamper_csv(text, 3, 4, 2))
    assert "t_break" in checks.check_cli(req, code, _tamper_csv(text, 3, 9))


def test_verify_rejects_a_wrong_tally() -> None:
    req = Request("verify", ("verify",), expect={"op": "verify"})
    good = "pass  growth.x  ok\n11 passed, 0 failed\n"
    assert checks.check_cli(req, 0, good) is None
    assert checks.check_cli(req, 0, good.replace("11 passed, 0", "10 passed, 1"))
    assert checks.check_cli(req, 0, good.replace("pass ", "fail ")) is not None
    assert checks.check_cli(req, 1, good) is not None


def test_digest_rejects_any_changed_byte() -> None:
    req = checks.golden_requests("catalog")[0]
    code, text = _cli(req.argv)
    golden = checks.load_golden()
    assert checks.check_digest(golden, req, text) is None
    assert checks.check_digest(golden, req, text.replace("\n", " \n", 1))


def test_map_checks_reject_wrong_values() -> None:
    reqs = _take("maps", 9, 60)
    ident = next(r for r in reqs if r.expect["identity"])
    general = next(r for r in reqs if not r.expect["identity"])
    runner = worker.Runner(None)
    for req in (ident, general):
        value = osinv.schatten.pi1_of_map(*req.pair, req.matrix)
        assert checks.check_map(req, value, runner._reference) is None
    value = osinv.schatten.pi1_of_map(*ident.pair, ident.matrix)
    assert checks.check_map(ident, value * (1 + 1e-8), runner._reference)
    value = osinv.schatten.pi1_of_map(*general.pair, general.matrix)
    assert checks.check_map(general, value * 1e3, runner._reference)
    assert checks.check_map(general, float("nan"), runner._reference)


def test_golden_requests_pass_at_this_commit() -> None:
    runner = worker.Runner(None)
    for req in checks.golden_requests("catalog")[:20]:
        runner.run(0, req)
    assert runner.failures == []


# -- tracer ------------------------------------------------------------------

def _targets() -> dict[tuple[str, str], object]:
    return {
        ("cli", "sweep"): osinv.cli.sweep,
        ("cli", "main"): osinv.cli.main,
        ("cli", "run_suite"): osinv.cli.run_suite,
        ("invariants", "compose"): osinv.invariants.compose,
        ("growth", "generalized_inverse"): osinv.growth.generalized_inverse,
        ("monotone_fn", "generalized_inverse"):
            osinv.monotone_fn.generalized_inverse,
        ("TailIntegral", "from_density"):
            vars(osinv.growth.TailIntegral)["from_density"],
        ("TailIntegral", "integral_of_composed"):
            vars(osinv.growth.TailIntegral)["integral_of_composed"],
    }


def test_tracer_records_and_leaves_nothing_behind() -> None:
    before = _targets()
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == []
    assert osinv.cli.sweep is not before[("cli", "sweep")]
    req = _request("table", KNOTTED)
    with tracer.request(0):
        _cli(req.argv)
    names = {rec[0] for rec in tracer.spans}
    assert {"cli.main", "invariants.sweep", "monotone_fn.compose",
            "growth.TailIntegral.integral_of_composed"} <= names
    assert tracer.counts["monotone_fn.generalized_inverse"] > 0
    spans = len(tracer.spans)
    _cli(req.argv)  # outside a request: wrappers call straight through
    assert len(tracer.spans) == spans
    tracer.uninstall()
    assert _targets() == before


def test_untraced_pass_after_traced_pass_times_the_originals() -> None:
    before = _targets()
    traced = worker.run_pass("knotted", 1, None, 2, trace=True)
    assert traced["failed"] == 0 and traced["layers"]
    assert _targets() == before
    plain = worker.run_pass("knotted", 1, None, 2, trace=False)
    assert plain["failed"] == 0 and "layers" not in plain


def test_split_suites_keep_the_verify_output() -> None:
    whole = [(r.suite, r.name) for r in osinv.verify.run_suite("growth")]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.request(0):
            split = [(r.suite, r.name) for r in osinv.cli.run_suite("growth")]
    finally:
        tracer.uninstall()
    assert split == whole
    assert [rec[0] for rec in tracer.spans if rec[0].startswith("verify.")] == [
        "verify.growth"]


# -- BENCHMARK.json agrees with the code -------------------------------------

def test_benchmark_json_matches_the_code() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.all_metrics()]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "requests_per_s", "latency_p50_ms", "latency_p90_ms",
        "peak_rss_mb"}


# -- environment guard ---------------------------------------------------------

ARGS = ["--workload", "catalog", "--seed", "1", "--seconds", "1"]


def test_run_is_refused_under_osinv_grid_density(monkeypatch, capsys) -> None:
    monkeypatch.setenv("OSINV_GRID_DENSITY", "64")
    assert run.main(ARGS) == 2
    assert capsys.readouterr().out == ""


def test_run_is_refused_without_the_program(monkeypatch, tmp_path, capsys) -> None:
    monkeypatch.delenv("OSINV_GRID_DENSITY", raising=False)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(ARGS) == 2
    assert capsys.readouterr().out == ""


# -- window statistics ---------------------------------------------------------

def test_window_stats_read_the_best_window_at_reference_speed() -> None:
    block = np.random.default_rng(0).uniform(1e-3, 3e-3, size=100)
    lat = np.concatenate([block, 1.1 * block, 1.1 * block, 1.1 * block])
    calibration = [(i, 1e-3) for i in range(0, 401, 10)]
    base = run.window_stats(lat, calibration, 100)
    # A disturbed stretch (windows 2 and 3 run 1.5x slower) moves nothing.
    slowed = lat.copy()
    slowed[200:] *= 1.5
    marks = [(i, 1.5e-3 if i > 200 else 1e-3) for i, _ in calibration]
    assert run.window_stats(slowed, marks, 100) == base
    # A run slowed throughout, as the calibration loop saw, reads the same.
    whole = run.window_stats(2 * lat, [(i, 2 * c) for i, c in calibration], 100)
    assert whole == pytest.approx(base, rel=1e-12)
    # A slower program is slower in every window and shows in full.
    slower = run.window_stats(1.2 * lat, calibration, 100)
    assert slower["latency_p50_ms"] == pytest.approx(1.2 * base["latency_p50_ms"])
    assert slower["requests_per_s"] == pytest.approx(base["requests_per_s"] / 1.2)
