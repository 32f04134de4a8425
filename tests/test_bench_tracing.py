"""The benchmark's tracing targets still exist and are still reached.

``bench/tracing.py`` wraps named functions and methods of ``osinv`` to
time the layers of a request; a target that is renamed, inlined or
bypassed reads 0 in every run.  These tests read its target lists from
``bench/`` as they are, never written, and check them against the
source: each target resolves, and a many-knot ``table`` request still
goes through the composed integral, composition and generalized
inversion that the tracer counts.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from osinv.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import tracing  # noqa: E402
finally:
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _ in tracing.SPANNED + tracing.COUNTED
])
def test_function_target_resolves(module: str, attr: str) -> None:
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls, attr", [
    (module, cls, attr) for module, cls, attr, _ in tracing.SPANNED_METHODS
])
def test_method_target_resolves(module: str, cls: str, attr: str) -> None:
    owner = getattr(importlib.import_module(module), cls)
    assert attr in vars(owner)


def _knotted_table(rng: random.Random, m: int) -> dict:
    knots = [10.0 ** (6.0 * i / (m - 1)) for i in range(m)]
    values = [1.0]
    for t0, t1 in zip(knots, knots[1:]):
        values.append(values[-1] * (t1 / t0) ** rng.uniform(0.3, 0.7))
    return {"knots": knots, "values": values,
            "right_exponent": rng.uniform(0.3, 0.7)}


def test_knotted_table_reaches_the_traced_leaves() -> None:
    rng = random.Random(12)
    space = {"kind": "fundamental", "phi_c": _knotted_table(rng, 12),
             "phi_r": _knotted_table(rng, 12)}
    argv = ["table", "--space", json.dumps(space), "--n",
            "geometric:16:1048576:5"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        with tracer.request(0), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    finally:
        tracer.uninstall()
    names = {rec[0] for rec in tracer.spans}
    assert {"invariants.sweep", "monotone_fn.compose",
            "growth.TailIntegral.integral_of_composed"} <= names
    assert tracer.counts["monotone_fn.generalized_inverse"] > 0
