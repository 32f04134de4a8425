"""One benchmark pass in a fresh process.

    python3 bench/worker.py --workload W --seed N (--seconds S | --count K) [--trace]
    python3 bench/worker.py --scaling
    python3 bench/worker.py --write-golden

A pass sends the workload's requests one after another (a closed loop
with one client) for S seconds of wall time, or for exactly K requests.
Each request is timed alone; its output is checked outside its timed
interval.  After the loop the default seed's golden requests are
replayed and compared with their committed digests.  The pass prints
one JSON object on its last line of standard output.

``osinv`` is imported from ``src`` of the checkout (``run.py`` puts it
on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import checks
import layers
from calibration import calibrate
from tracing import Profile, Tracer
from workloads import WORKLOADS, Request, scaling_space, stream

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".bench_out"
MAX_REPORTED_FAILURES = 5

#: The calibration loop runs between requests, never inside a timed one,
#: at most this often.
CALIBRATION_EVERY_S = 0.05


class Runner:
    """Sends requests to the program and judges the outputs."""

    def __init__(self, tracer: Tracer | None) -> None:
        import osinv.cli
        import osinv.invariants
        import osinv.schatten

        self.cli = osinv.cli
        self.invariants = osinv.invariants
        self.schatten = osinv.schatten
        self.tracer = tracer
        self.golden = checks.load_golden()
        self.references: dict[tuple[int, int], float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _scope(self, rid: int) -> contextlib.AbstractContextManager:
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.request(rid)

    def _reference(self, req: Request) -> float:
        key = (req.expect["pair_id"], req.expect["r"])
        if key not in self.references:
            dom, cod = req.pair
            self.references[key] = self.invariants.pi1_fundamental(
                dom, cod, req.expect["r"]).pi1
        return self.references[key]

    def run(self, rid: int, req: Request) -> float:
        """Send one request; return its latency in seconds."""
        self.attempted += 1
        failure = None
        if req.argv:
            buf = io.StringIO()
            code: Any = 0
            with contextlib.redirect_stdout(buf), self._scope(rid):
                start = time.perf_counter()
                try:
                    code = self.cli.main(list(req.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crashed request is a failed one
                    failure = f"raised {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            text = buf.getvalue()
            failure = (failure or checks.check_cli(req, code, text)
                       or checks.check_digest(self.golden, req, text))
        else:
            dom, cod = req.pair
            value = None
            with self._scope(rid):
                start = time.perf_counter()
                try:
                    value = self.schatten.pi1_of_map(dom, cod, req.matrix)
                except Exception as exc:  # a crashed request is a failed one
                    failure = f"raised {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            failure = failure or checks.check_map(req, value, self._reference)
        if failure is not None:
            self.failures.append(f"{req.workload} request {rid}: {failure}")
        return elapsed


def _cache_info(schatten: Any) -> tuple[int, int] | None:
    """Summed (hits, misses) of the ``lru_cache``s in ``osinv.schatten``."""
    infos = [f.cache_info() for f in vars(schatten).values()
             if callable(getattr(f, "cache_info", None))]
    if not infos:
        return None
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def run_pass(workload: str, seed: int, seconds: float | None,
             count: int | None, trace: bool) -> dict[str, Any]:
    tracer = Tracer() if trace else None
    runner = Runner(tracer)
    if tracer is not None:
        tracer.install()
    requests = stream(workload, seed)
    latencies: list[float] = []
    # (index of the next request, calibration-loop seconds)
    calibration: list[tuple[int, float]] = [(0, calibrate())]
    start = last_calibration = time.perf_counter()
    while True:
        now = time.perf_counter()
        if count is not None and len(latencies) >= count:
            break
        if count is None and now - start >= seconds:
            break
        if now - last_calibration >= CALIBRATION_EVERY_S:
            calibration.append((len(latencies), calibrate()))
            last_calibration = time.perf_counter()
        latencies.append(runner.run(len(latencies), next(requests)))
    calibration.append((len(latencies), calibrate()))
    cache = _cache_info(runner.schatten)
    if tracer is not None:
        tracer.uninstall()
        runner.tracer = None
    for i, req in enumerate(checks.golden_requests(workload)):
        runner.run(-1 - i, req)
    out: dict[str, Any] = {
        "latencies": latencies,
        "calibration": calibration,
        "busy_s": sum(latencies),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:MAX_REPORTED_FAILURES],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        profile = Profile(tracer, len(latencies))
        profile.cache = cache
        out["layers"] = {m.name: {"value": float(m.value(profile)), "unit": m.unit}
                         for m in layers.LAYER_METRICS[workload]}
        out["missing"] = tracer.missing
        tracer.write(SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl")
    return out


def _median_call(fn: Any, budget_s: float = 0.3, max_reps: int = 200) -> float:
    """Median wall time of repeated calls, in ms; at least one call."""
    times = []
    total = 0.0
    while not times or (total < budget_s and len(times) < max_reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        total += times[-1]
    return 1e3 * statistics.median(times)


def run_scaling() -> dict[str, Any]:
    """Knot-scaling curve: ``pi1_fundamental`` and ``exactness`` at
    n = 4096 per knot count, and the ``generalized_inverse`` calls the
    two make together (counted once, timed with the counter removed)."""
    from osinv import invariants
    from osinv.spaces import descriptor_from_json

    n = layers.SCALING_N
    spaces = {m: descriptor_from_json(scaling_space(m)) for m in layers.SCALING_M}
    tracer = Tracer()
    tracer.install()
    calls = {}
    for m, desc in spaces.items():
        tracer.counts.clear()
        with tracer.request(m):
            invariants.pi1_fundamental(desc, desc, n)
            invariants.exactness(desc, n)
        calls[m] = tracer.counts["monotone_fn.generalized_inverse"]
    tracer.uninstall()
    metrics = {}
    for m, desc in spaces.items():
        pi1_ms = _median_call(lambda: invariants.pi1_fundamental(desc, desc, n))
        ex_ms = _median_call(lambda: invariants.exactness(desc, n))
        metrics[f"scaling.pi1_fundamental.m{m}.ms"] = {"value": pi1_ms, "unit": "ms/call"}
        metrics[f"scaling.exactness.m{m}.ms"] = {"value": ex_ms, "unit": "ms/call"}
        metrics[f"scaling.generalized_inverse.m{m}.calls"] = {
            "value": calls[m], "unit": "count"}
    return {"layers": metrics, "attempted": 2 * len(spaces), "failed": 0,
            "failures": []}


def write_golden() -> None:
    """Record the digests of the golden requests' outputs at this commit."""
    import osinv.cli

    digests = {}
    for workload in WORKLOADS:
        for req in checks.golden_requests(workload):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = osinv.cli.main(list(req.argv))
            failure = checks.check_cli(req, code, buf.getvalue())
            if failure is not None:
                raise SystemExit(f"golden request fails its check: {failure}")
            digests[checks.argv_key(req.argv)] = checks.output_digest(buf.getvalue())
    checks.GOLDEN_PATH.write_text(json.dumps(
        {"seed": checks.DEFAULT_SEED, "digests": digests}, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--count", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0
    if args.scaling:
        result = run_scaling()
    else:
        if args.workload is None or (args.seconds is None) == (args.count is None):
            ap.error("need --workload and exactly one of --seconds, --count")
        result = run_pass(args.workload, args.seed, args.seconds, args.count,
                          args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
