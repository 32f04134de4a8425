"""osinv benchmark: end-to-end metrics per workload, or the traced run.

    python3 bench/run.py --workload {catalog,knotted,verify,maps} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src`` next to this
directory.  With ``--trace 0`` the named workload runs for S seconds in
a fresh process, after ``setup_s`` is measured, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the end-to-end ``metrics``: ``setup_s`` (median wall
time of a fresh interpreter importing ``osinv.cli``, scaled to the
reference machine speed by ``calibration.py``), the requests per
busy second and the median and 90th-percentile request latency of the
run's least disturbed window, scaled to the reference machine speed
(``window_stats``), and the worker's peak resident memory.  A ``# raw`` line before the result gives the unscaled
timings and the calibration time.  With ``--trace 1`` every
workload runs a fixed number of requests twice, untraced and traced,
each in a fresh process, followed by the knot-scaling curve; the
metrics are the per-layer ones of ``layers.py`` and the tracing
overhead per workload, and the spans go to ``.bench_out/``.

A line starting ``# meta`` before the result records the machine,
Python, numpy, BLAS, thread caps and commit.  The run is refused when
``OSINV_GRID_DENSITY`` is set, because that variable changes the work
every tabulation does.  Self-tests: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import REFERENCE_S, calibrate  # noqa: E402
from layers import overhead_metric  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed for ``setup_s``, half before the workload and
#: half after it, so that the median spans two moments of the machine;
#: one untimed warm-up first also writes the bytecode caches.
SETUP_SPAWNS = 12

#: Requests per window: whole blocks of each stream's mix (see
#: ``workloads.py``), so every window holds the workload's exact mix.
WINDOW = {"catalog": 100, "knotted": 20, "verify": 1, "maps": 120}

#: Requests per workload in the traced run, the same untraced and traced.
TRACE_COUNTS = {"catalog": 600, "knotted": 60, "verify": 2, "maps": 400}

#: Wall budget of one run; every child is killed by then.
RUN_BUDGET_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    """Environment of every child: ``src`` first on the path, and one
    BLAS thread.  The matrices here are at most 128 wide, where a second
    thread made ``pi1_of_map`` slower (90th percentile 7.9 ms against
    5.5 ms on two CPUs) and its timings less steady, since a call then
    waits for whichever CPU another tenant is holding up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def metadata(env: dict[str, str]) -> dict[str, Any]:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: env.get(var) for var in THREAD_VARS},
        "commit": commit,
    }


class Children:
    """Spawns children under one wall budget; each is waited for, and
    killed first if it outlives the budget."""

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def run(self, args: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        try:
            return subprocess.run([sys.executable, *args], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{' '.join(args[:3])} exceeded the run budget") from exc

    def worker(self, *args: str) -> dict[str, Any]:
        proc = self.run([str(HERE / "worker.py"), *args])
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        for line in result.get("failures", []):
            print(f"failed: {line}", file=sys.stderr)
        return result

    def setup_times(self, count: int) -> tuple[list[float], int]:
        """Wall times of fresh interpreters importing ``osinv.cli``, each
        scaled by the calibration loop timed just before it."""
        times, failed = [], 0
        for _ in range(count):
            loop_s = calibrate()
            start = time.perf_counter()
            proc = self.run(["-c", "import osinv.cli"])
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                failed += 1
                print(proc.stderr[-2000:], file=sys.stderr)
            else:
                times.append(elapsed * REFERENCE_S / loop_s)
        return times, failed


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def end_to_end(children: Children, workload: str, seed: int,
               seconds: int) -> dict[str, Any]:
    _, setup_failed = children.setup_times(1)
    before, failed_before = children.setup_times(SETUP_SPAWNS // 2)
    res = children.worker("--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds))
    after, failed_after = children.setup_times(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    setup = before + after
    setup_failed += failed_before + failed_after
    if not setup:
        raise BenchError("osinv.cli does not import")
    lat = np.asarray(res["latencies"])
    stats = window_stats(lat, res["calibration"], WINDOW[workload])
    print("# raw " + json.dumps({
        "requests_per_s": lat.size / lat.sum(),
        "latency_p50_ms": 1e3 * np.percentile(lat, 50),
        "latency_p90_ms": 1e3 * np.percentile(lat, 90),
        "calibration_ms": 1e3 * statistics.median(c for _, c in res["calibration"]),
        "windows": int(lat.size // WINDOW[workload])}))
    return {
        "correct": res["failed"] == 0 and setup_failed == 0,
        "attempted": res["attempted"] + SETUP_SPAWNS + 1,
        "failed": res["failed"] + setup_failed,
        "metrics": {
            "setup_s": _metric(statistics.median(setup), "s"),
            "requests_per_s": _metric(stats["requests_per_s"], "1/s"),
            "latency_p50_ms": _metric(stats["latency_p50_ms"], "ms"),
            "latency_p90_ms": _metric(stats["latency_p90_ms"], "ms"),
            "peak_rss_mb": _metric(res["peak_rss_kb"] / 1024.0, "MB"),
        },
    }


def window_stats(lat: np.ndarray, calibration: list[tuple[int, float]],
                 window: int) -> dict[str, float]:
    """Throughput and latency percentiles of the least disturbed window,
    scaled to the reference machine speed.

    Other tenants slow the machine for stretches (``calibration.py``),
    and disturbance only adds time.  The run is cut into consecutive
    windows of `window` requests, each holding the workload's exact mix,
    and each metric is read in its best window: the lowest median and
    90th-percentile latency, the most requests per busy second.  The
    value is then scaled by the reference loop time over the median of
    the calibration loops the worker timed within that window, which
    removes a slowdown that lasted the whole run.  A change to the
    program moves every window, so it shows in full.
    """
    count = lat.size // window
    if count == 0:
        raise BenchError(f"fewer than {window} requests completed")
    windows = lat[:count * window].reshape(count, window)
    marks = np.asarray([i for i, _ in calibration])
    loop_s = np.asarray([c for _, c in calibration])

    def scale(w: int) -> float:
        inside = (marks >= w * window) & (marks <= (w + 1) * window)
        if not inside.any():  # a window shorter than the calibration period
            inside = np.arange(marks.size) == np.abs(
                marks - (w + 0.5) * window).argmin()
        return REFERENCE_S / float(np.median(loop_s[inside]))

    p50 = np.percentile(windows, 50, axis=1)
    p90 = np.percentile(windows, 90, axis=1)
    busy = windows.sum(axis=1)
    best50, best90, best_busy = int(p50.argmin()), int(p90.argmin()), int(busy.argmin())
    return {
        "requests_per_s": window / busy[best_busy] / scale(best_busy),
        "latency_p50_ms": 1e3 * p50[best50] * scale(best50),
        "latency_p90_ms": 1e3 * p90[best90] * scale(best90),
    }


def _scaled_busy(res: dict[str, Any]) -> float:
    """Busy time of a pass over its median calibration-loop time, so two
    passes made at different machine speeds compare."""
    return res["busy_s"] / statistics.median(c for _, c in res["calibration"])


def traced(children: Children, seed: int) -> dict[str, Any]:
    metrics: dict[str, Any] = {}
    attempted = failed = 0
    for workload in WORKLOADS:
        args = ("--workload", workload, "--seed", str(seed),
                "--count", str(TRACE_COUNTS[workload]))
        plain = children.worker(*args)
        with_trace = children.worker(*args, "--trace")
        if with_trace["missing"]:
            print(f"not traced (gone from the program): {with_trace['missing']}",
                  file=sys.stderr)
        metrics.update(with_trace["layers"])
        name, unit, _ = overhead_metric(workload)
        metrics[name] = _metric(
            100.0 * (_scaled_busy(with_trace) / _scaled_busy(plain) - 1.0), unit)
        for res in (plain, with_trace):
            attempted += res["attempted"]
            failed += res["failed"]
    scaling = children.worker("--scaling")
    metrics.update(scaling["layers"])
    return {"correct": failed == 0, "attempted": attempted + scaling["attempted"],
            "failed": failed + scaling["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if "OSINV_GRID_DENSITY" in os.environ:
        print("refused: OSINV_GRID_DENSITY is set; it changes the work every "
              "tabulation does, so the figures would not compare", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "osinv" / "cli.py").is_file():
        print(f"refused: no program at {ROOT / 'src' / 'osinv'}", file=sys.stderr)
        return 2
    env = child_env()
    print("# meta " + json.dumps(metadata(env)))
    children = Children(env)
    try:
        if args.trace:
            result = traced(children, args.seed)
        else:
            result = end_to_end(children, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
