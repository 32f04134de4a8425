"""Per-layer metrics of the traced run, and what each should move.

Each metric is named ``<workload>.<module>.<function>.<stat>`` after the
workload whose traced requests it is measured on.  ``moves`` names the
end-to-end metric (``<workload>.<metric>``) a change to that layer is
expected to move; ``"unchanged"`` marks a no-change prediction.  Later
changes cite these names for their claims and predictions.

Layers are the program's modules: cli, spaces, invariants, monotone_fn,
growth, orlicz, schatten, oracle, verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from tracing import Profile

#: Knot counts of the scaling curve, measured at n = SCALING_N.
SCALING_M = (1, 10, 50, 200, 800, 1600)
SCALING_N = 4096


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    value: Callable[[Profile], float]
    moves: str


def _ms(name: str) -> Callable[[Profile], float]:
    return lambda p: p.ms_per_request(name)


def _calls(name: str) -> Callable[[Profile], float]:
    return lambda p: p.calls_per_request(name)


def _sweep_path(w: str) -> list[Metric]:
    """The CLI sweep path shared by ``catalog`` and ``knotted``."""
    p50, p90, rps = (f"{w}.latency_p50_ms", f"{w}.latency_p90_ms",
                     f"{w}.requests_per_s")
    knot_p90 = p90 if w == "knotted" else "unchanged"
    knot_rps = rps if w == "knotted" else "unchanged"
    ms, per_req = "ms/req", "calls/req"
    specs = [
        ("cli.main.ms", ms, _ms("cli.main"), p50),
        ("cli.parse.ms", ms, _ms("cli.parse"), p50),
        ("cli.self_ms", ms,
         lambda p: 1e3 * p.self_time["cli.main"] / p.requests, p50),
        ("spaces.descriptor_from_json.ms", ms,
         _ms("spaces.descriptor_from_json"), p50),
        ("spaces.dual.ms", ms, _ms("spaces.dual"), p50),
        ("spaces.canonical_weights.ms", ms, _ms("spaces.canonical_weights"), p50),
        ("spaces.knots", "knots/desc",
         lambda p: p.mean_probe("spaces.descriptor_from_json"), p50),
        ("invariants.sweep.ms", ms, _ms("invariants.sweep"), p50),
        ("invariants.sweep.us_per_n", "us/n",
         lambda p: 1e6 * p.incl["invariants.sweep"]
         / max(sum(p.probes.get("invariants.sweep", [])), 1), p50),
        ("invariants.exactness.ms", ms, _ms("invariants.exactness"), p50),
        ("invariants.exactness.calls", per_req,
         _calls("invariants.exactness"), p50),
        ("growth.TailIntegral.from_density.ms", ms,
         _ms("growth.TailIntegral.from_density"), p50),
        ("growth.TailIntegral.from_density.calls_per_n", "calls/n",
         lambda p: p.calls["growth.TailIntegral.from_density"]
         / max(sum(p.probes.get("invariants.sweep", [])), 1), p50),
        ("growth.TailIntegral.integral_of_composed.ms", ms,
         _ms("growth.TailIntegral.integral_of_composed"), knot_rps),
        ("growth.TailIntegral.integral_of_composed.calls", per_req,
         _calls("growth.TailIntegral.integral_of_composed"), knot_rps),
        ("monotone_fn.compose.ms", ms, _ms("monotone_fn.compose"), knot_p90),
        ("monotone_fn.compose.knots_out", "knots/call",
         lambda p: p.mean_probe("monotone_fn.compose"), knot_p90),
        ("monotone_fn.inverse_fn.ms", ms, _ms("monotone_fn.inverse_fn"), knot_p90),
        ("monotone_fn.generalized_inverse.calls", per_req,
         _calls("monotone_fn.generalized_inverse"), knot_p90),
        ("monotone_fn.fit_loglog_slope.ms", ms,
         _ms("monotone_fn.fit_loglog_slope"), knot_p90),
    ]
    return [Metric(f"{w}.{n}", u, f, m) for n, u, f, m in specs]


def _verify() -> list[Metric]:
    p50 = "verify.latency_p50_ms"
    ms = "ms/req"
    specs = [
        ("verify.growth.ms", ms, _ms("verify.growth")),
        ("verify.orlicz.ms", ms, _ms("verify.orlicz")),
        ("verify.oracle.ms", ms, _ms("verify.oracle")),
        ("growth.growth_fn.ms", ms, _ms("growth.growth_fn")),
        ("growth.TailIntegral.from_density.calls", "calls/req",
         _calls("growth.TailIntegral.from_density")),
        ("orlicz.from_weight.ms", ms, _ms("orlicz.from_weight")),
        ("orlicz.psi.ms", ms, _ms("orlicz.psi")),
        ("orlicz.sequence_norm.ms", ms, _ms("orlicz.sequence_norm")),
        ("orlicz.sequence_norm.calls", "calls/req",
         _calls("orlicz.sequence_norm")),
        ("oracle.orlicz_norm_scan.ms", ms, _ms("oracle.orlicz_norm_scan")),
        ("oracle.indicator_search.ms", ms, _ms("oracle.indicator_search")),
        ("oracle.aux_diag_norm.ms", ms, _ms("oracle.aux_diag_norm")),
        ("oracle.riemann_integral.ms", ms, _ms("oracle.riemann_integral")),
    ]
    return [Metric(f"verify.{n}", u, f, p50) for n, u, f in specs]


def _cold(p: Profile) -> set[int]:
    """``pi1_of_map`` calls that built the pair's summing function."""
    return p.marked("schatten.pi1_of_map", "orlicz.from_fundamental_sequence")


def _map_ms(p: Profile, cold: bool) -> float:
    marked = _cold(p)
    times = [rec[2] - rec[1] for i, rec in enumerate(p.spans)
             if rec[0] == "schatten.pi1_of_map" and (i in marked) == cold]
    return 1e3 * sum(times) / max(len(times), 1)


def _cache(p: Profile) -> tuple[int, int]:
    """Hits and misses of the summing-function cache: ``cache_info`` of
    the cached functions in ``osinv.schatten`` when it has any, else
    warm and cold calls."""
    return p.cache if p.cache is not None else (
        p.calls["schatten.pi1_of_map"] - len(_cold(p)), len(_cold(p)))


def _maps() -> list[Metric]:
    rps, p50, rss = ("maps.requests_per_s", "maps.latency_p50_ms",
                     "maps.peak_rss_mb")

    def per_cold(name: str) -> Callable[[Profile], float]:
        return lambda p: 1e3 * p.incl[name] / max(len(_cold(p)), 1)

    specs = [
        ("schatten.pi1_of_map.cold_ms", "ms/call", lambda p: _map_ms(p, True), rps),
        ("schatten.pi1_of_map.warm_ms", "ms/call", lambda p: _map_ms(p, False), rps),
        ("schatten.singular_values.ms", "ms/call",
         lambda p: 1e3 * p.incl["schatten.singular_values"]
         / max(p.calls["schatten.singular_values"], 1), rps),
        ("schatten.summing_cache.hits", "count", lambda p: _cache(p)[0], rps),
        ("schatten.summing_cache.misses", "count", lambda p: _cache(p)[1], rss),
        ("schatten.summing_cache.hit_ratio", "ratio",
         lambda p: _cache(p)[0] / max(sum(_cache(p)), 1), rps),
        ("invariants.pi1_fundamental.ms", "ms/cold",
         per_cold("invariants.pi1_fundamental"), rps),
        ("orlicz.from_fundamental_sequence.ms", "ms/cold",
         per_cold("orlicz.from_fundamental_sequence"), rps),
        ("orlicz.sequence_norm.ms", "ms/req", _ms("orlicz.sequence_norm"), p50),
        ("orlicz.sequence_norm.calls", "calls/req",
         _calls("orlicz.sequence_norm"), p50),
    ]
    return [Metric(f"maps.{n}", u, f, m) for n, u, f, m in specs]


LAYER_METRICS: dict[str, list[Metric]] = {
    "catalog": _sweep_path("catalog"),
    "knotted": _sweep_path("knotted"),
    "verify": _verify(),
    "maps": _maps(),
}


def overhead_metric(workload: str) -> tuple[str, str, str]:
    """Traced minus untraced busy time, as a share of the untraced, both
    scaled to the same machine speed by the calibration loop."""
    return (f"{workload}.tracing_overhead", "%", "none: measures the tracer")


def scaling_metrics() -> list[tuple[str, str, str]]:
    """Knot-scaling curve at n = 4096 (ROADMAP Direction 1)."""
    out = []
    for m in SCALING_M:
        out += [
            (f"scaling.pi1_fundamental.m{m}.ms", "ms/call",
             "knotted.latency_p90_ms"),
            (f"scaling.exactness.m{m}.ms", "ms/call", "knotted.latency_p50_ms"),
            (f"scaling.generalized_inverse.m{m}.calls", "count",
             "knotted.latency_p90_ms"),
        ]
    return out


def all_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, moves) of every per-layer metric, in report order."""
    from workloads import WORKLOADS

    out = [(m.name, m.unit, m.moves) for w in WORKLOADS for m in LAYER_METRICS[w]]
    out += [overhead_metric(w) for w in WORKLOADS]
    return out + scaling_metrics()
