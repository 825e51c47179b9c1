"""Metric definitions: the end-to-end figures and the per-layer split.

Every per-layer metric is reported on every workload, as 0 where the layer
does no work; the README maps each one to the end-to-end metric and workload
it should move.
"""

from __future__ import annotations

import math
import statistics

from spans import LAYERS

END_TO_END = {
    "setup_s": "s",
    "throughput": "ops/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer groups of wrapped functions; each gets .calls_per_op, .self_ms and
# .total_ms (self time plus that of everything the group calls), per op.
GROUPS = {
    "noise.noise_report": ("noise.noise_report",),
    "noise.noise_operator": ("noise.noise_operator",),
    "noise.epsilon_sq": ("noise.epsilon_sq",),
    "noise.bounds": ("noise.robertson_bound", "noise.paper_bound", "noise.yanase_bound", "noise.simplified_bound"),
    "numpy.kron": ("numpy.kron",),
    "linalg.checks": (
        "linalg.as_operator", "linalg.as_state", "linalg.frobenius_norm", "linalg.dagger",
        "linalg.commutator", "linalg.variance", "linalg.tensor_product",
    ),
    "linalg.haar_unitary": ("linalg.haar_unitary",),
    "linalg.sampling": ("linalg.random_positive_operator", "linalg.random_state_vector", "linalg.random_hermitian"),
    "commutant.conserved_eigenspaces": ("commutant.conserved_eigenspaces",),
    "commutant.commutant_unitary": ("commutant.commutant_unitary",),
    "commutant.search": ("commutant.feasibility_search", "commutant.minimize_epsilon"),
    "model.MeasurementModel": ("model.MeasurementModel",),
    "model.check_conserved": ("model.check_conserved",),
    "model.pointer_analysis": ("model.pointer_analysis",),
    "theorem.sample_conserving_instance": ("theorem.sample_conserving_instance",),
    "theorem.counterexample_sweep": ("theorem.counterexample_sweep",),
    "theorem.theorem_verdict": ("theorem.theorem_verdict",),
    "cli.load_model": ("cli.load_model",),
    "cli.canonical_json": ("cli.canonical_json",),
    "cli.emit_report": ("cli.emit_report",),
}

SHARES = LAYERS + ("numpy",)

# Name -> (unit, better) for every per-layer metric, in report order.
PER_LAYER = {}
for _group in GROUPS:
    PER_LAYER[f"{_group}.calls_per_op"] = ("count", "lower")
    PER_LAYER[f"{_group}.self_ms"] = ("ms", "lower")
    PER_LAYER[f"{_group}.total_ms"] = ("ms", "lower")
for _module in SHARES:
    PER_LAYER[f"{_module}.self_share"] = ("ratio", "lower")
PER_LAYER.update({
    "cli.self_share_d45": ("ratio", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "theorem.conforming_ratio": ("ratio", "higher"),
    "commutant.search.restart_s": ("s", "lower"),
    "commutant.search.accepted_steps": ("count", "lower"),
    "commutant.search.floor_spread": ("objective", "lower"),
    "commutant.control_hit_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
})


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_quantile(n: int) -> float:
    """The highest of p90 and below that leaves at least ten calls beyond it.

    With fewer than 20 calls no quantile above the median qualifies, and the
    median is reported in its place.
    """
    return max(0.5, min(0.9, math.floor(100 * (n - 10) / n) / 100)) if n > 0 else 0.5


def throughput(latencies, work, cycle: int) -> float:
    """Median over whole cycles of work done per second of ``cli.main`` time."""
    rates = []
    for start in range(0, len(latencies) - cycle + 1, cycle):
        rates.append(sum(work[start:start + cycle]) / sum(latencies[start:start + cycle]))
    return statistics.median(rates)


def group_of(names: list[str]) -> list[int]:
    """Index into GROUPS of each span name, or -1."""
    index = {name: i for i, members in enumerate(GROUPS.values()) for name in members}
    return [index.get(name, -1) for name in names]


def per_layer(profile: dict, ops: int, scale: float, extras: dict) -> dict:
    """Per-layer metrics from a traced run's self times, ``ops`` units of work.

    Times are multiplied by ``scale`` to bring them to reference speed.
    """
    calls, self_ns, root_ns = profile["calls"], profile["self_ns"], profile["root_ns"]
    values = {}
    group_ns = profile["group_ns"] + [0.0] * len(GROUPS)
    for i, (group, names) in enumerate(GROUPS.items()):
        values[f"{group}.calls_per_op"] = sum(calls.get(n, 0) for n in names) / ops
        values[f"{group}.self_ms"] = sum(self_ns.get(n, 0.0) for n in names) * scale / ops / 1e6
        values[f"{group}.total_ms"] = group_ns[i] * scale / ops / 1e6
    for module in SHARES:
        own = sum(v for n, v in self_ns.items() if n.startswith(module + "."))
        values[f"{module}.self_share"] = own / root_ns
    values.update(extras)
    # Figures of a layer the workload never reaches read 0.
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, (unit, _) in PER_LAYER.items()}
