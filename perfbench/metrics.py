"""The benchmark's metrics: names, units, direction and bounds.

``BENCHMARK.json`` at the repository root lists the same metrics; a
test keeps the two in step.  Every workload prints every end-to-end
metric with tracing off and every per-layer metric with tracing on.  A
per-layer metric of a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Metric:
    """One reported quantity."""

    name: str
    unit: str
    better: str
    bound: Optional[float] = None


#: Bounds: the host's speed drifts, with slow stretches of up to a minute
#: in which a fixed loop runs a third to a half slower (README), and glibc
#: keeps a varying share of freed memory, so timings, rates and the timed
#: phases' peak need the largest bound allowed, 0.25.  The set-up
#: peak repeats to within a few percent.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("latency_s", "s", "lower", 0.25),
    Metric("throughput_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
    Metric("setup_peak_rss_mb", "MB", "lower", 0.1),
)

_S, _N, _F, _B = "s", "count", "fraction", "bytes"

PER_LAYER = tuple(
    Metric(name, unit, better)
    for name, unit, better in (
        # batch-file: cold file-to-answer jobs
        ("batch.text_to_answer_s", _S, "lower"),
        ("batch.snapshot_to_answer_s", _S, "lower"),
        ("batch.shards_to_answer_s", _S, "lower"),
        ("store.parse_s", _S, "lower"),
        ("graph.build_s", _S, "lower"),
        ("store.snapshot_load_s", _S, "lower"),
        ("store.shard_open_s", _S, "lower"),
        ("engine.run_s.pkmc", _S, "lower"),
        ("engine.run_s.pwc", _S, "lower"),
        ("engine.run_s.pkmc-bsp", _S, "lower"),
        ("kernels.items.pkmc", _N, "lower"),
        ("kernels.items.pwc", _N, "lower"),
        ("core.iterations.pkmc", _N, "lower"),
        ("core.iterations.pwc", _N, "lower"),
        ("core.iterations.pkmc-bsp", _N, "lower"),
        ("runtime.simulated_s.pkmc", _S, "lower"),
        ("runtime.simulated_s.pwc", _S, "lower"),
        ("shard.loads", _N, "lower"),
        ("shard.evictions", _N, "lower"),
        ("shard.peak_resident_bytes", _B, "lower"),
        ("distributed.boundary_bytes", _B, "lower"),
        # serve-zipf: open-loop query serving
        ("serve.latency_p99_s", _S, "lower"),
        ("serve.slo_attainment", _F, "higher"),
        ("serve.submit_s", _S, "lower"),
        ("serve.busy_fraction", _F, "lower"),
        ("serve.flight_hit_s", _S, "lower"),
        ("serve.flight_miss_s", _S, "lower"),
        ("serve.queue_wait_p50_s", _S, "lower"),
        ("serve.queue_depth_mean", _N, "lower"),
        ("serve.solver_runs", _N, "lower"),
        ("serve.coalesced", _N, "higher"),
        ("serve.reuse_ratio", _F, "higher"),
        ("serve.peak_queue_depth", _N, "lower"),
        ("serve.rejected", _N, "lower"),
        ("memo.hits", _N, "higher"),
        ("memo.misses", _N, "lower"),
        ("loadgen.lag_p99_s", _S, "lower"),
        # stream-bursty: batches of edge updates with a query after each
        ("stream.latency_p90_s", _S, "lower"),
        ("stream.apply_s", _S, "lower"),
        ("stream.query_small_s", _S, "lower"),
        ("stream.query_burst_s", _S, "lower"),
        ("stream.rebuilds", _N, "lower"),
        ("stream.incremental_fraction", _F, "higher"),
        ("stream.affected_vertices", _N, "lower"),
        ("stream.total_sweeps", _N, "lower"),
        # every workload: the trace's own accounting
        ("bench.unattributed_s", _S, "lower"),
        ("bench.trace_overhead_s", _S, "lower"),
    )
)

_BY_NAME = {metric.name: metric for metric in END_TO_END + PER_LAYER}


class Report:
    """Metric values gathered by one run, printed by name with units."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.values: dict[str, float] = {}

    @property
    def expected(self) -> tuple:
        """The metrics this run prints: per-layer when traced, else end-to-end."""
        return PER_LAYER if self.trace else END_TO_END

    def set(self, name: str, value: float) -> None:
        """Record one metric value; unknown names are a programming error."""
        if name not in _BY_NAME:
            raise KeyError(f"unknown metric {name!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.values[name] = value

    def metrics(self) -> dict[str, dict]:
        """The result line's ``metrics`` object.

        End-to-end metrics must all have been set.  A per-layer metric
        left unset belongs to a layer this workload does not exercise and
        reads 0.
        """
        out = {}
        for metric in self.expected:
            if metric.name in self.values:
                value = self.values[metric.name]
            elif self.trace:
                value = 0.0
            else:
                raise KeyError(f"end-to-end metric {metric.name} was not measured")
            out[metric.name] = {"value": value, "unit": metric.unit}
        return out

    def lines(self) -> list[str]:
        """One readable ``name = value unit`` line per printed metric."""
        return [
            f"  {name:<32} {entry['value']:>16.6g} {entry['unit']}"
            for name, entry in self.metrics().items()
        ]

    def result_line(self, correct: bool, attempted: int, failed: int) -> str:
        """The final JSON line of the benchmark's standard output."""
        return json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": self.metrics(),
            }
        )
