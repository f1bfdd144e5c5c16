"""Metric names, units and the helpers that turn measurements into them.

End-to-end metrics are printed by every run with ``--trace 0``, on
every workload; per-layer metrics by every run with ``--trace 1``.  A
layer that a workload does not exercise reports 0.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

#: name -> unit, for the end-to-end metrics.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "ok_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: name -> unit, for the per-layer metrics.
PER_LAYER: dict[str, str] = {
    "modeling.build_dataset_s": "s",
    "modeling.select_counters_s": "s",
    "modeling.train_s": "s",
    "modeling.train_samples_per_s": "1/s",
    "modeling.loocv_s": "s",
    "ptf.dta_s": "s",
    "ptf.static_search_s": "s",
    "analysis.savings_s": "s",
    "campaign.jobs_executed": "count",
    "campaign.jobs_cached": "count",
    "campaign.hit_ratio": "ratio",
    "campaign.store_bytes": "bytes",
    "campaign.recall_pass_s": "s",
    "campaign.store_get_s": "s",
    "campaign.store_gets": "count",
    "campaign.store_put_s": "s",
    "campaign.store_puts": "count",
    "execution.fleet_run_s": "s",
    "execution.sim_runs": "count",
    "execution.sim_s": "s",
    "serve.hit_ratio": "ratio",
    "serve.requests_per_group": "count",
    "serve.inflight_joins": "count",
    "serve.errors": "count",
    "serve.execute_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.tail_ms": "ms",
    "serve.generator_lag_ms": "ms",
    "serve.final_backlog": "count",
    "trace.overhead_p50_ms": "ms",
}

#: Traced entry points: span name -> per-layer metric stems.
WRAPPED_SPANS = {
    "campaign.store_get": ("campaign.store_get_s", "campaign.store_gets"),
    "campaign.store_put": ("campaign.store_put_s", "campaign.store_puts"),
    "execution.fleet_run": ("execution.fleet_run_s", None),
    "execution.sim_run": ("execution.sim_s", "execution.sim_runs"),
}


@dataclass
class WorkloadResult:
    """What one workload run measured, before it becomes metrics."""

    #: Seconds of each set-up repetition (import time is added later).
    setup_s: list[float] = field(default_factory=list)
    #: Latency of every ok operation, seconds.
    latencies_s: list[float] = field(default_factory=list)
    ok: int = 0
    attempted: int = 0
    failed: int = 0
    window_s: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, passed: bool, what: str) -> None:
        """Count one output check as an operation."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.notes.append(f"FAILED check: {what}")


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile
    with at least ten samples beyond it; the maximum of fewer than
    eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process, plus what its largest
    waited-for child (a pool worker) held beyond that peak, in MB.

    Pool workers are forked, so a worker's resident set counts the
    parent pages it inherited; only its excess over the parent's peak
    is its own.  ``ru_maxrss`` is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + max(0, children - own)) * 1024 / 1e6


def store_bytes(store_path: Path) -> int:
    """On-disk size of a store, side files (WAL, index) included."""
    return sum(
        p.stat().st_size
        for p in store_path.parent.glob(store_path.name + "*")
        if p.is_file()
    )


def wrapped_layers(tracer, passes: int) -> dict[str, float]:
    """Per-pass totals of the traced entry points."""
    passes = max(1, passes)
    layers: dict[str, float] = {}
    for span, (seconds_name, count_name) in WRAPPED_SPANS.items():
        spans = tracer.named(span)
        layers[seconds_name] = sum(s.seconds for s in spans) / passes
        if count_name is not None:
            layers[count_name] = len(spans) / passes
    return layers
