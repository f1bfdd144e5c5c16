"""Tuning-time comparison (Section V-C).

Quantifies the search-space reduction: the exhaustive per-region
approach of Sourouri et al. [7] needs ``n * k * l * m`` application runs,
the model-based plugin needs ``k + 1 + 9`` experiments — and when the
main loop is progressive, those experiments are phase *iterations*, not
whole application runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import api, config
from repro.campaign.plan import grid_jobs
from repro.execution.simulator import OperatingPoint
from repro.hardware.cluster import Cluster
from repro.ptf.exhaustive_plugin import TuningTimeEstimate, estimate_tuning_time
from repro.workloads import registry


@dataclass(frozen=True)
class TuningTimeComparison:
    """Measured + estimated tuning times for one benchmark."""

    benchmark: str
    single_run_time_s: float
    phase_time_s: float
    estimate: TuningTimeEstimate
    #: model-based cost when each experiment is one phase iteration.
    model_based_phase_time_s: float

    @property
    def exhaustive_time_s(self) -> float:
        return self.estimate.exhaustive_time_s

    @property
    def model_based_run_time_s(self) -> float:
        return self.estimate.model_based_time_s

    @property
    def speedup_over_exhaustive(self) -> float:
        return self.estimate.speedup

    @property
    def phase_exploitation_speedup(self) -> float:
        """Extra factor from evaluating per phase iteration."""
        return self.model_based_run_time_s / self.model_based_phase_time_s


def tuning_time_comparison(
    benchmark: str = "Mcb",
    *,
    cluster: Cluster | None = None,
    node_id: int = 0,
    num_regions: int | None = None,
) -> TuningTimeComparison:
    """Build the Section V-C comparison from a measured run time.

    The reference run is a one-cell ``tuning-time`` grid job at the
    calibration point on ``cluster`` (default ``Cluster(2)``), measured
    through a store-less campaign engine.
    """
    cluster = cluster or Cluster(2)
    cluster.check_node_id(node_id)
    app = registry.build(benchmark)
    calibration = OperatingPoint(
        config.CALIBRATION_CORE_FREQ_GHZ,
        config.CALIBRATION_UNCORE_FREQ_GHZ,
        app.default_threads,
    )
    jobs = grid_jobs(
        benchmark, label="tuning-time", points=[calibration], node_id=node_id,
        seed=cluster.seed,
    )
    (run_time_s,) = api.ExecutionOptions().run_jobs(jobs, cluster)[jobs[0]]["time_s"]
    phase_time = run_time_s / app.phase_iterations
    if num_regions is None:
        num_regions = len(app.candidate_regions)
    estimate = estimate_tuning_time(app, run_time_s, num_regions=num_regions)
    return TuningTimeComparison(
        benchmark=benchmark,
        single_run_time_s=run_time_s,
        phase_time_s=phase_time,
        estimate=estimate,
        model_based_phase_time_s=estimate.model_based_experiments * phase_time,
    )
