"""Static vs dynamic tuning comparison (Table VI, Sections V-D and V-E).

For one benchmark:

* the **default** run: uninstrumented, platform default 2.5|3.0 GHz,
  24 threads — job energy and time via ``sacct``, CPU energy via
  ``measure-rapl``;
* the **static** run: same, with the best static configuration applied
  before launch;
* the **dynamic** run: instrumented binary under the RRL with the tuning
  model — includes configuration effects, switching latencies and
  Score-P overhead;
* the **config-setting** run: RRL switching but uninstrumented,
  isolating the performance reduction caused purely by the tuned
  configurations (the "perf. reduction config setting" column);

savings are computed relative to the default run and averaged over
``runs`` repetitions (the paper averages over five).

The four run variants are ``savings``-mode campaign jobs, priced in
fleet shards by one :class:`~repro.campaign.engine.CampaignEngine` —
the options' engine, whose result store caches them, or a store-less
one — and bit-identical to a per-run loop of controlled simulator runs
(the reference in ``tests/oracles/savings.py``).  ``sacct`` job energy
is node energy and elapsed time is run time
(:meth:`~repro.execution.job.JobRecord.from_run`), so the payload
triple reproduces the batch system's accounting exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import api
from repro.campaign.plan import savings_campaign_jobs
from repro.execution.simulator import OperatingPoint
from repro.hardware.cluster import Cluster
from repro.readex.tuning_model import TuningModel
from repro.scorep.instrumentation import Instrumentation
from repro.workloads import registry

@dataclass(frozen=True)
class RunAverages:
    """Mean job energy / CPU energy / time over repeated runs."""

    job_energy_j: float
    cpu_energy_j: float
    time_s: float


@dataclass(frozen=True)
class BenchmarkSavings:
    """One Table VI row."""

    benchmark: str
    static_config: OperatingPoint
    default: RunAverages
    static: RunAverages
    dynamic: RunAverages
    config_only: RunAverages

    # -- static tuning savings -------------------------------------------
    @property
    def static_job_energy_saving(self) -> float:
        return 1.0 - self.static.job_energy_j / self.default.job_energy_j

    @property
    def static_cpu_energy_saving(self) -> float:
        return 1.0 - self.static.cpu_energy_j / self.default.cpu_energy_j

    @property
    def static_time_saving(self) -> float:
        return 1.0 - self.static.time_s / self.default.time_s

    # -- dynamic tuning savings -------------------------------------------
    @property
    def dynamic_job_energy_saving(self) -> float:
        return 1.0 - self.dynamic.job_energy_j / self.default.job_energy_j

    @property
    def dynamic_cpu_energy_saving(self) -> float:
        return 1.0 - self.dynamic.cpu_energy_j / self.default.cpu_energy_j

    @property
    def dynamic_time_saving(self) -> float:
        """Negative when dynamic tuning slows the application down."""
        return 1.0 - self.dynamic.time_s / self.default.time_s

    @property
    def config_setting_perf_reduction(self) -> float:
        """Time increase caused by the tuned configurations alone."""
        return 1.0 - self.config_only.time_s / self.default.time_s

    @property
    def overhead(self) -> float:
        """Residual DVFS/UFS/Score-P overhead: total slowdown minus the
        configuration-setting part (both negative when costing time)."""
        return self.dynamic_time_saving - self.config_setting_perf_reduction


def _averaged_jobs(results, jobs) -> RunAverages:
    """Fold one variant's campaign payloads into run averages."""
    payloads = [results[job] for job in jobs]
    return RunAverages(
        job_energy_j=float(np.mean([p["node_energy_j"] for p in payloads])),
        cpu_energy_j=float(np.mean([p["cpu_energy_j"] for p in payloads])),
        time_s=float(np.mean([p["time_s"] for p in payloads])),
    )


def compare_static_dynamic(
    benchmark: str,
    static_config: OperatingPoint,
    tuning_model: TuningModel,
    *,
    instrumentation: Instrumentation | None = None,
    cluster: Cluster | None = None,
    node_id: int = 0,
    runs: int = 5,
    options: api.ExecutionOptions | None = None,
) -> BenchmarkSavings:
    """Produce one Table VI row for ``benchmark``:
    :func:`compare_static_dynamic_many` of this one case."""
    case = SavingsCase(benchmark, static_config, tuning_model, instrumentation)
    return compare_static_dynamic_many(
        [case], cluster=cluster, node_id=node_id, runs=runs, options=options
    )[0]


@dataclass(frozen=True)
class SavingsCase:
    """One Table VI row's inputs, as a value — the unit
    :func:`compare_static_dynamic_many` batches over."""

    benchmark: str
    static_config: OperatingPoint
    tuning_model: TuningModel
    instrumentation: Instrumentation | None = None


def compare_static_dynamic_many(
    cases: "list[SavingsCase] | tuple[SavingsCase, ...]",
    *,
    cluster: Cluster | None = None,
    node_id: int = 0,
    runs: int = 5,
    options: api.ExecutionOptions | None = None,
) -> list[BenchmarkSavings]:
    """Produce many Table VI rows from one batched campaign run.

    Every case's four run variants go into a *single* campaign plan, so
    all benchmarks' default / static / dynamic / config-only runs share
    fleet-kernel invocations.  With ``options.campaign`` the engine's
    result store caches each run under its usual per-job key, and the
    options' failure policy applies to them.  Each returned row is
    bit-identical to its solo :func:`compare_static_dynamic` call.
    The runs go to :func:`~repro.api.bind_cluster`'s cluster.
    """
    options, cluster = api.bind_cluster(options, cluster)
    cluster.check_node_id(node_id)
    case_batches = []
    for case in cases:
        registry.check_name(case.benchmark)
        case_batches.append(
            savings_campaign_jobs(
                case.benchmark, case.static_config, case.tuning_model,
                instrumentation=case.instrumentation, runs=runs,
                node_id=node_id, seed=cluster.seed,
            )
        )
    results = options.run_jobs(
        [
            job
            for batches in case_batches
            for batch in batches.values()
            for job in batch
        ],
        cluster,
    )
    return [
        BenchmarkSavings(
            benchmark=case.benchmark,
            static_config=case.static_config,
            default=_averaged_jobs(results, batches["default"]),
            static=_averaged_jobs(results, batches["static"]),
            dynamic=_averaged_jobs(results, batches["dynamic"]),
            config_only=_averaged_jobs(results, batches["config-only"]),
        )
        for case, batches in zip(cases, case_batches)
    ]
