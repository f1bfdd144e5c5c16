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

Controlled runs execute through the simulator's controlled replay
(bit-identical to the recursive reference engine).  With a
:class:`~repro.campaign.engine.CampaignEngine` attached, the four run
variants become ``savings``-mode campaign jobs instead — priced in
fleet shards and cacheable in the result store, bit-identical to the
in-process loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import api, config
from repro.campaign.plan import savings_jobs
from repro.errors import CampaignError
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.execution.slurm import SlurmAccounting
from repro.hardware.cluster import Cluster
from repro.readex.rrl import RRL, StaticController
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


def _averaged_runs(
    benchmark: str,
    cluster: Cluster,
    node_id: int,
    *,
    controller_factory,
    threads: int,
    instrumented: bool,
    instrumentation: Instrumentation | None,
    runs: int,
    key: str,
    seed: int,
) -> RunAverages:
    accounting = SlurmAccounting()
    cpu, job, time = [], [], []
    # One registry build serves every repetition: runs never mutate the
    # application, and no simulated quantity is keyed on object identity.
    app = registry.build(benchmark)
    for r in range(runs):
        node = cluster.fresh_node(node_id)
        node.reset_to_default()
        instr = instrumentation
        if instr is not None:
            instr = Instrumentation(app=app, filtered=set(instr.filtered))
        result = ExecutionSimulator(node, seed=seed).run(
            app,
            threads=threads,
            controller=controller_factory() if controller_factory else None,
            instrumented=instrumented,
            instrumentation=instr,
            run_key=(key, r),
        )
        record = accounting.submit(result)
        job.append(record.consumed_energy_j)
        time.append(record.elapsed_s)
        cpu.append(result.cpu_energy_j)
    return RunAverages(
        job_energy_j=float(np.mean(job)),
        cpu_energy_j=float(np.mean(cpu)),
        time_s=float(np.mean(time)),
    )


def _averaged_jobs(results, jobs) -> RunAverages:
    """Fold one variant's campaign payloads into run averages.

    ``sacct`` job energy is node energy and elapsed time is run time
    (see :meth:`~repro.execution.job.JobRecord.from_run`), so the
    payload triple reproduces the in-process accounting exactly.
    """
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
    seed: int = config.DEFAULT_SEED,
    options: api.ExecutionOptions | None = None,
) -> BenchmarkSavings:
    """Produce one Table VI row for ``benchmark``.

    With ``options.campaign``
    (:class:`~repro.campaign.engine.CampaignEngine`), the runs execute
    as ``savings``-mode campaign jobs — cached in the engine's result
    store, parallelisable and subject to the options' failure policy —
    bit-identical to the in-process loop.  ``cluster`` overrides the
    options' cluster.
    """
    options = options if options is not None else api.ExecutionOptions()
    if cluster is not None:
        options = replace(options, cluster=cluster)
    cluster = options.resolve_cluster(seed)
    if options.campaign is not None:
        return _compare_via_campaign(
            benchmark, static_config, tuning_model,
            instrumentation=instrumentation, cluster=cluster,
            node_id=node_id, runs=runs, seed=seed, options=options,
        )
    default = _averaged_runs(
        benchmark, cluster, node_id,
        controller_factory=None,
        threads=config.DEFAULT_OPENMP_THREADS,
        instrumented=False,
        instrumentation=None,
        runs=runs, key="default", seed=seed,
    )
    static = _averaged_runs(
        benchmark, cluster, node_id,
        controller_factory=lambda: StaticController(static_config),
        threads=static_config.threads,
        instrumented=False,
        instrumentation=None,
        runs=runs, key="static", seed=seed,
    )
    dynamic = _averaged_runs(
        benchmark, cluster, node_id,
        controller_factory=lambda: RRL(tuning_model),
        threads=config.DEFAULT_OPENMP_THREADS,
        instrumented=True,
        instrumentation=instrumentation,
        runs=runs, key="dynamic", seed=seed,
    )
    config_only = _averaged_runs(
        benchmark, cluster, node_id,
        controller_factory=lambda: RRL(tuning_model),
        threads=config.DEFAULT_OPENMP_THREADS,
        instrumented=False,
        instrumentation=None,
        runs=runs, key="config-only", seed=seed,
    )
    return BenchmarkSavings(
        benchmark=benchmark,
        static_config=static_config,
        default=default,
        static=static,
        dynamic=dynamic,
        config_only=config_only,
    )


def savings_campaign_jobs(
    benchmark: str,
    static_config: OperatingPoint,
    tuning_model: TuningModel,
    *,
    instrumentation: Instrumentation | None,
    node_id: int,
    runs: int,
    seed: int,
    node_seed: int,
) -> dict[str, tuple]:
    """The four Table VI run variants as campaign job batches."""
    tmm_json = tuning_model.to_json()
    filtered = (
        None
        if instrumentation is None
        else tuple(sorted(instrumentation.filtered))
    )
    common = {"runs": runs, "node_id": node_id, "seed": seed,
              "node_seed": node_seed}
    return {
        "default": savings_jobs(
            benchmark, label="default",
            threads=config.DEFAULT_OPENMP_THREADS, **common,
        ),
        "static": savings_jobs(
            benchmark, label="static", controller="static",
            core_freq_ghz=static_config.core_freq_ghz,
            uncore_freq_ghz=static_config.uncore_freq_ghz,
            threads=static_config.threads, **common,
        ),
        "dynamic": savings_jobs(
            benchmark, label="dynamic", controller="rrl",
            tuning_model=tmm_json, instrumented=True,
            filtered_regions=filtered,
            threads=config.DEFAULT_OPENMP_THREADS, **common,
        ),
        "config-only": savings_jobs(
            benchmark, label="config-only", controller="rrl",
            tuning_model=tmm_json,
            threads=config.DEFAULT_OPENMP_THREADS, **common,
        ),
    }


def _compare_via_campaign(
    benchmark: str,
    static_config: OperatingPoint,
    tuning_model: TuningModel,
    *,
    instrumentation: Instrumentation | None,
    cluster: Cluster,
    node_id: int,
    runs: int,
    seed: int,
    options: api.ExecutionOptions,
) -> BenchmarkSavings:
    from repro.campaign.engine import run_app_jobs

    campaign = options.campaign
    if campaign.topology != cluster.topology:
        # run_app_jobs lets an explicit engine's topology win, which
        # would silently simulate different physics than the caller's
        # cluster describes — and different rows than the in-process
        # loop the campaign path promises to match bit-for-bit.
        raise CampaignError(
            f"campaign engine topology {campaign.topology!r} does not "
            f"match the cluster's {cluster.topology!r}"
        )
    batches = savings_campaign_jobs(
        benchmark, static_config, tuning_model,
        instrumentation=instrumentation, node_id=node_id,
        runs=runs, seed=seed, node_seed=cluster.seed,
    )
    jobs = tuple(job for batch in batches.values() for job in batch)
    results = run_app_jobs(
        jobs, registry.build(benchmark), cluster=cluster, engine=campaign,
        on_failure=options.on_failure, retry_failed=options.retry_failed,
    )
    return BenchmarkSavings(
        benchmark=benchmark,
        static_config=static_config,
        default=_averaged_jobs(results, batches["default"]),
        static=_averaged_jobs(results, batches["static"]),
        dynamic=_averaged_jobs(results, batches["dynamic"]),
        config_only=_averaged_jobs(results, batches["config-only"]),
    )


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
    seed: int = config.DEFAULT_SEED,
    options: api.ExecutionOptions | None = None,
) -> list[BenchmarkSavings]:
    """Produce many Table VI rows from one batched campaign run.

    The multi-benchmark generalisation of
    :func:`compare_static_dynamic`: with ``options.campaign``, every
    case's four run variants go into a *single* campaign plan, so all
    benchmarks' default / static / dynamic / config-only runs share
    fleet-kernel invocations (and the
    engine's result store caches each row under its usual per-job key).
    Each returned row is bit-identical to its solo
    ``compare_static_dynamic`` call.  Without a campaign engine the
    cases simply run one at a time.
    """
    opts = options if options is not None else api.ExecutionOptions()
    if cluster is not None:
        opts = replace(opts, cluster=cluster)
    if opts.campaign is None:
        return [
            compare_static_dynamic(
                case.benchmark, case.static_config, case.tuning_model,
                instrumentation=case.instrumentation, node_id=node_id,
                runs=runs, seed=seed, options=opts,
            )
            for case in cases
        ]
    resolved_cluster = opts.resolve_cluster(seed)
    if opts.campaign.topology != resolved_cluster.topology:
        raise CampaignError(
            f"campaign engine topology {opts.campaign.topology!r} does "
            f"not match the cluster's {resolved_cluster.topology!r}"
        )
    from repro.campaign.plan import CampaignPlan

    case_batches = [
        savings_campaign_jobs(
            case.benchmark, case.static_config, case.tuning_model,
            instrumentation=case.instrumentation, node_id=node_id,
            runs=runs, seed=seed, node_seed=resolved_cluster.seed,
        )
        for case in cases
    ]
    all_jobs = tuple(
        job
        for batches in case_batches
        for batch in batches.values()
        for job in batch
    )
    results = opts.campaign.run(
        CampaignPlan(all_jobs),
        on_failure=opts.on_failure,
        retry_failed=opts.retry_failed,
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
