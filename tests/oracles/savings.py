"""The Table VI comparison as a per-run loop.

:func:`repro.analysis.savings.compare_static_dynamic` prices the four
variants (default, static, dynamic, config-only) as one campaign plan
in fleet shards.  These references run the same repetitions one
simulator run at a time through ``sacct`` accounting:
:func:`recursive_savings` on the recursive engine
(:func:`tests.oracles.engine.recursive_run`) every replay kernel is
bit-identical to, with the static variant under the oracle
:class:`~tests.oracles.static.StaticController`, and
:func:`loop_savings` through the production
:meth:`~repro.execution.simulator.ExecutionSimulator.run` (a fleet of
one per run), with the static variant in its production form.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.analysis.savings import BenchmarkSavings, RunAverages
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.execution.slurm import SlurmAccounting
from repro.hardware.cluster import Cluster
from repro.readex.rrl import RRL
from repro.readex.tuning_model import TuningModel
from repro.scorep.instrumentation import Instrumentation
from repro.workloads import registry
from tests.oracles.engine import recursive_run
from tests.oracles.static import StaticController, static_tuning_model


def _averaged_runs(
    run, benchmark, cluster, node_id, *, controller_factory, threads,
    instrumented, instrumentation, runs, key, seed,
) -> RunAverages:
    """One variant's averages over ``runs`` fresh-node runs of
    ``run(node, app, seed=..., **run_kwargs)``."""
    accounting = SlurmAccounting()
    cpu, job, time = [], [], []
    app = registry.build(benchmark)
    for r in range(runs):
        node = cluster.fresh_node(node_id)
        node.reset_to_default()
        instr = instrumentation
        if instr is not None:
            instr = Instrumentation(app=app, filtered=set(instr.filtered))
        result = run(
            node,
            app,
            seed=seed,
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


def _loop_savings(
    run,
    static_controller,
    benchmark: str,
    static_config: OperatingPoint,
    tuning_model: TuningModel,
    *,
    instrumentation: Instrumentation | None = None,
    cluster: Cluster | None = None,
    node_id: int = 0,
    runs: int = 5,
    seed: int = config.DEFAULT_SEED,
) -> BenchmarkSavings:
    cluster = cluster if cluster is not None else Cluster(2, seed=seed)
    common = dict(runs=runs, seed=seed)
    default_threads = config.DEFAULT_OPENMP_THREADS
    return BenchmarkSavings(
        benchmark=benchmark,
        static_config=static_config,
        default=_averaged_runs(
            run, benchmark, cluster, node_id, controller_factory=None,
            threads=default_threads, instrumented=False,
            instrumentation=None, key="default", **common,
        ),
        static=_averaged_runs(
            run, benchmark, cluster, node_id,
            controller_factory=static_controller,
            threads=static_config.threads, instrumented=False,
            instrumentation=None, key="static", **common,
        ),
        dynamic=_averaged_runs(
            run, benchmark, cluster, node_id,
            controller_factory=lambda: RRL(tuning_model),
            threads=default_threads, instrumented=True,
            instrumentation=instrumentation, key="dynamic", **common,
        ),
        config_only=_averaged_runs(
            run, benchmark, cluster, node_id,
            controller_factory=lambda: RRL(tuning_model),
            threads=default_threads, instrumented=False,
            instrumentation=None, key="config-only", **common,
        ),
    )


def _simulator_run(node, app, *, seed, **kwargs):
    return ExecutionSimulator(node, seed=seed).run(app, **kwargs)


def recursive_savings(
    benchmark: str, static_config: OperatingPoint, *args, **kwargs
) -> BenchmarkSavings:
    """One Table VI row, every run on the recursive engine
    (:func:`compare_static_dynamic`'s arguments, minus ``options``); the
    static variant runs the oracle :class:`StaticController`."""
    return _loop_savings(
        recursive_run,
        lambda: StaticController(static_config),
        benchmark, static_config, *args, **kwargs,
    )


def loop_savings(
    benchmark: str, static_config: OperatingPoint, *args, **kwargs
) -> BenchmarkSavings:
    """One Table VI row, one production simulator run at a time; the
    static variant runs the RRL under one default-only tuning model, as
    the campaign engine does."""
    static_model = static_tuning_model(registry.build(benchmark), static_config)
    return _loop_savings(
        _simulator_run,
        lambda: RRL(static_model),
        benchmark, static_config, *args, **kwargs,
    )
