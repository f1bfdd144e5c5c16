"""The Table VI comparison on the recursive simulator engine.

:func:`repro.analysis.savings.compare_static_dynamic` runs the four
variants (default, static, dynamic, config-only) through the
controlled-replay fast path.  This oracle runs the same repetitions
with ``fast_path=False`` — the recursive engine every replay kernel is
bit-identical to.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.analysis.savings import BenchmarkSavings, RunAverages
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.execution.slurm import SlurmAccounting
from repro.hardware.cluster import Cluster
from repro.readex.rrl import RRL, StaticController
from repro.readex.tuning_model import TuningModel
from repro.scorep.instrumentation import Instrumentation
from repro.workloads import registry


def _averaged_runs(
    benchmark, cluster, node_id, *, controller_factory, threads,
    instrumented, instrumentation, runs, key, seed,
) -> RunAverages:
    accounting = SlurmAccounting()
    cpu, job, time = [], [], []
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
            fast_path=False,
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


def recursive_savings(
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
    """One Table VI row, every run on the recursive engine."""
    cluster = cluster if cluster is not None else Cluster(2, seed=seed)
    common = dict(runs=runs, seed=seed)
    default_threads = config.DEFAULT_OPENMP_THREADS
    return BenchmarkSavings(
        benchmark=benchmark,
        static_config=static_config,
        default=_averaged_runs(
            benchmark, cluster, node_id, controller_factory=None,
            threads=default_threads, instrumented=False,
            instrumentation=None, key="default", **common,
        ),
        static=_averaged_runs(
            benchmark, cluster, node_id,
            controller_factory=lambda: StaticController(static_config),
            threads=static_config.threads, instrumented=False,
            instrumentation=None, key="static", **common,
        ),
        dynamic=_averaged_runs(
            benchmark, cluster, node_id,
            controller_factory=lambda: RRL(tuning_model),
            threads=default_threads, instrumented=True,
            instrumentation=instrumentation, key="dynamic", **common,
        ),
        config_only=_averaged_runs(
            benchmark, cluster, node_id,
            controller_factory=lambda: RRL(tuning_model),
            threads=default_threads, instrumented=False,
            instrumentation=None, key="config-only", **common,
        ),
    )
