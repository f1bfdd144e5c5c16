"""Per-cell reference loops for the grid-shaped analyses.

Each function measures one configuration at a time on a fresh node
with the canonical noise key of its production counterpart — the
loops the sweep and fleet replay kernels replaced.  Production results
must equal these to the bit.
"""

from __future__ import annotations

import numpy as np

from repro import api, config
from repro.analysis.heatmap import EnergyHeatmap
from repro.analysis.tradeoffs import TradeoffPoint
from repro.analysis.variability import VariabilityStudy
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.hardware.cluster import Cluster
from repro.workloads import registry


def _fresh_run(cluster, node_id, cf, ucf, app, *, seed, threads, run_key):
    node = cluster.fresh_node(node_id)
    node.set_frequencies(cf, ucf)
    return ExecutionSimulator(node, seed=seed).run(
        app, threads=threads, run_key=run_key
    )


def loop_grid(
    benchmark: str,
    *,
    threads: int | None = None,
    stride: int = 1,
    node_id: int = 0,
    seed: int = config.DEFAULT_SEED,
    cluster: Cluster | None = None,
) -> api.GridMeasurement:
    """:func:`repro.api.sweep_grid`, one fresh-node run per cell."""
    app = registry.build(benchmark)
    if threads is None:
        threads = app.default_threads
    cfs, ucfs = api.grid_axes(stride)
    cluster = cluster if cluster is not None else Cluster(2, seed=seed)
    cluster.check_node_id(node_id)
    shape = (len(cfs), len(ucfs))
    energies, cpu, times = np.empty(shape), np.empty(shape), np.empty(shape)
    for i, cf in enumerate(cfs):
        for j, ucf in enumerate(ucfs):
            run = _fresh_run(
                cluster, node_id, cf, ucf, app,
                seed=seed, threads=threads, run_key=("heatmap", cf, ucf),
            )
            energies[i, j] = run.node_energy_j
            cpu[i, j] = run.cpu_energy_j
            times[i, j] = run.time_s
    return api.GridMeasurement(
        benchmark=benchmark,
        threads=threads,
        node_id=node_id,
        seed=seed,
        core_frequencies=cfs,
        uncore_frequencies=ucfs,
        node_energy_j=energies,
        cpu_energy_j=cpu,
        time_s=times,
    )


def loop_heatmap(
    benchmark: str,
    *,
    threads: int,
    cluster: Cluster | None = None,
    node_id: int = 0,
    selected: tuple[float, float] | None = None,
    seed: int = config.DEFAULT_SEED,
) -> EnergyHeatmap:
    """:func:`repro.analysis.heatmap.energy_heatmap` over :func:`loop_grid`."""
    grid = loop_grid(
        benchmark, threads=threads, node_id=node_id, seed=seed, cluster=cluster
    )
    return EnergyHeatmap.from_grid(grid, selected)


def loop_tradeoff(
    benchmark: str,
    configurations: list[OperatingPoint],
    *,
    cluster: Cluster | None = None,
    node_id: int = 0,
    seed: int = config.DEFAULT_SEED,
) -> list[TradeoffPoint]:
    """:func:`repro.analysis.tradeoffs.energy_time_tradeoff`, per config."""
    cluster = cluster if cluster is not None else Cluster(2, seed=seed)
    cluster.check_node_id(node_id)
    default_point = OperatingPoint()
    points = list(configurations)
    if default_point not in points:
        points.insert(0, default_point)
    outcomes: dict[OperatingPoint, tuple[float, float]] = {}
    for point in points:
        run = _fresh_run(
            cluster, node_id, point.core_freq_ghz, point.uncore_freq_ghz,
            registry.build(benchmark),
            seed=seed, threads=point.threads, run_key=("tradeoff", str(point)),
        )
        outcomes[point] = (run.time_s, run.node_energy_j)
    t0, e0 = outcomes[default_point]
    return [
        TradeoffPoint(
            configuration=point, relative_time=t / t0, relative_energy=e / e0
        )
        for point, (t, e) in outcomes.items()
    ]


def loop_variability(
    benchmark: str = "Lulesh",
    *,
    axis: str = "core",
    nodes: tuple[int, ...] = (0, 1, 2, 3),
    threads: int = config.DEFAULT_OPENMP_THREADS,
    cluster: Cluster | None = None,
    seed: int = config.DEFAULT_SEED,
) -> VariabilityStudy:
    """:func:`repro.analysis.variability.variability_study`, one simulator
    pass per (node, point) plus a separate calibration run per node when
    the axis misses the calibration point."""
    cal = (config.CALIBRATION_CORE_FREQ_GHZ, config.CALIBRATION_UNCORE_FREQ_GHZ)
    if axis == "core":
        frequencies = config.CORE_FREQUENCIES_GHZ
        points = [(cf, cal[1]) for cf in frequencies]
    else:
        frequencies = config.UNCORE_FREQUENCIES_GHZ
        points = [(cal[0], ucf) for ucf in frequencies]
    cluster = cluster or Cluster(max(nodes) + 1, seed=seed)
    raw: dict[int, np.ndarray] = {}
    normalized: dict[int, np.ndarray] = {}
    for node_id in nodes:
        series = [
            _fresh_run(
                cluster, node_id, cf, ucf, registry.build(benchmark),
                seed=seed, threads=threads,
                run_key=("variability", axis, cf, ucf),
            ).node_energy_j
            for cf, ucf in points
        ]
        if cal in points:
            cal_energy = series[points.index(cal)]
        else:
            cal_energy = _fresh_run(
                cluster, node_id, *cal, registry.build(benchmark),
                seed=seed, threads=threads, run_key=("variability-cal",),
            ).node_energy_j
        raw[node_id] = np.asarray(series)
        normalized[node_id] = np.asarray(series) / cal_energy
    return VariabilityStudy(
        benchmark=benchmark,
        axis=axis,
        frequencies=frequencies,
        raw_energy_j=raw,
        normalized_energy=normalized,
    )
