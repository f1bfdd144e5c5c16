"""Static tuning baseline (Table V).

The best *single* configuration for the whole application, found by
exhaustively running the benchmark at every OpenMP thread count, core
frequency and uncore frequency and selecting the minimum-energy run
(Section V-D).  ``stride`` thins the frequency grids when an approximate
answer is enough (tests); the benchmarks run the full grid.

The sweep executes through the :mod:`repro.campaign` engine: the full
grid is submitted as one plan of per-(threads, CF) **row jobs**, each
replaying its whole UCF axis in one pass through the fleet kernel
(:mod:`repro.execution.fleet_replay`).  The row jobs are priced in
fleet shards and — when the engine carries a result store — warm
re-runs select the best point without a single new simulation.  The
winning point is selected with one vectorised objective evaluation
over the whole grid, and :func:`select_static_configurations` offers
the model-predicted counterpart: static configurations for a whole
workload suite from one batched grid prediction, with zero sweep
simulations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.campaign.engine import run_app_jobs
from repro.campaign.plan import grid_cells, static_operating_points, static_search_jobs
from repro.errors import TuningError
from repro.execution.simulator import OperatingPoint
from repro.hardware.cluster import Cluster
from repro.modeling.batched import predict_energy_grid
from repro.modeling.training import TrainedModel
from repro.ptf.objectives import ENERGY, Objective
from repro.workloads.application import Application


@dataclass(frozen=True)
class ModelStaticSelection:
    """Model-predicted static configuration for one benchmark series."""

    app_name: str
    threads: int
    best: OperatingPoint
    predicted_energy: float


def select_static_configurations(
    model: TrainedModel,
    series_rates: dict[tuple[str, int], np.ndarray],
) -> dict[tuple[str, int], ModelStaticSelection]:
    """Predict the energy-optimal static (CF, UCF) for many series at once.

    ``series_rates`` maps ``(benchmark, threads)`` to the calibration
    counter-rate vector of that series (the layout of
    :attr:`~repro.modeling.dataset.EnergyDataset.counter_rates`).  The
    model predicts normalized energy over the full core x uncore grid
    for every series in one stacked forward pass for the whole workload
    suite, and the argmin becomes the predicted static configuration.
    No simulation runs are involved.
    """
    if not series_rates:
        return {}
    labels = tuple(series_rates)
    grid = predict_energy_grid(
        model,
        np.asarray([series_rates[label] for label in labels]),
        labels=labels,
    )
    best = grid.best()
    return {
        (name, threads): ModelStaticSelection(
            app_name=name,
            threads=threads,
            best=OperatingPoint(point[0], point[1], threads),
            predicted_energy=energy,
        )
        for (name, threads), (point, energy) in best.items()
    }


@dataclass(frozen=True)
class StaticTuningResult:
    """Outcome of the exhaustive static search."""

    app_name: str
    best: OperatingPoint
    best_energy_j: float
    best_time_s: float
    default_energy_j: float
    default_time_s: float
    configurations_tried: int

    @property
    def energy_saving(self) -> float:
        """Fractional node-energy saving vs the platform default."""
        return 1.0 - self.best_energy_j / self.default_energy_j


def exhaustive_static_search(
    app: Application,
    cluster: Cluster,
    *,
    node_id: int = 0,
    objective: Objective = ENERGY,
    stride: int = 1,
    thread_counts: tuple[int, ...] | None = None,
    options: "api.ExecutionOptions | None" = None,
) -> StaticTuningResult:
    """Run the full static sweep and return the best configuration.

    ``options.campaign`` attaches the campaign engine that shards and
    caches the row jobs; its ``on_failure``/``retry_failed`` policy
    applies to them.
    """
    from repro import api

    if stride < 1:
        raise TuningError("stride must be >= 1")
    options = options if options is not None else api.ExecutionOptions()
    points = static_operating_points(
        app, stride=stride, thread_counts=thread_counts
    )
    default_point = OperatingPoint(
        config.DEFAULT_CORE_FREQ_GHZ,
        config.DEFAULT_UNCORE_FREQ_GHZ,
        config.DEFAULT_OPENMP_THREADS,
    )
    cluster.check_node_id(node_id)
    jobs = static_search_jobs(
        app,
        stride=stride,
        thread_counts=thread_counts,
        node_id=node_id,
        seed=cluster.seed,
    )
    results = run_app_jobs(
        jobs,
        app,
        cluster=cluster,
        engine=options.campaign,
        on_failure=options.on_failure,
        retry_failed=options.retry_failed,
    )
    energy_of = grid_cells(jobs, results, "node_energy_j")
    time_of = grid_cells(jobs, results, "time_s")
    energies = np.array([energy_of[p] for p in points])
    times = np.array([time_of[p] for p in points])

    # Vectorised selection: one objective evaluation + argmin over the
    # whole grid (first minimum, like the historical point loop).
    values = objective.batch(energies, times)
    best = int(np.argmin(values))
    default = points.index(default_point)
    return StaticTuningResult(
        app_name=app.name,
        best=points[best],
        best_energy_j=float(energies[best]),
        best_time_s=float(times[best]),
        default_energy_j=float(energies[default]),
        default_time_s=float(times[default]),
        configurations_tried=len(points),
    )
