"""Exhaustive per-region tuning baseline (Sourouri et al. [7]).

The comparison point of Section V-C: without significant-region
detection and without an energy model, finding the best configuration
for each of ``n`` regions over a ``k x l x m`` parameter space costs
``n * k * l * m * t`` seconds of tuning time (``t`` = one application
run), against ``(k + 1 + 9) * t`` for the model-based plugin — and only
``(k + 1 + 9)`` phase iterations when the main loop is progressive.

The estimator quantifies that comparison; :class:`ExhaustiveRegionTuner`
actually executes the exhaustive search on (optionally reduced) grids so
the quality of its optima can be compared, too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.errors import TuningError
from repro.execution.simulator import OperatingPoint
from repro.hardware.cluster import Cluster
from repro.modeling.batched import predict_energy_grid
from repro.modeling.training import TrainedModel
from repro.ptf.experiments import ExperimentsEngine
from repro.ptf.objectives import ENERGY, Objective
from repro.workloads.application import Application


@dataclass(frozen=True)
class TuningTimeEstimate:
    """Tuning-time comparison of Section V-C."""

    regions: int
    thread_values: int       # k
    core_freq_values: int    # l
    uncore_freq_values: int  # m
    single_run_time_s: float # t

    @property
    def exhaustive_runs(self) -> int:
        """Sourouri et al.: n * k * l * m application runs."""
        return (
            self.regions
            * self.thread_values
            * self.core_freq_values
            * self.uncore_freq_values
        )

    @property
    def exhaustive_time_s(self) -> float:
        return self.exhaustive_runs * self.single_run_time_s

    @property
    def model_based_experiments(self) -> int:
        """The plugin: k thread experiments + 1 analysis run + 9 neighbors."""
        return self.thread_values + 1 + 9

    @property
    def model_based_time_s(self) -> float:
        return self.model_based_experiments * self.single_run_time_s

    @property
    def speedup(self) -> float:
        return self.exhaustive_time_s / self.model_based_time_s


def estimate_tuning_time(
    app: Application,
    single_run_time_s: float,
    *,
    num_regions: int | None = None,
) -> TuningTimeEstimate:
    """Build the Section V-C estimate for ``app``."""
    if single_run_time_s <= 0:
        raise TuningError("run time must be positive")
    regions = (
        num_regions
        if num_regions is not None
        else sum(1 for r in app.regions if r.has_work)
    )
    return TuningTimeEstimate(
        regions=regions,
        thread_values=len(config.OPENMP_THREAD_CANDIDATES),
        core_freq_values=len(config.CORE_FREQUENCIES_GHZ),
        uncore_freq_values=len(config.UNCORE_FREQUENCIES_GHZ),
        single_run_time_s=single_run_time_s,
    )


class ExhaustiveRegionTuner:
    """Executes the exhaustive per-region search (on reducible grids)."""

    def __init__(
        self,
        cluster: Cluster,
        *,
        node_id: int = 0,
        objective: Objective = ENERGY,
    ):
        self.cluster = cluster
        self.node_id = node_id
        self.objective = objective

    def screen_frequency_pairs(
        self,
        app: Application,
        model: TrainedModel,
        regions: tuple[str, ...],
        *,
        stride: int = 1,
        keep: int = 9,
    ) -> list[tuple[float, float]]:
        """Model-screened frequency pairs worth measuring exhaustively.

        One grid-shaped prediction per region (a single stacked forward
        pass) ranks every (CF, UCF) pair; the
        union of each region's ``keep`` best predicted pairs — in grid
        order, restricted to the strided grid — becomes the measured
        search space.  This trades the model's accuracy for a search
        that no longer scales with ``l * m``.
        """
        from repro.ptf.region_model import RegionModelTuner

        if keep < 1:
            raise TuningError("keep must be >= 1")
        tuner = RegionModelTuner(model, self.cluster, node_id=self.node_id)
        rates = tuner.measure_region_rates(app, regions)
        grid = predict_energy_grid(
            model,
            np.asarray([rates[r] for r in regions]),
            labels=regions,
        )
        strided = {
            (cf, ucf)
            for cf in config.CORE_FREQUENCIES_GHZ[::stride]
            for ucf in config.UNCORE_FREQUENCIES_GHZ[::stride]
        }
        wanted: set[tuple[float, float]] = set()
        for region in regions:
            energies = grid.row(region)
            ranked = [
                grid.points[i]
                for i in np.argsort(energies, kind="stable")
                if grid.points[i] in strided
            ]
            wanted.update(ranked[:keep])
        return [p for p in grid.points if p in wanted]

    def tune(
        self,
        app: Application,
        *,
        stride: int = 1,
        thread_counts: tuple[int, ...] | None = None,
        regions: tuple[str, ...] | None = None,
        model: TrainedModel | None = None,
        screen_keep: int = 9,
    ) -> tuple[dict[str, OperatingPoint], ExperimentsEngine]:
        """Best configuration per region via exhaustive evaluation.

        With ``model`` given, the (CF, UCF) plane is first screened by a
        grid-shaped model prediction and only the union of each region's
        ``screen_keep`` most promising pairs is measured.
        """
        if thread_counts is None:
            thread_counts = (
                config.OPENMP_THREAD_CANDIDATES
                if app.model.supports_thread_tuning
                else (app.default_threads,)
            )
        if regions is None:
            regions = tuple(c.name for c in app.phase.children if c.has_work)
        if model is not None:
            pairs = self.screen_frequency_pairs(
                app, model, regions, stride=stride, keep=screen_keep
            )
        else:
            pairs = [
                (cf, ucf)
                for cf in config.CORE_FREQUENCIES_GHZ[::stride]
                for ucf in config.UNCORE_FREQUENCIES_GHZ[::stride]
            ]
        experiments = ExperimentsEngine(self.cluster, node_id=self.node_id)
        points = [
            OperatingPoint(cf, ucf, t)
            for t in thread_counts
            for cf, ucf in pairs
        ]
        measured = experiments.evaluate_configurations(
            app, points, regions=regions, run_key=("exhaustive",)
        )
        # Vectorised per-region selection (first minimum, matching the
        # historical point-at-a-time loop bit for bit).
        best: dict[str, OperatingPoint] = {}
        for region in regions:
            candidates = [p for p in measured if region in measured[p]]
            if not candidates:
                raise TuningError(f"region {region!r} never measured")
            values = self.objective.batch(
                np.array([measured[p][region].node_energy_j for p in candidates]),
                np.array([measured[p][region].time_s for p in candidates]),
            )
            best[region] = candidates[int(np.argmin(values))]
        return best, experiments
