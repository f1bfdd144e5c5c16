"""Region-level model application (the paper's future work, Section VI).

The published plugin measures counter rates for the *phase* region and
predicts one global frequency pair, verifying a small neighborhood per
region.  The paper's outlook: "investigate the application of the model
based approach to individual significant regions.  By that regions with
a very different best configuration could be identified, e.g., IO
regions."

:class:`RegionModelTuner` implements that extension: counter rates are
measured per significant region (each region's counters normalised by
its own execution time), the network predicts a full frequency grid per
region, and regions whose predicted optimum lies far from the phase-wide
optimum are flagged as *outliers* that deserve their own verification
neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.counters.papi import preset
from repro.errors import TuningError
from repro.execution.simulator import ExecutionSimulator
from repro.hardware.cluster import Cluster
from repro.modeling.batched import predict_energy_grid
from repro.modeling.dataset import FEATURE_COUNTERS
from repro.modeling.training import TrainedModel
from repro.workloads.application import Application

#: L1 distance (GHz, CF+UCF combined) beyond which a region's predicted
#: optimum counts as an outlier vs the phase optimum.
OUTLIER_DISTANCE_GHZ = 0.5


@dataclass(frozen=True)
class RegionPrediction:
    """Model output for one significant region."""

    region: str
    rates: np.ndarray
    best_frequencies: tuple[float, float]
    predicted_energy: float

    def distance_to(self, other: tuple[float, float]) -> float:
        return abs(self.best_frequencies[0] - other[0]) + abs(
            self.best_frequencies[1] - other[1]
        )


@dataclass
class RegionModelResult:
    """Per-region predictions plus outlier classification."""

    app_name: str
    phase_prediction: RegionPrediction
    region_predictions: dict[str, RegionPrediction]

    def outliers(
        self, threshold_ghz: float = OUTLIER_DISTANCE_GHZ
    ) -> tuple[str, ...]:
        """Regions whose predicted optimum differs strongly from the
        phase optimum — candidates for dedicated verification."""
        phase_best = self.phase_prediction.best_frequencies
        return tuple(
            name
            for name, pred in self.region_predictions.items()
            if pred.distance_to(phase_best) > threshold_ghz
        )


class RegionModelTuner:
    """Applies the energy model per significant region."""

    def __init__(
        self,
        model: TrainedModel,
        cluster: Cluster,
        *,
        node_id: int = 0,
        seed: int = config.DEFAULT_SEED,
    ):
        self._model = model
        self._cluster = cluster
        self._node_id = node_id
        self._seed = seed

    # ------------------------------------------------------------------
    def measure_region_rates(
        self,
        app: Application,
        regions: tuple[str, ...],
        *,
        threads: int | None = None,
        runs: int = 3,
    ) -> dict[str, np.ndarray]:
        """Counter rates per region (counters / region time) at calibration."""
        canonical = [preset(c).name for c in FEATURE_COUNTERS]
        totals = {r: np.zeros(len(canonical)) for r in regions}
        times = {r: 0.0 for r in regions}
        wanted = set(regions) | {app.phase.name}

        class _Collect:
            def on_enter(self, region, iteration, time_s):
                pass

            def on_exit(self, region, iteration, time_s, metrics):
                if region.name in totals:
                    totals[region.name] += np.array(
                        [metrics.get(c, 0.0) for c in canonical]
                    )
                    times[region.name] += metrics["time_s"]

        for r in range(runs):
            node = self._cluster.fresh_node(self._node_id)
            node.set_frequencies(
                config.CALIBRATION_CORE_FREQ_GHZ,
                config.CALIBRATION_UNCORE_FREQ_GHZ,
            )
            ExecutionSimulator(node, seed=self._seed).run(
                app,
                threads=threads,
                listeners=(_Collect(),),
                collect_counters=True,
                run_key=("region-rates", r),
            )
        missing = [r for r in regions if times[r] <= 0]
        if missing:
            raise TuningError(f"regions never measured: {missing}")
        return {r: totals[r] / times[r] for r in regions}

    def predict_regions(
        self, rates: dict[str, np.ndarray]
    ) -> dict[str, RegionPrediction]:
        """Full-grid predictions for many regions at once: every
        (region, grid point) pair goes through the network in a single
        stacked forward pass."""
        if not rates:
            return {}
        names = tuple(rates)
        grid = predict_energy_grid(
            self._model,
            np.asarray([rates[name] for name in names]),
            labels=names,
        )
        best = grid.best()
        return {
            name: RegionPrediction(
                region=name,
                rates=rates[name],
                best_frequencies=best[name][0],
                predicted_energy=best[name][1],
            )
            for name in names
        }

    def predict_region(self, region: str, rates: np.ndarray) -> RegionPrediction:
        """Full-grid prediction for one region's rates."""
        return self.predict_regions({region: rates})[region]

    def tune(
        self,
        app: Application,
        regions: tuple[str, ...],
        *,
        threads: int | None = None,
    ) -> RegionModelResult:
        """Predict per-region optima and classify outliers."""
        if not regions:
            raise TuningError("no regions to tune")
        rates = self.measure_region_rates(app, regions, threads=threads)
        # One grid-shaped prediction covers every significant region.
        region_predictions = self.predict_regions(rates)
        # Phase rates = time-weighted view of the whole iteration; measure
        # through the phase record the plugin already uses.
        phase_rates = self.measure_region_rates(
            app, (app.phase.name,), threads=threads
        )[app.phase.name]
        phase_prediction = self.predict_region(app.phase.name, phase_rates)
        return RegionModelResult(
            app_name=app.name,
            phase_prediction=phase_prediction,
            region_predictions=region_predictions,
        )
