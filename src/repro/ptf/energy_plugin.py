"""The paper's model-based energy tuning plugin (Sections III & IV).

Four-step workflow (Figure 1):

1. *Pre-processing* (outside the plugin): instrumentation, filtering,
   phase annotation, ``readex-dyn-detect`` — the plugin receives the
   resulting :class:`~repro.readex.config_file.ReadexConfig`.
2. *Tuning step 1 — OpenMP threads*: exhaustive search over the thread
   candidates; the energy-optimal count is determined for the phase
   region and for each significant region.
3. *Tuning step 2 — core/uncore frequency*: the phase region's PAPI
   counter rates are measured at the calibration point; the neural
   network predicts normalized energy for **all** CF x UCF combinations
   in one shot; the argmin becomes the *global* frequency pair.
4. *Verification + tuning-model generation*: the immediate neighborhood
   of the global pair (<= 9 configurations) is evaluated per phase
   iteration; each significant region picks its best; regions with equal
   configurations are grouped into scenarios and written to the TMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.counters.papi import preset
from repro.errors import TuningError
from repro.execution.simulator import OperatingPoint
from repro.modeling.batched import predict_energy_grid
from repro.modeling.dataset import FEATURE_COUNTERS, measure_counter_rates
from repro.modeling.training import TrainedModel
from repro.ptf.experiments import ExperimentsEngine, RegionMeasurement
from repro.ptf.objectives import Objective, get_objective
from repro.ptf.plugin import TuningContext, TuningPluginInterface
from repro.ptf.search import neighborhood


@dataclass
class PluginResult:
    """Everything the plugin learned about one application."""

    app_name: str
    phase_threads: int
    region_threads: dict[str, int]
    counter_rates: np.ndarray
    predicted_grid: dict[tuple[float, float], float]
    global_frequencies: tuple[float, float]
    phase_configuration: OperatingPoint
    region_configurations: dict[str, OperatingPoint]
    experiments_performed: int
    application_runs: int
    tuning_time_s: float

    @property
    def best_configs_for_tmm(self) -> dict[str, OperatingPoint]:
        configs = dict(self.region_configurations)
        configs["phase"] = self.phase_configuration
        return configs


class EnergyTuningPlugin(TuningPluginInterface):
    """The model-based DVFS/UFS/OpenMP tuning plugin.

    Parameters
    ----------
    model:
        The trained energy network (with its scaler).
    hill_climb_steps:
        1 reproduces the paper exactly (one neighborhood verification
        round).  Larger values enable the greedy-descent extension: when
        the measured optimum lies on the neighborhood rim, the search
        re-centers and verifies again, recovering from model argmin
        errors larger than one frequency step at a cost of at most 9
        extra experiments per round.
    """

    def __init__(
        self,
        model: TrainedModel,
        *,
        hill_climb_steps: int = 1,
    ):
        if hill_climb_steps < 1:
            raise TuningError("hill_climb_steps must be >= 1")
        self._hill_climb_steps = hill_climb_steps
        self._model = model
        self._context: TuningContext | None = None
        self._engine: ExperimentsEngine | None = None
        self._objective: Objective | None = None
        self._result: PluginResult | None = None

    # -- TuningPluginInterface --------------------------------------------
    def initialize(self, context: TuningContext) -> None:
        self._context = context
        self._engine = ExperimentsEngine(
            context.cluster, node_id=context.node_id
        )
        self._objective = get_objective(context.objective_name)

    def run_tuning_steps(self) -> None:
        ctx = self._require_context()
        phase_threads, region_threads = self._tune_openmp_threads()
        rates, grid, global_freqs = self._predict_frequencies(phase_threads)
        phase_cfg, region_cfgs = self._verify_neighborhood(
            global_freqs, phase_threads, region_threads
        )
        engine = self._engine
        self._result = PluginResult(
            app_name=ctx.app.name,
            phase_threads=phase_threads,
            region_threads=region_threads,
            counter_rates=rates,
            predicted_grid=grid,
            global_frequencies=global_freqs,
            phase_configuration=phase_cfg,
            region_configurations=region_cfgs,
            experiments_performed=engine.experiments_performed,
            application_runs=engine.application_runs,
            tuning_time_s=engine.tuning_time_s,
        )

    def get_optimum(self) -> dict[str, OperatingPoint]:
        return dict(self.result.region_configurations)

    @property
    def experiments_performed(self) -> int:
        return self._require_engine().experiments_performed

    @property
    def result(self) -> PluginResult:
        if self._result is None:
            raise TuningError("plugin has not run its tuning steps yet")
        return self._result

    # -- Step 1: exhaustive OpenMP threads ---------------------------------
    def _thread_candidates(self) -> tuple[int, ...]:
        ctx = self._require_context()
        cfg = ctx.readex_config
        lo, step = cfg.thread_lower_bound, cfg.thread_step
        hi = config.CORES_PER_NODE
        return tuple(range(lo, hi + 1, step))

    def _tune_openmp_threads(self) -> tuple[int, dict[str, int]]:
        ctx = self._require_context()
        significant = ctx.readex_config.significant_names
        if not ctx.app.model.supports_thread_tuning:
            t = ctx.app.default_threads
            return t, {name: t for name in significant}
        candidates = self._thread_candidates()
        points = [
            OperatingPoint(
                core_freq_ghz=config.CALIBRATION_CORE_FREQ_GHZ,
                uncore_freq_ghz=config.CALIBRATION_UNCORE_FREQ_GHZ,
                threads=t,
            )
            for t in candidates
        ]
        measured = self._require_engine().evaluate_configurations(
            ctx.app, points, run_key=("omp-step",)
        )
        phase_best = self._argmin_region(measured, ctx.app.phase.name)
        region_threads = {
            name: self._argmin_region(measured, name).threads
            for name in significant
        }
        return phase_best.threads, region_threads

    def _argmin_region(
        self,
        measured: dict[OperatingPoint, dict[str, RegionMeasurement]],
        region: str,
    ) -> OperatingPoint:
        objective = self._objective or get_objective("energy")
        best_point, best_value = None, float("inf")
        for point, regions in measured.items():
            m = regions.get(region)
            if m is None:
                continue
            value = objective(m.node_energy_j, m.time_s)
            if value < best_value:
                best_point, best_value = point, value
        if best_point is None:
            raise TuningError(f"region {region!r} never measured")
        return best_point

    # -- Step 2: model-predicted global CF/UCF ------------------------------
    def _predict_frequencies(
        self, phase_threads: int
    ) -> tuple[np.ndarray, dict[tuple[float, float], float], tuple[float, float]]:
        ctx = self._require_context()
        rates_map = measure_counter_rates(
            ctx.app,
            ctx.cluster,
            node_id=ctx.node_id,
            threads=phase_threads if ctx.app.model.supports_thread_tuning else None,
            counters=FEATURE_COUNTERS,
        )
        self._require_engine().application_runs += 1  # the analysis run
        rates = np.array([rates_map[preset(c).name] for c in FEATURE_COUNTERS])
        # All CF x UCF combinations in one grid-shaped prediction.
        prediction = predict_energy_grid(self._model, rates, labels=("phase",))
        grid = prediction.as_dict("phase")
        best = min(grid, key=grid.get)
        return rates, grid, best

    # -- Step 3: neighborhood verification ----------------------------------
    def _verify_neighborhood(
        self,
        global_freqs: tuple[float, float],
        phase_threads: int,
        region_threads: dict[str, int],
    ) -> tuple[OperatingPoint, dict[str, OperatingPoint]]:
        ctx = self._require_context()
        measured: dict[OperatingPoint, dict[str, RegionMeasurement]] = {}
        center = global_freqs
        for step in range(self._hill_climb_steps):
            fresh = [
                OperatingPoint(core_freq_ghz=cf, uncore_freq_ghz=ucf,
                               threads=phase_threads)
                for cf, ucf in neighborhood(*center)
                if OperatingPoint(cf, ucf, phase_threads) not in measured
            ]
            if fresh:
                measured.update(
                    self._require_engine().evaluate_configurations(
                        ctx.app, fresh, run_key=("verify-step", step)
                    )
                )
            best = self._argmin_region(measured, ctx.app.phase.name)
            if (best.core_freq_ghz, best.uncore_freq_ghz) == center:
                break
            center = (best.core_freq_ghz, best.uncore_freq_ghz)
        phase_best = self._argmin_region(measured, ctx.app.phase.name)
        region_configs: dict[str, OperatingPoint] = {}
        for name in ctx.readex_config.significant_names:
            best = self._argmin_region(measured, name)
            region_configs[name] = OperatingPoint(
                core_freq_ghz=best.core_freq_ghz,
                uncore_freq_ghz=best.uncore_freq_ghz,
                threads=region_threads.get(name, phase_threads),
            )
        return phase_best, region_configs

    # ------------------------------------------------------------------
    def _require_context(self) -> TuningContext:
        if self._context is None:
            raise TuningError("plugin not initialised")
        return self._context

    def _require_engine(self) -> ExperimentsEngine:
        if self._engine is None:
            raise TuningError("plugin not initialised")
        return self._engine
