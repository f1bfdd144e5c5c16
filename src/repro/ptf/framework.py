"""PTF orchestration: the full design-time analysis (DTA) pipeline.

Ties the stack together exactly in the order of Figure 1:

1. compiler instrumentation (Score-P),
2. run-time + compile-time filtering (``scorep-autofilter``),
3. phase annotation and ``readex-dyn-detect``,
4. the tuning plugin's steps (threads → model-predicted frequencies →
   neighborhood verification),
5. tuning-model generation for the RRL.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import config
from repro.execution.simulator import ExecutionSimulator
from repro.hardware.cluster import Cluster
from repro.modeling.training import TrainedModel
from repro.ptf.energy_plugin import EnergyTuningPlugin, PluginResult
from repro.ptf.plugin import TuningContext
from repro.readex.config_file import ReadexConfig
from repro.readex.dyn_detect import readex_dyn_detect
from repro.readex.tuning_model import TuningModel
from repro.scorep.filtering import apply_compile_time_filter, scorep_autofilter
from repro.scorep.instrumentation import Instrumentation
from repro.scorep.macros import annotate_phase
from repro.scorep.profile import ProfileCollector
from repro.workloads import registry
from repro.workloads.application import Application


@dataclass
class TuningOutcome:
    """Everything the DTA produces for one application."""

    app: Application
    instrumentation: Instrumentation
    readex_config: ReadexConfig
    plugin_result: PluginResult
    tuning_model: TuningModel


class PeriscopeTuningFramework:
    """Drives pre-processing and the tuning plugin for an application."""

    def __init__(
        self,
        cluster: Cluster,
        model: TrainedModel,
        *,
        node_id: int = 0,
        hill_climb_steps: int = 1,
    ):
        self.cluster = cluster
        self.model = model
        self.node_id = node_id
        self.hill_climb_steps = hill_climb_steps

    # ------------------------------------------------------------------
    def preprocess(
        self, app: Application
    ) -> tuple[Instrumentation, ReadexConfig]:
        """Instrument, filter, annotate the phase and detect regions."""
        instrumentation = Instrumentation.compiler_default(app)
        # Run-time filtering: profile the fully instrumented build.
        profile = self._profile_run(app, instrumentation, key="rt-filter")
        filter_file = scorep_autofilter(profile, instrumentation)
        instrumentation = apply_compile_time_filter(instrumentation, filter_file)
        # Phase annotation, then the dyn-detect profiling run.
        annotate_phase(app)
        profile = self._profile_run(app, instrumentation, key="dyn-detect")
        readex_config = readex_dyn_detect(app, profile)
        return instrumentation, readex_config

    def tune(self, app_or_name: Application | str) -> TuningOutcome:
        """Run the complete DTA for one application."""
        app = (
            registry.build(app_or_name)
            if isinstance(app_or_name, str)
            else app_or_name
        )
        instrumentation, readex_config = self.preprocess(app)
        plugin = EnergyTuningPlugin(
            self.model, hill_climb_steps=self.hill_climb_steps
        )
        plugin.initialize(
            TuningContext(
                app=app,
                readex_config=readex_config,
                cluster=self.cluster,
                node_id=self.node_id,
            )
        )
        plugin.run_tuning_steps()
        result = plugin.result
        tuning_model = TuningModel.from_best_configs(
            app.name,
            app.phase.name,
            {**result.region_configurations, app.phase.name: result.phase_configuration},
        )
        return TuningOutcome(
            app=app,
            instrumentation=instrumentation,
            readex_config=readex_config,
            plugin_result=result,
            tuning_model=tuning_model,
        )

    # ------------------------------------------------------------------
    def _profile_run(self, app, instrumentation, *, key: str):
        node = self.cluster.fresh_node(self.node_id)
        node.set_frequencies(
            config.CALIBRATION_CORE_FREQ_GHZ, config.CALIBRATION_UNCORE_FREQ_GHZ
        )
        collector = ProfileCollector(app.name)
        ExecutionSimulator(node, seed=self.cluster.seed).run(
            app,
            listeners=(collector,),
            instrumentation=instrumentation,
            run_key=(key,),
        )
        return collector.profile()
