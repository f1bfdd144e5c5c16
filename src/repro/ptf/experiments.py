"""PTF experiments engine.

Evaluates candidate configurations on the running application.  The
engine exploits progressive main loops the way the plugin does
(Section V-C): each phase iteration runs one candidate configuration, so
evaluating k candidates costs k phase iterations instead of k whole
application runs, and every significant region is measured in every
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import config
from repro.errors import TuningError
from repro.execution.simulator import ExecutionSimulator, OperatingPoint, RunResult
from repro.hardware.cluster import Cluster
from repro.hardware.node import ComputeNode, NodeRecipe
from repro.readex.pcp import CpuFreqPlugin, OpenMPTPlugin, UncoreFreqPlugin
from repro.workloads.application import Application
from repro.workloads.region import Region


@dataclass(frozen=True)
class RegionMeasurement:
    """One region's measurement under one candidate configuration."""

    region: str
    configuration: OperatingPoint
    node_energy_j: float
    cpu_energy_j: float
    time_s: float


class _ScheduleController:
    """Applies ``schedule[iteration]`` at each phase-region enter.

    Although its decisions depend on the iteration index, the schedule
    is fully predeclared, so the controller compiles like every other
    (``compile_schedule``): the compile walk visits every
    iteration with a distinct schedule entry (the state key tracks the
    upcoming entry), reaches a fixed point once the schedule's last
    configuration repeats, and the replay prices the whole run in bulk
    — bit-identical to the recursive engine, like every compiled
    controller.
    """

    def __init__(self, schedule: list[OperatingPoint], phase_name: str):
        if not schedule:
            raise TuningError("empty experiment schedule")
        self._schedule = schedule
        self._phase_name = phase_name
        self._cpu = CpuFreqPlugin()
        self._uncore = UncoreFreqPlugin()
        self._openmp = OpenMPTPlugin()
        self._threads = schedule[0].threads
        self._next_iteration = 0

    def on_region_enter(self, region: Region, iteration: int, node: ComputeNode) -> int:
        if region.name == self._phase_name:
            self._next_iteration = iteration + 1
            point = self._schedule[min(iteration, len(self._schedule) - 1)]
            if node.core_freq_ghz != point.core_freq_ghz:
                self._cpu.apply(node, point.core_freq_ghz)
            if node.uncore_freq_ghz != point.uncore_freq_ghz:
                self._uncore.apply(node, point.uncore_freq_ghz)
            self._threads = self._openmp.apply(node, point.threads)
        return self._threads

    def on_region_exit(self, region: Region, iteration: int, node: ComputeNode) -> None:
        return None

    def compile_schedule(
        self, app, node: ComputeNode | NodeRecipe, *, threads: int,
        instrumented: bool, instrumentation,
    ):
        """Compile the predeclared experiment schedule for bulk replay.

        The fixed-point state key is the upcoming schedule entry
        (clamped to the final one, which every remaining iteration
        repeats) plus the thread count the last applied configuration
        pinned.
        """
        from repro.execution.controlled_replay import compile_schedule_by_walk

        last = len(self._schedule) - 1
        return compile_schedule_by_walk(
            self,
            app,
            node,
            threads=threads,
            instrumented=instrumented,
            instrumentation=instrumentation,
            state_key=lambda: (
                min(self._next_iteration, last),
                self._threads,
            ),
        )


class ExperimentsEngine:
    """Runs tuning experiments for plugins."""

    def __init__(self, cluster: Cluster, *, node_id: int = 0):
        self.cluster = cluster
        self.node_id = node_id
        self.experiments_performed = 0
        self.tuning_time_s = 0.0
        self.application_runs = 0

    # ------------------------------------------------------------------
    def evaluate_configurations(
        self,
        app: Application,
        configurations: list[OperatingPoint],
        *,
        regions: tuple[str, ...] | None = None,
        run_key: tuple = (),
    ) -> dict[OperatingPoint, dict[str, RegionMeasurement]]:
        """Measure every region of interest under every configuration.

        Configurations are packed into application runs, one per phase
        iteration; measurement values are per-iteration region instances.
        Regions defaults to the phase region plus its children.
        """
        if not configurations:
            raise TuningError("no configurations to evaluate")
        if regions is None:
            regions = (app.phase.name,) + tuple(
                c.name for c in app.phase.children
            )
        results: dict[OperatingPoint, dict[str, RegionMeasurement]] = {}
        iters = app.phase_iterations
        for chunk_start in range(0, len(configurations), iters):
            chunk = configurations[chunk_start : chunk_start + iters]
            run = self._run_schedule(app, chunk, run_key=(run_key, chunk_start))
            for i, point in enumerate(chunk):
                measurements: dict[str, RegionMeasurement] = {}
                for instance in run.instances:
                    if instance.iteration != i or instance.region_name not in regions:
                        continue
                    measurements[instance.region_name] = RegionMeasurement(
                        region=instance.region_name,
                        configuration=point,
                        node_energy_j=instance.node_energy_j,
                        cpu_energy_j=instance.cpu_energy_j,
                        time_s=instance.time_s,
                    )
                results[point] = measurements
                self.experiments_performed += 1
        return results

    def _run_schedule(
        self, app: Application, schedule: list[OperatingPoint], *, run_key: tuple
    ) -> RunResult:
        node = self.cluster.fresh_node(self.node_id)
        node.set_frequencies(
            config.CALIBRATION_CORE_FREQ_GHZ, config.CALIBRATION_UNCORE_FREQ_GHZ
        )
        controller = _ScheduleController(schedule, app.phase.name)
        run = ExecutionSimulator(node, seed=self.cluster.seed).run(
            app,
            threads=schedule[0].threads,
            controller=controller,
            instrumented=True,
            run_key=("experiments", run_key),
        )
        self.application_runs += 1
        self.tuning_time_s += run.time_s
        return run
