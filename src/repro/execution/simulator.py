"""The execution simulator: runs applications on simulated nodes.

This is the stand-in for "actually running the benchmark on Taurus".
Given an :class:`~repro.workloads.application.Application`, an operating
point and a :class:`~repro.hardware.node.ComputeNode`, the simulator

* walks the region tree once per phase iteration,
* lets an optional *controller* (the RRL, or a PCP under PTF) switch
  frequencies/threads at region boundaries — charging the hardware
  transition latencies,
* charges Score-P probe overhead when the run is instrumented,
* advances the node's meters (RAPL, HDEEM) with the ground-truth power,
* reports per-region-instance timings and energies.

Every :meth:`ExecutionSimulator.run` is a fleet of one *live-node*
member of the fleet kernel (:mod:`repro.execution.fleet_replay`): the
region schedule compiles once — a controller through its
``compile_schedule`` — and all ``phase_iterations x instances`` are
priced in bulk on this simulator's node.  Listeners (Score-P
trace/profile layers) observe the run through region enter/exit events
replayed from the priced run afterwards
(:func:`~repro.execution.controlled_replay.deliver_events`).  The
region-by-region recursion every result is bit-identical to lives in
``tests/oracles/engine.py`` as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro import config
from repro.counters.generation import CounterGenerator
from repro.errors import TuningError, WorkloadError
from repro.execution.timing import RegionTiming
from repro.hardware.node import ComputeNode
from repro.workloads.application import Application
from repro.workloads.region import Region

#: Multiplicative run-to-run execution-time noise.
TIME_NOISE_SIGMA = 0.0025


def probe_overhead_s(region: "Region") -> float:
    """Instrumentation overhead of one region call: enter+exit probes
    plus the unfilterable internal events (OpenMP/MPI wrappers).

    Shared by the uncontrolled and the controlled compilers so the
    probe model cannot drift between them.
    """
    events = 2 + region.internal_events
    return events * region.calls_per_phase * config.SCOREP_PROBE_OVERHEAD_S


def resolve_threads(app: Application, threads: int | None, num_cores: int) -> int:
    """A run's OpenMP thread count, shared by every compiler.

    ``threads`` defaults to the application's; MPI-only codes always
    run with their fixed configuration.
    """
    if threads is None or not app.model.supports_thread_tuning:
        threads = app.default_threads
    if not 1 <= threads <= num_cores:
        raise WorkloadError(f"invalid thread count: {threads}")
    return threads


@dataclass(frozen=True)
class OperatingPoint:
    """One hardware configuration (the tuning parameter tuple)."""

    core_freq_ghz: float = config.DEFAULT_CORE_FREQ_GHZ
    uncore_freq_ghz: float = config.DEFAULT_UNCORE_FREQ_GHZ
    threads: int = config.DEFAULT_OPENMP_THREADS

    def __str__(self) -> str:
        return (
            f"{self.threads}T {self.core_freq_ghz:.1f}|"
            f"{self.uncore_freq_ghz:.1f} GHz (CF|UCF)"
        )


class RunController(Protocol):
    """Hook interface for runtime tuning (the RRL, the static controller,
    PTF's experiment schedule).

    A controller's decisions depend only on region names and the
    hardware state it observes — never on simulated time or noise — so
    ``compile_schedule`` walks its hooks once, up front, into the run's
    switch schedule (:mod:`repro.execution.controlled_replay`), which
    the fleet kernel then prices.  A controller without
    ``compile_schedule``, or one that returns ``None`` (and must then
    leave itself and the node untouched), is refused with a
    :class:`~repro.errors.TuningError`.
    """

    def on_region_enter(self, region: Region, iteration: int, node: ComputeNode) -> int:
        """Called before a region body runs; returns the new thread count
        to use for the region (or the current one)."""

    def on_region_exit(self, region: Region, iteration: int, node: ComputeNode) -> None:
        """Called after a region body finishes."""

    def compile_schedule(
        self, app, node: ComputeNode, *, threads: int, instrumented: bool,
        instrumentation,
    ):
        """Compile the run's switch schedule by walking the hooks."""


class RunListener(Protocol):
    """Observation interface (implemented by Score-P trace/profile layers).

    Events arrive after the run, replayed from the priced run in the
    order the run executed them, so listeners only observe: they must
    not read node state (the node already holds its end-of-run state).
    """

    def on_enter(self, region: Region, iteration: int, time_s: float) -> None: ...

    def on_exit(
        self,
        region: Region,
        iteration: int,
        time_s: float,
        metrics: dict[str, float],
    ) -> None: ...


@dataclass(frozen=True)
class RegionInstance:
    """Ground truth for one executed region instance."""

    region_name: str
    iteration: int
    start_s: float
    time_s: float
    node_energy_j: float
    cpu_energy_j: float
    operating_point: OperatingPoint
    timing: RegionTiming | None


class InstanceLog:
    """Append-only sequence of :class:`RegionInstance` rows.

    Behaves like a list (iteration, indexing, equality against lists)
    with two performance features on top:

    * rows can be *deferred*: the fleet kernel registers a producer
      callback and the rows materialise only when first accessed, so
      runs whose instances are never inspected (energy sweeps, static
      searches) skip building them entirely;
    * per-region lookups are served from a name index built on first
      use, a dict hit instead of a full scan per call.
    """

    __slots__ = ("_items", "_producer", "_index")

    def __init__(self, items=None):
        self._items: list[RegionInstance] = list(items) if items is not None else []
        self._producer = None
        self._index: dict[str, list[RegionInstance]] | None = None

    @classmethod
    def deferred(cls, producer) -> "InstanceLog":
        """A log whose rows come from ``producer()`` on first access."""
        log = cls()
        log._producer = producer
        return log

    def _materialise(self) -> None:
        if self._producer is not None:
            items = self._producer()
            self._producer = None  # only after success, so a failed
            self._items = items    # producer run can be retried

    def by_region(self, name: str) -> list[RegionInstance]:
        """All rows of one region, in execution order."""
        self._materialise()
        if self._index is None:
            index: dict[str, list[RegionInstance]] = {}
            for instance in self._items:
                index.setdefault(instance.region_name, []).append(instance)
            self._index = index
        return list(self._index.get(name, ()))

    def __len__(self) -> int:
        self._materialise()
        return len(self._items)

    def __iter__(self):
        self._materialise()
        return iter(self._items)

    def __getitem__(self, item):
        self._materialise()
        return self._items[item]

    def __eq__(self, other) -> bool:
        if isinstance(other, InstanceLog):
            other._materialise()
            other = other._items
        if isinstance(other, (list, tuple)):
            self._materialise()
            return self._items == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        if self._producer is not None:
            return "InstanceLog(<deferred>)"
        return f"InstanceLog({len(self._items)} instances)"

    def __reduce__(self):
        self._materialise()
        return (InstanceLog, (self._items,))


@dataclass
class RunResult:
    """Outcome of one application run on one node."""

    app_name: str
    node_id: int
    operating_point: OperatingPoint
    time_s: float = 0.0
    node_energy_j: float = 0.0
    cpu_energy_j: float = 0.0
    switching_time_s: float = 0.0
    instrumentation_time_s: float = 0.0
    instances: InstanceLog = field(default_factory=InstanceLog)

    def region_instances(self, name: str) -> list[RegionInstance]:
        return self.instances.by_region(name)

    def region_time_s(self, name: str) -> float:
        return sum(i.time_s for i in self.region_instances(name))

    def region_energy_j(self, name: str) -> float:
        return sum(i.node_energy_j for i in self.region_instances(name))

    @property
    def mean_power_w(self) -> float:
        return self.node_energy_j / self.time_s if self.time_s > 0 else 0.0


class ExecutionSimulator:
    """Runs applications on a node, producing ground-truth results."""

    def __init__(self, node: ComputeNode, *, seed: int = config.DEFAULT_SEED):
        self.node = node
        self.seed = seed
        self._counter_generator = CounterGenerator(seed)

    # ------------------------------------------------------------------
    def run(
        self,
        app: Application,
        *,
        threads: int | None = None,
        controller: RunController | None = None,
        instrumented: bool = False,
        instrumentation=None,
        listeners: tuple[RunListener, ...] = (),
        collect_counters: bool = False,
        run_key: tuple = (),
    ) -> RunResult:
        """Execute ``app`` once on this simulator's node.

        The run is a fleet of one live-node member of the fleet kernel;
        listeners receive its events afterwards.

        Parameters
        ----------
        threads:
            OpenMP thread count; defaults to the application default.
            MPI-only codes always run with their fixed configuration.
        controller:
            Optional runtime tuner called at region boundaries (RRL); it
            must compile its switch schedule (see :class:`RunController`).
        instrumented:
            Whether Score-P probes are compiled in (adds overhead).
        listeners:
            Trace/profile observers; they imply ``instrumented``.
        instrumentation:
            Optional object with an ``is_instrumented(region) -> bool``
            method (see :mod:`repro.scorep.instrumentation`); when given,
            probe overhead and listener events apply only to regions it
            reports as instrumented.  Implies ``instrumented=True``.
        collect_counters:
            Whether to derive PAPI counter values for listener metrics
            (uncontrolled runs only: with a controller it is refused).
        run_key:
            Label mixed into the noise streams so repeated runs differ
            reproducibly.
        """
        if controller is not None and collect_counters:
            raise TuningError("controlled runs do not collect counters")
        if listeners or instrumentation is not None:
            instrumented = True
        from repro.execution import fleet_replay

        fleet = fleet_replay.fleet_run(
            [
                fleet_replay.FleetMember(
                    app=app,
                    run_key=run_key,
                    node_id=self.node.node_id,
                    seed=self.seed,
                    node=self.node,
                    threads=threads,
                    controller=controller,
                    instrumented=instrumented,
                    instrumentation=instrumentation,
                )
            ]
        )
        result = fleet.results[0]
        if listeners:
            from repro.execution.controlled_replay import (
                deliver_events,
                inclusive_counters,
            )

            trace = fleet.traces[0]
            counters = None
            if collect_counters:
                (span,) = trace.spans
                counters = inclusive_counters(
                    span, self._counter_generator,
                    node_id=self.node.node_id, run_key=run_key,
                )
            deliver_events(trace, result.instances, listeners, counters)
        return result
