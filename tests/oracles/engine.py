"""The recursive execution engine, and the helpers that compare with it.

:meth:`repro.execution.simulator.ExecutionSimulator.run` prices every
run through the fleet kernel and replays listener events from the
priced run.  This module keeps the straightforward engine those paths
replaced: walk the region tree once per phase iteration, call the
controller's hooks and the listeners at every region boundary, charge
each switch, body and probe to the node's meters as it goes.  Every
production result must equal it to the bit.

* :func:`recursive_run` — one run on the recursive engine;
* :class:`PhaseCounterCollector` — the listener behind the campaign
  ``counters`` mode (phase counter totals);
* :func:`make_node`, :func:`meter_state`, :func:`run_both`,
  :func:`assert_identical` and :func:`run_reference` — the shared
  harness of the equivalence suites.
"""

from __future__ import annotations

from repro import config
from repro.counters.generation import CounterGenerator, MeasurementContext
from repro.execution.controlled_replay import pending_switch_latency_s
from repro.execution.simulator import (
    TIME_NOISE_SIGMA,
    ExecutionSimulator,
    InstanceLog,
    OperatingPoint,
    RegionInstance,
    RunResult,
    probe_overhead_s,
    resolve_threads,
)
from repro.execution.timing import region_timing
from repro.hardware.node import ComputeNode
from repro.hardware.rapl import RaplDomain
from repro.scorep.instrumentation import Instrumentation
from repro.util.rng import rng_for


class _RecursiveEngine:
    """One run's state: the node, the noise seed and the rows so far."""

    def __init__(self, node, seed, controller, instrumented, instrumentation,
                 listeners, collect_counters, run_key):
        self.node = node
        self.seed = seed
        self.controller = controller
        self.instrumented = instrumented
        self.instrumentation = instrumentation
        self.listeners = listeners
        self.collect_counters = collect_counters
        self.run_key = run_key
        self.counter_generator = CounterGenerator(seed)
        self.rows: list[RegionInstance] = []
        self.node_energy_j = 0.0
        self.switching_time_s = 0.0
        self.instrumentation_time_s = 0.0

    def point(self, threads: int) -> OperatingPoint:
        return OperatingPoint(
            core_freq_ghz=self.node.core_freq_ghz,
            uncore_freq_ghz=self.node.uncore_freq_ghz,
            threads=threads,
        )

    def charge(self, duration_s: float, breakdown) -> float:
        """Advance node time/meters and account node energy; returns joules."""
        self.node.advance(duration_s, breakdown)
        joules = breakdown.node_w * duration_s
        self.node_energy_j += joules
        return joules

    def charge_switching(self, threads: int) -> None:
        """Charge the latency of frequency changes logged since the last
        check."""
        dvfs_n = self.node.dvfs.log.count
        ufs_n = self.node.ufs.log.count
        self.node.dvfs.log.clear()
        self.node.ufs.log.clear()
        latency = pending_switch_latency_s(dvfs_n, ufs_n)
        if latency > 0:
            breakdown = self.node.compute_power(
                active_threads=threads,
                core_activity=config.STALLED_CORE_ACTIVITY,
                uncore_activity=0.0,
                membw_gbs=0.0,
            )
            self.charge(latency, breakdown)
            self.switching_time_s += latency

    def cpu_fraction(self, timing, threads: int) -> float:
        """Fraction of node power attributable to the CPU+DRAM."""
        breakdown = self.node.compute_power(
            active_threads=threads,
            core_activity=timing.core_activity,
            uncore_activity=timing.uncore_activity,
            membw_gbs=timing.membw_gbs,
        )
        return breakdown.cpu_w / breakdown.node_w

    def region(self, region, iteration: int, threads: int):
        """Execute one region instance; returns its inclusive node energy
        (joules) and inclusive PAPI counter totals."""
        node = self.node
        if self.controller is not None:
            new_threads = self.controller.on_region_enter(region, iteration, node)
            if new_threads:
                threads = new_threads
            self.charge_switching(threads)

        region_instrumented = self.instrumented and (
            self.instrumentation is None
            or self.instrumentation.is_instrumented(region)
        )
        enter_time = node.now_s
        if region_instrumented:
            for listener in self.listeners:
                listener.on_enter(region, iteration, enter_time)

        body_energy_j = 0.0
        body_time_s = 0.0
        timing = None
        if region.has_work:
            timing = region_timing(
                region.characteristics,
                threads=threads,
                core_freq_ghz=node.core_freq_ghz,
                uncore_freq_ghz=node.uncore_freq_ghz,
            )
            rng = rng_for("time", node.node_id, self.run_key, region.name,
                          iteration, seed=self.seed)
            duration = timing.time_s * float(rng.lognormal(0.0, TIME_NOISE_SIGMA))
            breakdown = node.compute_power(
                active_threads=threads,
                core_activity=timing.core_activity,
                uncore_activity=timing.uncore_activity,
                membw_gbs=timing.membw_gbs,
            )
            body_energy_j = self.charge(duration, breakdown)
            body_time_s = duration

        if region_instrumented:
            overhead = probe_overhead_s(region)
            breakdown = node.compute_power(
                active_threads=threads,
                core_activity=1.0,
                uncore_activity=0.1,
                membw_gbs=0.0,
            )
            body_energy_j += self.charge(overhead, breakdown)
            body_time_s += overhead
            self.instrumentation_time_s += overhead

        point = self.point(threads)
        children_energy_j = 0.0
        children_counters: dict[str, float] = {}
        for child in region.children:
            child_energy, child_counters = self.region(child, iteration, threads)
            children_energy_j += child_energy
            for name, value in child_counters.items():
                children_counters[name] = children_counters.get(name, 0.0) + value

        exit_time = node.now_s
        total_time = exit_time - enter_time
        # Approximate CPU share of this region's node energy via the power
        # ratio of its own body (children account for themselves).
        cpu_energy_j = 0.0
        if region.has_work and body_time_s > 0:
            cpu_energy_j = body_energy_j * self.cpu_fraction(timing, threads)
        instance = RegionInstance(
            region_name=region.name,
            iteration=iteration,
            start_s=enter_time,
            time_s=total_time,
            node_energy_j=body_energy_j + children_energy_j,
            cpu_energy_j=cpu_energy_j,
            operating_point=point,
            timing=timing,
        )
        self.rows.append(instance)

        counters: dict[str, float] = dict(children_counters)
        if self.collect_counters and region.has_work:
            ctx = MeasurementContext(
                elapsed_s=body_time_s,
                core_freq_ghz=point.core_freq_ghz,
                threads=threads,
            )
            own = self.counter_generator.sample(
                region.characteristics,
                ctx,
                key=(node.node_id, self.run_key, region.name, iteration),
            )
            for name, value in own.items():
                counters[name] = counters.get(name, 0.0) + value
        metrics = {
            "time_s": total_time,
            "node_energy_j": instance.node_energy_j,
            **counters,
        }
        if region_instrumented:
            for listener in self.listeners:
                listener.on_exit(region, iteration, exit_time, metrics)

        if self.controller is not None:
            self.controller.on_region_exit(region, iteration, node)
            self.charge_switching(threads)
        return body_energy_j + children_energy_j, counters


def recursive_run(
    node: ComputeNode,
    app,
    *,
    seed: int = config.DEFAULT_SEED,
    threads: int | None = None,
    controller=None,
    instrumented: bool = False,
    instrumentation=None,
    listeners: tuple = (),
    collect_counters: bool = False,
    run_key: tuple = (),
) -> RunResult:
    """``ExecutionSimulator(node, seed=seed).run(app, ...)`` on the
    recursive engine: the same arguments, region by region."""
    if listeners or instrumentation is not None:
        instrumented = True
    threads = resolve_threads(app, threads, node.topology.num_cores)
    engine = _RecursiveEngine(
        node, seed, controller, instrumented, instrumentation, listeners,
        collect_counters, run_key,
    )
    entry_point = engine.point(threads)
    start_time = node.now_s
    start_cpu_j = node.rapl.read_cpu_energy_joules()
    for iteration in range(app.phase_iterations):
        engine.region(app.phase, iteration, threads)
    return RunResult(
        app_name=app.name,
        node_id=node.node_id,
        operating_point=entry_point,
        time_s=node.now_s - start_time,
        node_energy_j=engine.node_energy_j,
        cpu_energy_j=node.rapl.read_cpu_energy_joules() - start_cpu_j,
        switching_time_s=engine.switching_time_s,
        instrumentation_time_s=engine.instrumentation_time_s,
        instances=InstanceLog(engine.rows),
    )


class PhaseCounterCollector:
    """RunListener summing phase-region counter totals (Section III-C).

    The reference for the campaign ``counters`` mode, whose production
    path reads the totals from a shard member's priced run
    (:func:`repro.execution.replay.phase_counters`).
    """

    def __init__(self, counters: tuple[str, ...]):
        self.counters = counters
        self.totals = {c: 0.0 for c in counters}
        self.phase_time = 0.0

    def on_enter(self, region, iteration, time_s) -> None:
        pass

    def on_exit(self, region, iteration, time_s, metrics) -> None:
        # Counters are inclusive, so the phase record carries the whole
        # iteration's totals (the plugin requests metrics for the phase).
        if region.kind.value == "phase":
            for c in self.counters:
                self.totals[c] += metrics.get(c, 0.0)
            self.phase_time += metrics["time_s"]


# ---------------------------------------------------------------------------
# the equivalence suites' shared harness
# ---------------------------------------------------------------------------

def make_node(node_id=0, seed=config.DEFAULT_SEED, cf=None, ucf=None):
    node = ComputeNode(node_id, seed=seed)
    if cf is not None:
        node.set_frequencies(cf, ucf)
    return node


def meter_state(node):
    """Observable meter + frequency state after a run."""
    return (
        node.now_s,
        node.hdeem.now_s,
        node.core_freq_ghz,
        node.uncore_freq_ghz,
        node.dvfs.log.count,
        node.ufs.log.count,
        tuple(
            node.rapl.read_joules(s, domain)
            for s in range(node.topology.num_sockets)
            for domain in (RaplDomain.PACKAGE, RaplDomain.DRAM)
        ),
    )


def run_both(app, controller_factory=None, *, node_id=0,
             node_seed=config.DEFAULT_SEED, seed=config.DEFAULT_SEED, cf=None,
             ucf=None, **kwargs):
    """One run through each engine on identically prepared nodes, each
    with its own controller from ``controller_factory`` (if any)."""
    n1 = make_node(node_id, node_seed, cf, ucf)
    n2 = make_node(node_id, node_seed, cf, ucf)
    c1 = c2 = None
    if controller_factory is not None:
        c1, c2 = controller_factory(), controller_factory()
    fast = ExecutionSimulator(n1, seed=seed).run(app, controller=c1, **kwargs)
    generic = recursive_run(n2, app, seed=seed, controller=c2, **kwargs)
    return fast, generic, n1, n2, c1, c2


def assert_identical(fast, generic, n1, n2, c1=None, c2=None):
    # Scalar fields, exactly.
    assert fast.time_s == generic.time_s
    assert fast.node_energy_j == generic.node_energy_j
    assert fast.cpu_energy_j == generic.cpu_energy_j
    assert fast.switching_time_s == generic.switching_time_s
    assert fast.instrumentation_time_s == generic.instrumentation_time_s
    assert fast.operating_point == generic.operating_point
    # Instance rows: same count, order and every field (dataclass
    # equality covers timings and operating points).
    assert len(fast.instances) == len(generic.instances)
    assert fast.instances == generic.instances
    assert fast == generic
    # The node is left in an identical observable state.
    assert meter_state(n1) == meter_state(n2)
    if hasattr(c1, "stats"):
        assert c1.stats == c2.stats


def run_reference(member):
    """A fleet member's solo run on the recursive engine: fresh node,
    program, run.  Returns the result and the node."""
    node = ComputeNode(
        member.node_id,
        seed=member.seed if member.node_seed is None else member.node_seed,
        topology=member.topology,
        variability=member.variability,
    )
    if member.point is not None:
        node.set_frequencies(member.point.core_freq_ghz, member.point.uncore_freq_ghz)
    threads = member.threads
    if threads is None and member.point is not None:
        threads = member.point.threads
    instrumentation = member.instrumentation
    if instrumentation is not None:
        instrumentation = Instrumentation(
            app=member.app, filtered=set(instrumentation.filtered)
        )
    result = recursive_run(
        node,
        member.app,
        seed=member.seed,
        threads=threads,
        controller=member.controller,
        instrumented=member.instrumented,
        instrumentation=instrumentation,
        run_key=member.run_key,
    )
    return result, node
