"""Fleet-scale replay: the one execution kernel for every run.

A *fleet* is any mix of replay requests — different applications,
different (virtual) nodes, different controllers or none, instrumented
or not, any static operating point — and the kernel prices all of them
in one pass.  The Figures 6/7 heatmaps, the Table V exhaustive static
search, the trade-off study and every campaign job, in a shard or
alone, are fleets of fresh-node members; the simulator's solo runs
(:meth:`~repro.execution.simulator.ExecutionSimulator.run`, listened
or not) are fleets of one *live-node* member, whose entry state is a
real :class:`~repro.hardware.node.ComputeNode`:

**Phase 1 — compilation and block pricing.**  Uncontrolled members
compile through the one structural walk of :mod:`repro.execution.replay`
(:func:`~repro.execution.replay._compile_structure`, deduplicated
across members sharing an application build and instrumentation) and
resolve their effective operating point and power model — one per node
recipe, or, live, the node's own at its current frequencies.  Members
sharing a structure and a power model form one block, priced in one
array pass (:func:`~repro.execution.replay._evaluate_block`: ``(members
x work regions)`` timings and power components).  A live member is a
block of one whose node keeps its last priced block
(:func:`~repro.execution.replay._evaluate_on_node`), so repeated solo
runs of one application at one operating point price once.  Controller-driven
members compile their switch schedule
(:func:`~repro.execution.controlled_replay.compile_schedule_by_walk`
via the controller's ``compile_schedule``) against a real node, so RRL
statistics and MSR/DVFS side effects are byte-for-byte those of a
region-by-region run; a controller that does not compile is refused
with a :class:`~repro.errors.TuningError` before any member is priced.

**Phase 2 — one fleet-wide noise draw.**  Every member's keyed
(work region x iteration) seed digests join into one buffer, read as
``uint64`` once; one :func:`~repro.util.rng.batched_lognormal` call
covers the whole fleet, and the draws are sliced back.  Keyed streams are drawn per seed
independently, so the batch boundary cannot change any member's noise.

**Phase 3 — block flattening.**  Each priced block flattens at once
(:func:`~repro.execution.replay._flatten_block`): a (members x
iteration x charge) matrix whose rows are each member's exact charge
sequence.  Controlled members flatten their span schedules one by one.

**Phase 4 — pricing.**  A live member's charge sequence goes through
its node's :meth:`~repro.hardware.node.ComputeNode.advance_many`, so
the clock, HDEEM timeline and RAPL residuals continue from the node's
state.  Fresh members share a zero-padded ``(members, max_charges)``
matrix: row-wise ``cumsum`` / ``np.add.accumulate`` / RAPL tick folds
are strict left folds per row, and zero-duration charges are exact
no-ops in every one of those folds (``x + 0.0 == x``; a zero-energy
RAPL deposit never advances the tick counter), so padding cannot
perturb any member's numbers.

**Phase 5 — per-member materialisation.**  Each member yields the
exact ``RunResult`` (lazy instance log included) of its run, its
priced :class:`~repro.execution.controlled_replay.RunTrace`, and a
fresh member the meter/MSR :class:`MeterEndState` it would leave on its
node.

The contract is **bit-identical per member** to the recursive
reference engine (``tests/oracles/engine.py``): permuting the fleet,
splitting it, or batching unrelated members together never changes any
member's payload (property-tested in
``tests/execution/test_fleet_replay_equivalence.py``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro import config
from repro.errors import TuningError, WorkloadError
from repro.execution.controlled_replay import RunTrace, flatten_control_schedule
from repro.execution.replay import (
    _block_spans,
    _compile_structure,
    _effective_frequency,
    _evaluate_block,
    _evaluate_on_node,
    _flatten_block,
    _seed_digests,
)
from repro.execution.simulator import (
    TIME_NOISE_SIGMA,
    InstanceLog,
    OperatingPoint,
    RunResult,
    resolve_threads,
)
from repro.hardware.node import ComputeNode
from repro.hardware.power import NodeVariability, PowerModel
from repro.hardware.rapl import RAPL_ENERGY_UNIT_J, fold_deposits
from repro.hardware.topology import NodeTopology
from repro.util.rng import batched_lognormal

_COUNTER_MASK = (1 << 32) - 1


@dataclass(frozen=True)
class MeterEndState:
    """Observable node state after one run on a fresh node.

    The simulated clocks, the programmed frequencies and the RAPL
    accumulators' raw counters plus sub-tick residuals (per domain, per
    socket).  :func:`meter_end_state` extracts the same view from a real
    :class:`~repro.hardware.node.ComputeNode` for comparison.
    """

    now_s: float
    hdeem_now_s: float
    core_freq_ghz: float
    uncore_freq_ghz: float
    rapl_package: tuple[tuple[int, float], ...]  #: (raw, residual) / socket
    rapl_dram: tuple[tuple[int, float], ...]


def meter_end_state(node) -> MeterEndState:
    """The :class:`MeterEndState` of a real compute node."""
    state = node.rapl_state()
    return MeterEndState(
        now_s=node.now_s,
        hdeem_now_s=node.hdeem.now_s,
        core_freq_ghz=node.core_freq_ghz,
        uncore_freq_ghz=node.uncore_freq_ghz,
        rapl_package=state["package"],
        rapl_dram=state["dram"],
    )


#: Fleets up to this many fresh members fold their RAPL deposits row by
#: row in scalar arithmetic; past it the column-vectorized fold wins
#: (about 4 us per charge column against 0.2 us per charge and row).
_SCALAR_FOLD_ROWS = 8


def _rapl_fold(joules: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tick counts and final residuals of depositing each row's energy
    sequence into a fresh RAPL accumulator.

    Small fleets replay :func:`~repro.hardware.rapl.fold_deposits` per
    row; larger ones replay its float arithmetic vectorized across
    rows: the per-segment ``int(total / unit)`` truncation and residual
    update are elementwise IEEE-754 operations, so each row matches the
    scalar fold to the bit.  Zero-energy segments are exact no-ops in
    that arithmetic (the residual is always below one unit), matching
    ``advance_many``'s explicit zero-duration filtering.
    """
    n, segments = joules.shape
    if n <= _SCALAR_FOLD_ROWS:
        folds = [fold_deposits(0.0, row) for row in joules.tolist()]
        return (
            np.array([ticks for _, ticks in folds], dtype=np.int64),
            np.array([residual for residual, _ in folds], dtype=float),
        )
    unit = RAPL_ENERGY_UNIT_J
    residual = np.zeros(n)
    ticks = np.zeros(n, dtype=np.int64)
    columns = np.ascontiguousarray(joules.T)
    for s in range(segments):
        total = residual + columns[s]
        t = np.floor(total / unit)
        residual = total - t * unit
        ticks += t.astype(np.int64)
    return ticks, residual


@dataclass
class FleetMember:
    """One replay request: an application run on a fresh or a live node.

    A fresh-node member describes the experiment of one solo run:
    build ``ComputeNode(node_id, seed=node_seed,
    topology=..., variability=...)``, optionally program ``point``'s
    frequencies, then ``ExecutionSimulator(node, seed=seed).run(app,
    threads=..., controller=..., instrumented=..., instrumentation=...,
    run_key=run_key)``.  ``point=None`` leaves the node at its default
    frequencies (the ``reset_to_default()`` start every analysis layer
    uses).  ``controller`` is a per-member instance — its statistics
    mutate exactly as in a solo run.

    ``node`` is the member's entry state: a live
    :class:`~repro.hardware.node.ComputeNode` the run executes on
    instead, from its current frequencies, clock and meters, which the
    run advances (the simulator's solo runs are such members).
    ``node_seed``, ``topology``, ``variability`` and ``point`` then do
    not apply, and ``node_id`` must be the node's.  A live node hosts
    at most one member per fleet.
    """

    app: object
    run_key: tuple
    node_id: int = 0
    seed: int = config.DEFAULT_SEED
    node_seed: int | None = None
    topology: NodeTopology | None = None
    variability: NodeVariability | None = None
    point: object | None = None           #: OperatingPoint to program, or None
    threads: int | None = None
    controller: object | None = None
    instrumented: bool = False
    instrumentation: object | None = None
    node: ComputeNode | None = None       #: live entry state, or None (fresh)


@dataclass
class FleetReplay:
    """Per-member results of one fleet pass, in member order.

    ``results[i]`` compares equal to the
    :class:`~repro.execution.simulator.RunResult` of member ``i``'s
    solo run; ``end_states[i]`` is the meter/MSR state that run leaves
    on a fresh node (``None`` for a live member: its node holds that
    state itself); ``traces[i]`` is its priced
    :class:`~repro.execution.controlled_replay.RunTrace`, which its lazy
    instance log materialises from and listener events replay.
    """

    members: tuple = ()
    results: tuple = ()
    end_states: tuple[MeterEndState, ...] = ()
    traces: tuple = ()

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]


@dataclass
class _MemberPlan:
    """One member's compiled state, then its outcome."""

    member: FleetMember
    kind: str                         #: "uncontrolled" | "controlled"
    node: ComputeNode | None = None   #: the live node it prices on, if any
    num_sockets: int = 0
    iterations: int = 0
    # uncontrolled
    structure: object = None
    power_model: PowerModel | None = None
    point: object = None              #: effective OperatingPoint
    block: object = None              #: its priced _BlockEval ...
    row: int = 0                      #: ... and its row there
    durations_work: np.ndarray | None = None  #: (W, I) after flattening
    # controlled
    schedule: object = None
    entry_point: object = None
    final_core_ghz: float = 0.0
    final_uncore_ghz: float = 0.0
    flat: object = None               #: FlatControlSchedule
    # outcome, filled after pricing
    result: object = None
    end_state: MeterEndState | None = None
    trace: object = None


def _member_threads(member: FleetMember) -> int | None:
    if member.threads is None and member.point is not None:
        return member.point.threads
    return member.threads


def _plan_controlled(member: FleetMember, node_seed: int) -> _MemberPlan:
    """Compile a controller-driven member's switch schedule.

    The schedule walk needs a node: MSRs, DVFS/UFS logs and the
    controller statistics all mutate exactly as in a region-by-region
    run.  A live member walks its own node; a fresh one a node built
    here.  A controller that declines (returns ``None``) must leave both
    untouched; it is refused.
    """
    app = member.app
    controller = member.controller
    node = member.node
    if node is None:
        node = ComputeNode(
            member.node_id,
            seed=node_seed,
            topology=member.topology,
            variability=member.variability,
        )
        if member.point is not None:
            node.set_frequencies(
                member.point.core_freq_ghz, member.point.uncore_freq_ghz
            )
    threads = resolve_threads(app, _member_threads(member), node.topology.num_cores)
    entry_point = OperatingPoint(
        core_freq_ghz=node.core_freq_ghz,
        uncore_freq_ghz=node.uncore_freq_ghz,
        threads=threads,
    )
    schedule = controller.compile_schedule(
        app,
        node,
        threads=threads,
        instrumented=member.instrumented or member.instrumentation is not None,
        instrumentation=member.instrumentation,
    )
    if schedule is None:
        raise TuningError(
            f"controller {type(controller).__name__} declined to compile "
            f"its switch schedule for {app.name}"
        )
    return _MemberPlan(
        member=member,
        kind="controlled",
        node=member.node,
        num_sockets=node.topology.num_sockets,
        iterations=schedule.iterations,
        schedule=schedule,
        entry_point=entry_point,
        final_core_ghz=node.core_freq_ghz,
        final_uncore_ghz=node.uncore_freq_ghz,
    )


def _plan_member(member: FleetMember, structures: dict, models: dict) -> _MemberPlan:
    """Compile one member: structure walk or controller schedule.

    An uncontrolled member only resolves its structure, power model and
    effective operating point here; :func:`fleet_run` prices it with
    every member sharing both.
    """
    node_seed = member.seed if member.node_seed is None else member.node_seed
    if member.controller is not None:
        return _plan_controlled(member, node_seed)

    # Uncontrolled member: pure structural pricing, no node required.
    app = member.app
    instrumented = member.instrumented or member.instrumentation is not None
    filter_key = (
        None
        if member.instrumentation is None
        else frozenset(member.instrumentation.filtered)
    )
    skey = (id(app), instrumented, filter_key)
    structure = structures.get(skey)
    if structure is None:
        structure = _compile_structure(app, instrumented, member.instrumentation)
        structures[skey] = structure

    node = member.node
    if node is not None:
        # Live member: priced at the node's current frequencies against
        # its own (warm) power model.
        power_model = node.power_model
        threads = resolve_threads(app, member.threads, node.topology.num_cores)
        effective = OperatingPoint(
            core_freq_ghz=node.core_freq_ghz,
            uncore_freq_ghz=node.uncore_freq_ghz,
            threads=threads,
        )
    else:
        # The power model depends on the variability and the socket/core
        # counts only; keying on the topology object's identity (members
        # stay alive for the whole pass) spares hashing its core tree.
        mkey = (member.node_id, node_seed, id(member.topology), member.variability)
        power_model = models.get(mkey)
        if power_model is None:
            topo = member.topology or NodeTopology.default()
            power_model = models[mkey] = PowerModel(
                member.variability
                or NodeVariability.sample(member.node_id, seed=node_seed),
                num_sockets=topo.num_sockets,
                num_cores=topo.num_cores,
            )
        threads = resolve_threads(app, _member_threads(member), power_model.num_cores)
        if member.point is not None:
            core_ghz = member.point.core_freq_ghz
            uncore_ghz = member.point.uncore_freq_ghz
        else:
            core_ghz = config.DEFAULT_CORE_FREQ_GHZ
            uncore_ghz = config.DEFAULT_UNCORE_FREQ_GHZ
        effective = OperatingPoint(
            core_freq_ghz=_effective_frequency(
                core_ghz, config.CORE_FREQ_MIN_GHZ, config.CORE_FREQ_MAX_GHZ, "core"
            ),
            uncore_freq_ghz=_effective_frequency(
                uncore_ghz,
                config.UNCORE_FREQ_MIN_GHZ,
                config.UNCORE_FREQ_MAX_GHZ,
                "uncore",
            ),
            threads=threads,
        )
    return _MemberPlan(
        member=member,
        kind="uncontrolled",
        node=node,
        num_sockets=power_model.num_sockets,
        iterations=app.phase_iterations,
        structure=structure,
        power_model=power_model,
        point=effective,
    )


def _total(values: np.ndarray) -> float:
    """Strict left-fold sum, 0.0 when empty."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _finish(plan: _MemberPlan, timeline, time_s, node_energy_j, cpu_energy_j,
            end_state: MeterEndState | None) -> None:
    """Fill one priced member's ``RunResult``, trace and lazy instance
    log."""
    if plan.kind == "controlled":
        flat = plan.flat
        point = plan.entry_point
        switching_s = _total(flat.switches)
        instrumentation_s = _total(flat.probes)
        trace = RunTrace(plan.schedule.post_order, timeline, lambda: flat.spans)
    else:
        point = plan.point
        switching_s = 0.0
        instrumentation_s = plan.structure.instrumentation_time_s(plan.iterations)
        trace = RunTrace(
            plan.structure.post_order,
            timeline,
            functools.partial(
                _block_spans, plan.block, plan.row, plan.iterations,
                plan.durations_work,
            ),
        )
    plan.result = RunResult(
        app_name=plan.member.app.name,
        node_id=plan.member.node_id,
        operating_point=point,
        time_s=time_s,
        node_energy_j=node_energy_j,
        cpu_energy_j=cpu_energy_j,
        switching_time_s=switching_s,
        instrumentation_time_s=instrumentation_s,
        instances=InstanceLog.deferred(trace),
    )
    plan.end_state, plan.trace = end_state, trace


def _price_on_node(plan: _MemberPlan, durations, node_w, package_w, dram_w) -> None:
    """Price a live member's charges on its own node: the clock, HDEEM
    and RAPL continue from the node's state through ``advance_many``."""
    node = plan.node
    start_time = node.now_s
    start_cpu_j = node.rapl.read_cpu_energy_joules()
    # Simulated clock after each charge; cumsum is a strict left fold, so
    # every value matches a region-by-region run's repeated ``+=``.
    timeline = np.cumsum(np.concatenate(([start_time], durations)))
    node.advance_many(durations, node_w, package_w, dram_w)
    _finish(
        plan,
        timeline,
        node.now_s - start_time,
        _total(node_w * durations),
        node.rapl.read_cpu_energy_joules() - start_cpu_j,
        None,
    )


def fleet_run(members) -> FleetReplay:
    """Price every fleet member in one batched pass.

    Returns a :class:`FleetReplay` whose per-member results and end
    states are bit-identical to running each member on its own, region
    by region: on a fresh node, or on the member's live ``node``.
    Every controller must compile its switch schedule
    (``compile_schedule``); one that lacks it is refused before any
    member compiles.
    """
    members = list(members)
    if not members:
        return FleetReplay()
    live = [id(m.node) for m in members if m.node is not None]
    if len(set(live)) != len(live):
        raise WorkloadError("a live node can host only one member per fleet")
    for m in members:
        if m.controller is not None and not hasattr(m.controller, "compile_schedule"):
            raise TuningError(
                f"controller {type(m.controller).__name__} does not compile "
                "its switch schedule (no compile_schedule)"
            )

    structures: dict = {}
    models: dict = {}
    plans = [_plan_member(m, structures, models) for m in members]

    # Uncontrolled members sharing a structure and a power model are one
    # block, priced as (members x work regions) arrays and flattened
    # together; a live member's power model is its node's, so it stands
    # alone, as does every controlled member.
    groups: dict[tuple, list[_MemberPlan]] = {}
    for plan in plans:
        if plan.kind == "uncontrolled":
            key = (id(plan.structure), id(plan.power_model))
        else:
            key = (id(plan),)
        groups.setdefault(key, []).append(plan)
    parts = list(groups.values())

    # -- block pricing; one keyed-noise draw spanning the whole fleet ------
    # Each uncontrolled block is priced in one array pass.  Each run's
    # (work x iteration) seed matrix flattens row-major — the exact order
    # its solo run would reshape — into one digest buffer, and
    # per-seed independence makes the fleet-wide batch sliceable without
    # drift.  Each part's draws come back as one (members, work,
    # iteration) view.
    layout = []   # (part, (members, work, iteration))
    digests: list[bytes] = []
    for part in parts:
        first = part[0]
        if first.kind == "uncontrolled":
            compiled = first.structure
            if first.node is None:
                block = _evaluate_block(
                    compiled, first.power_model, [plan.point for plan in part]
                )
            else:  # a live member: a block of one on its node's model
                block = _evaluate_on_node(compiled, first.power_model, first.point)
            for g, plan in enumerate(part):
                plan.block, plan.row = block, g
        else:
            compiled = first.schedule
        names = compiled.work_names
        layout.append((part, (len(part), len(names), first.iterations)))
        for plan in part:
            m = plan.member
            _seed_digests(
                digests, names, first.iterations, m.node_id, m.run_key, m.seed
            )
    bounds = [0, *itertools.accumulate(math.prod(shape) for _, shape in layout)]
    all_seeds = np.frombuffer(b"".join(digests), dtype="<u8")
    all_noise = batched_lognormal(all_seeds, TIME_NOISE_SIGMA)

    # -- block / schedule flattening; live members price on their nodes ---
    fresh = []   # (part, durations, node_w, package_w, dram_w), one row each
    for (part, shape), lo, hi in zip(layout, bounds, bounds[1:]):
        noise = all_noise[lo:hi].reshape(shape)
        first = part[0]
        if first.kind == "uncontrolled":
            flat = _flatten_block(first.block, noise)
            for g, plan in enumerate(part):
                plan.durations_work = flat.durations_work[g]
            charges = (flat.durations, flat.node_w, flat.package_w, flat.dram_w)
        else:
            flat = first.flat = flatten_control_schedule(first.schedule, noise[0])
            charges = (
                flat.durations[None], flat.node_w[None],
                flat.package_w[None], flat.dram_w[None],
            )
        if first.node is None:
            fresh.append((part, *charges))
        else:
            for g, plan in enumerate(part):
                _price_on_node(plan, *(c[g] for c in charges))
    if fresh:
        _price_fresh(fresh)

    return FleetReplay(
        members=tuple(members),
        results=tuple([p.result for p in plans]),
        end_states=tuple([p.end_state for p in plans]),
        traces=tuple([p.trace for p in plans]),
    )


def _price_fresh(fresh: list) -> None:
    """Price fresh-node members in one zero-padded batch.

    Each member's flattened charge sequence becomes one row of a shared
    ``(members, max_charges)`` matrix, short rows padded with zeros;
    row-wise strict left folds make the trailing zero charges exact
    no-ops.
    """
    num = sum(len(part) for part, *_ in fresh)
    width = max(d.shape[1] for _, d, *_ in fresh)
    durations = np.zeros((num, width))
    node_w = np.zeros((num, width))
    package_w = np.zeros((num, width))
    dram_w = np.zeros((num, width))
    plans = []
    for part, d, n_w, p_w, r_w in fresh:
        rows = slice(len(plans), len(plans) + len(part))
        n = d.shape[1]
        durations[rows, :n] = d
        node_w[rows, :n] = n_w
        package_w[rows, :n] = p_w
        dram_w[rows, :n] = r_w
        plans.extend(part)

    timeline = np.cumsum(
        np.concatenate((np.zeros((num, 1)), durations), axis=1), axis=1
    )
    time_s = timeline[:, -1]
    if width:
        node_energy = np.add.accumulate(node_w * durations, axis=1)[:, -1]
    else:
        node_energy = np.zeros(num)

    # RAPL end state + CPU energy (fresh accumulators; each socket sees
    # the identical per-charge deposit, node totals sum socket by socket).
    socket_counts = np.array([p.num_sockets for p in plans])
    sockets_col = socket_counts.astype(float).reshape(-1, 1)
    package_ticks, package_residual = _rapl_fold(package_w * durations / sockets_col)
    dram_ticks, dram_residual = _rapl_fold(dram_w * durations / sockets_col)
    unit = RAPL_ENERGY_UNIT_J
    package_raw = package_ticks.astype(np.uint64) & np.uint64(_COUNTER_MASK)
    dram_raw = dram_ticks.astype(np.uint64) & np.uint64(_COUNTER_MASK)
    package_socket_j = package_raw.astype(np.float64) * unit
    dram_socket_j = dram_raw.astype(np.float64) * unit
    package_node_j = np.zeros(num)
    dram_node_j = np.zeros(num)
    for s in range(int(socket_counts.max(initial=0))):
        live = socket_counts > s
        package_node_j[live] = package_node_j[live] + package_socket_j[live]
        dram_node_j[live] = dram_node_j[live] + dram_socket_j[live]
    cpu_energy = package_node_j + dram_node_j

    # ``tolist`` yields the same Python floats/ints as per-element reads.
    times = time_s.tolist()
    node_energies = node_energy.tolist()
    cpu_energies = cpu_energy.tolist()
    raw_packages, raw_drams = package_raw.tolist(), dram_raw.tolist()
    package_residuals = package_residual.tolist()
    dram_residuals = dram_residual.tolist()
    for i, plan in enumerate(plans):
        if plan.kind == "controlled":
            core_ghz, uncore_ghz = plan.final_core_ghz, plan.final_uncore_ghz
        else:
            core_ghz = plan.point.core_freq_ghz
            uncore_ghz = plan.point.uncore_freq_ghz
        _finish(
            plan,
            timeline[i],
            times[i],
            node_energies[i],
            cpu_energies[i],
            MeterEndState(
                now_s=times[i],
                hdeem_now_s=times[i],
                core_freq_ghz=core_ghz,
                uncore_freq_ghz=uncore_ghz,
                rapl_package=((raw_packages[i], package_residuals[i]),)
                * plan.num_sockets,
                rapl_dram=((raw_drams[i], dram_residuals[i]),) * plan.num_sockets,
            ),
        )
