"""Fleet-scale replay: the one execution kernel for every run.

A *fleet* is any mix of replay requests — different applications,
different (virtual) nodes, different controllers or none, instrumented
or not, any static operating point — and the kernel prices all of them
in one pass.  The Figures 6/7 heatmaps, the Table V exhaustive static
search, the trade-off study and every campaign job, in a shard or
alone, are fleets of fresh-node members; the simulator's solo runs
(:meth:`~repro.execution.simulator.ExecutionSimulator.run`, listened
or not) are fleets of one *live-node* member, whose entry state is a
real :class:`~repro.hardware.node.ComputeNode`.  A fresh member's is a
:class:`~repro.hardware.node.NodeRecipe`, built only for a compile walk.

Every member is one kind of run: a switch schedule
(:class:`~repro.execution.controlled_replay.ControlSchedule`) priced at
its points against its node's power model.

**Phase 1 — compilation and block pricing.**  A controller-driven
member compiles its schedule through the controller's
``compile_schedule``
(:func:`~repro.execution.controlled_replay.compile_schedule_by_walk`)
against its live node or its recipe, which a walk builds into a real
node, so RRL statistics and MSR/DVFS side effects are byte-for-byte
those of a region-by-region run.  A cached compile walks nothing, so
the kernel then brings a live member's node to the frequencies the
schedule's walk exits at (a no-op after a walk); a fresh member's cache
hit builds no node.  A controller that does not compile is refused with
a :class:`~repro.errors.TuningError` before any member is priced.  A
member without a controller compiles
through the same walk, once per application build and instrumentation
in the fleet: one pattern over every iteration, no switch, one unbound
point that the member binds to its effective operating point.  Fresh
members without a controller that share an application build, a node
recipe, a requested thread count and an instrumentation (the cells of
a grid row) share that schedule, power model and resolved thread count,
computed once.  Members
sharing a schedule and a power model (one per node recipe, or a live
node's own) form one block, priced at all their points in one array
pass (:func:`~repro.execution.replay._evaluate_block`).  A live member
is a block of one whose node keeps its last priced block, so repeated
solo runs of one schedule at the same points price once.

**Phase 2 — one fleet-wide noise draw.**  Every member's keyed
(work region x iteration) seed digests join into one buffer, read as
``uint64`` once (:func:`_draw_noise`): each block encodes its
work-region names once, each seed and node id hash their key prefix
once, and each run extends it by its run key
(:func:`~repro.util.rng.keyed_digests`).  One
:func:`~repro.util.rng.batched_lognormal` call covers the whole fleet,
and the draws are sliced back.  Keyed streams are drawn per seed
independently, so the batch boundary cannot change any member's noise.

**Phase 3 — block flattening.**  Each priced block flattens at once
(:func:`_flatten`): span by span, a (members x iteration x charge)
matrix whose rows, joined, are each member's exact charge sequence.

**Phase 4 — pricing.**  A live member's charge sequence goes through
its node's :meth:`~repro.hardware.node.ComputeNode.advance_many`, so
the clock, HDEEM timeline and RAPL residuals continue from the node's
state.  Fresh members share a zero-padded ``(members, max_charges)``
matrix: row-wise ``cumsum`` / ``np.add.accumulate`` / RAPL tick folds
are strict left folds per row, and zero-duration charges are exact
no-ops in every one of those folds (``x + 0.0 == x``; a zero-energy
RAPL deposit never advances the tick counter), so padding cannot
perturb any member's numbers.

**Phase 5 — per-block results.**  Each block keeps its members' clock
timelines and run totals; the :class:`FleetReplay` reads the totals
(all a grid payload needs) straight from them.  Its ``results`` and
``traces`` are built block by block on first read: each member's exact
``RunResult`` (lazy instance log included) and its priced
:class:`~repro.execution.controlled_replay.RunTrace`, whose slots are
bound and priced only when its rows or events are read.  A fresh
member's node never exists, so its run is all it reports; a live
member's node holds its end state itself.

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
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro import config
from repro.errors import TuningError, WorkloadError
from repro.execution.controlled_replay import (
    PROBE_COLUMN,
    ControlSchedule,
    RunTrace,
    _Slot,
    compile_schedule_by_walk,
)
from repro.execution.replay import _entry_point, _evaluate_block, _seed_digests
from repro.execution.simulator import (
    TIME_NOISE_SIGMA,
    InstanceLog,
    OperatingPoint,
    RunResult,
    resolve_threads,
)
from repro.hardware.node import ComputeNode, NodeRecipe
from repro.hardware.power import NodeVariability, PowerModel
from repro.hardware.rapl import _COUNTER_MASK, RAPL_ENERGY_UNIT_J, fold_deposits
from repro.hardware.topology import NodeTopology
from repro.util.rng import StreamPrefix, batched_lognormal, key_bytes


#: Fleets up to this many fresh members fold their RAPL deposits row by
#: row in scalar arithmetic; past it the column-vectorized fold wins
#: (about 4 us per charge column against 0.2 us per charge and row).
_SCALAR_FOLD_ROWS = 8


def _rapl_fold(joules: np.ndarray) -> np.ndarray:
    """Tick counts of depositing each row's energy sequence into a fresh
    RAPL accumulator.

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
        return np.array(
            [fold_deposits(0.0, row)[1] for row in joules.tolist()],
            dtype=np.int64,
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
    return ticks


@dataclass
class FleetMember:
    """One replay request: an application run on a fresh or a live node.

    A fresh-node member describes the experiment of one solo run:
    build ``ComputeNode(node_id, seed=seed, topology=...)``,
    optionally program ``point``'s frequencies, then
    ``ExecutionSimulator(node, seed=seed).run(app, threads=...,
    controller=..., instrumented=..., instrumentation=...,
    run_key=run_key)``.  ``point=None`` leaves the node at its default
    frequencies (the ``reset_to_default()`` start every analysis layer
    uses), and ``threads=None`` takes ``point``'s.  The kernel builds
    that node only if a controller's compile walks.  ``controller`` is
    a per-member instance — its statistics mutate exactly as in a solo
    run.

    ``node`` is the member's entry state: a live
    :class:`~repro.hardware.node.ComputeNode` the run executes on
    instead, from its current frequencies, clock and meters, which the
    run advances (the simulator's solo runs are such members).
    ``topology`` and ``point`` then do not apply, and ``node_id`` must
    be the node's.  A live node hosts at most one member per fleet.
    """

    app: object
    run_key: tuple
    node_id: int = 0
    seed: int = config.DEFAULT_SEED
    topology: NodeTopology | None = None
    point: object | None = None           #: OperatingPoint to program, or None
    threads: int | None = None
    controller: object | None = None
    instrumented: bool = False
    instrumentation: object | None = None
    node: ComputeNode | None = None       #: live entry state, or None (fresh)


class FleetReplay:
    """Per-member outcomes of one fleet pass, in member order.

    ``time_s``, ``node_energy_j`` and ``cpu_energy_j`` hold each
    member's run totals, all that a grid cell's payload reads.
    ``results[i]`` compares equal to the
    :class:`~repro.execution.simulator.RunResult` of member ``i``'s
    solo run; ``traces[i]`` is its priced
    :class:`~repro.execution.controlled_replay.RunTrace`, which its lazy
    instance log materialises from and listener events replay.  Both
    are built, block by block, on the first read of either.  A live
    member's node holds the state its run leaves; a fresh member has no
    node to hold one.
    """

    def __init__(self, members=(), at=()):
        self.members = tuple(members)
        self._at = tuple(at)  # (priced block, row) per member
        self.time_s, self.node_energy_j, self.cpu_energy_j = (
            tuple([getattr(block, total)[g] for block, g in self._at])
            for total in ("time_s", "node_energy_j", "cpu_energy_j")
        )

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @functools.cached_property
    def _runs(self) -> tuple:
        built: dict[int, tuple] = {}
        for block, _ in self._at:
            if id(block) not in built:
                built[id(block)] = block.runs()
        return (
            tuple([built[id(block)][0][g] for block, g in self._at]),
            tuple([built[id(block)][1][g] for block, g in self._at]),
        )

    @property
    def results(self) -> tuple:
        return self._runs[0]

    @property
    def traces(self) -> tuple:
        return self._runs[1]


#: The operating point a fresh member without ``point`` starts at.
_DEFAULT_POINT = OperatingPoint()


def _plan_member(
    member: FleetMember, schedules: dict, models: dict, recipes: dict
) -> tuple:
    """Compile one member's schedule from its entry state.

    Returns the member's schedule, power model, bound points and the
    operating point its run reports (its entry point).

    A live member enters at its node's current frequencies.  A fresh
    member enters, controlled or not, at ``threads`` (else ``point``'s)
    and at ``point``'s frequencies (else the default) as a programmed
    node reports them: a :class:`~repro.hardware.node.NodeRecipe`.

    A controller compiles against the live node or the recipe.  A
    cached compile leaves a live node at its entry state, so it is then
    programmed to the schedule's exit frequencies with drained
    transition logs, as a walk leaves it (after a walk, a no-op).  A
    controller that declines (returns ``None``) must leave both
    untouched; it is refused.  A member without a controller reuses the
    fleet's walk of its application build and instrumentation and binds
    the schedule's one point to its entry point; fresh ones that share
    an application build, a node recipe, requested threads and an
    instrumentation share one schedule, power model and thread count.
    """
    app = member.app
    node = member.node
    controller = member.controller
    if node is None:
        threads = member.threads
        point = member.point
        if point is None:
            point = _DEFAULT_POINT  # the platform default frequencies
        elif threads is None:
            threads = point.threads
        if controller is None:
            # The cells of a grid row differ only in their point and run
            # key: one lookup per member finds the schedule, power model
            # and thread count its recipe computed once.
            key = (
                id(app), member.node_id, member.seed, id(member.topology),
                threads, member.instrumented, id(member.instrumentation),
            )
            if key not in recipes:
                topology, power_model = _fresh_model(member, models)
                threads = resolve_threads(app, threads, topology.num_cores)
                recipes[key] = (
                    _uncontrolled_schedule(member, schedules), power_model, threads
                )
            schedule, power_model, threads = recipes[key]
        else:
            topology, power_model = _fresh_model(member, models)
            threads = resolve_threads(app, threads, topology.num_cores)
        entry = _entry_point(point.core_freq_ghz, point.uncore_freq_ghz, threads)
    else:
        power_model = node.power_model
        threads = resolve_threads(app, member.threads, node.topology.num_cores)
        entry = OperatingPoint(node.core_freq_ghz, node.uncore_freq_ghz, threads)
        if controller is None:
            schedule = _uncontrolled_schedule(member, schedules)
    if controller is None:
        return schedule, power_model, (entry,), entry

    host = node
    if node is None:
        host = NodeRecipe(
            member.node_id, member.seed, topology, entry.core_freq_ghz,
            entry.uncore_freq_ghz,
        )
    schedule = controller.compile_schedule(
        app,
        host,
        threads=entry.threads,
        instrumented=member.instrumented or member.instrumentation is not None,
        instrumentation=member.instrumentation,
    )
    if schedule is None:
        raise TuningError(
            f"controller {type(controller).__name__} declined to compile "
            f"its switch schedule for {app.name}"
        )
    if node is not None:
        node.set_frequencies(*schedule.exit_frequencies)
        node.dvfs.log.clear()
        node.ufs.log.clear()
    return schedule, power_model, schedule.points, entry


def _fresh_model(member: FleetMember, models: dict) -> tuple:
    """A fresh member's topology and power model, one per node recipe.

    The model depends on the variability and the socket/core counts
    only; keying on the topology object's identity (members stay alive
    for the whole pass) spares hashing its core tree.
    """
    key = (member.node_id, member.seed, id(member.topology))
    if key not in models:
        topology = member.topology or NodeTopology.default()
        models[key] = topology, PowerModel(
            NodeVariability.sample(member.node_id, seed=member.seed),
            num_sockets=topology.num_sockets,
            num_cores=topology.num_cores,
        )
    return models[key]


def _uncontrolled_schedule(member: FleetMember, schedules: dict):
    """The fleet's one walk of a member's application build and
    instrumentation without a controller."""
    instrumentation = member.instrumentation
    instrumented = member.instrumented or instrumentation is not None
    key = (
        id(member.app),
        instrumented,
        None if instrumentation is None else frozenset(instrumentation.filtered),
    )
    schedule = schedules.get(key)
    if schedule is None:
        schedule = schedules[key] = compile_schedule_by_walk(
            None,
            member.app,
            None,
            threads=None,
            instrumented=instrumented,
            instrumentation=instrumentation,
        )
    return schedule


#: The last block priced on each live node's power model, keyed by what
#: its arrays depend on.  A live node's solo runs price one schedule at
#: the same points run after run; fresh-node models live for one fleet
#: pass and are never looked up here.
_LAST_PRICED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass
class _Block:
    """The members sharing one schedule and one power model, priced at
    all their points at once, then flattened together.  A live member's
    block holds it alone, with its node.  It holds no run result, so the
    members' lazy traces keep no reference cycle alive."""

    schedule: ControlSchedule
    power_model: PowerModel
    node: ComputeNode | None = None   #: a live member's node, or None
    members: list = field(default_factory=list)
    points: list = field(default_factory=list)   #: each member's bound points
    entries: list = field(default_factory=list)  #: each member's entry point
    rows: np.ndarray | None = None    #: (G, S) price-table row per member point
    prices: object = None             #: the replay._BlockEval
    durations_work: list = field(default_factory=list)  #: (G, W, n) per span
    offsets: list = field(default_factory=list)  #: first charge per span
    # each member's run, filled when priced
    timeline: np.ndarray | None = None  #: (G, charges + 1) simulated clock
    time_s: list = field(default_factory=list)
    node_energy_j: list = field(default_factory=list)
    cpu_energy_j: list = field(default_factory=list)

    def spans(self, g: int) -> tuple:
        """Member ``g``'s spans for
        :func:`~repro.execution.controlled_replay.materialise_instances`:
        each pattern's slots bound to the member's points and priced."""
        points = self.points[g]
        rows = self.rows[g]
        node_w = self.prices.node_w[rows].tolist()  # per schedule point
        cpu_fraction = self.prices.cpu_fraction[rows].tolist()
        return tuple(
            (
                tuple(
                    _bind(slot, points, node_w, cpu_fraction)
                    for slot in self.schedule.patterns[index].slots
                ),
                self.schedule.patterns[index].num_charges,
                start,
                count,
                offset,
                None if work is None else work[g],
            )
            for (index, start, count), work, offset in zip(
                self.schedule.spans, self.durations_work, self.offsets
            )
        )

    def runs(self) -> tuple:
        """Each member's ``RunResult`` and priced
        :class:`~repro.execution.controlled_replay.RunTrace`; what the
        members share is read once per block."""
        schedule = self.schedule
        post_order = schedule.post_order
        switching_time_s = schedule.switching_time_s
        instrumentation_time_s = schedule.instrumentation_time_s
        spans = self.spans
        results, traces = [], []
        for g, (member, entry) in enumerate(zip(self.members, self.entries)):
            trace = RunTrace(post_order, self.timeline[g], functools.partial(spans, g))
            traces.append(trace)
            results.append(
                RunResult(
                    app_name=member.app.name,
                    node_id=member.node_id,
                    operating_point=entry,
                    time_s=self.time_s[g],
                    node_energy_j=self.node_energy_j[g],
                    cpu_energy_j=self.cpu_energy_j[g],
                    switching_time_s=switching_time_s,
                    instrumentation_time_s=instrumentation_time_s,
                    instances=InstanceLog.deferred(trace),
                )
            )
        return results, traces


def _bind(slot: _Slot, points: tuple, node_w: list, cpu_fraction: list) -> _Slot:
    """A symbolic slot at its bound point, with its power fields;
    ``node_w`` and ``cpu_fraction`` hold one price-table row per point."""
    k, w = slot.point_index, slot.work_index
    work = slot.has_work
    return _Slot(
        region=slot.region,
        children=slot.children,
        has_work=work,
        probed=slot.probed,
        probe_s=slot.probe_s,
        work_index=w,
        point_index=k,
        charge_start=slot.charge_start,
        charge_end=slot.charge_end,
        point=points[k],
        node_w=node_w[k][w] if work else 0.0,
        cpu_fraction=cpu_fraction[k][w] if work else 0.0,
        probe_node_w=node_w[k][PROBE_COLUMN] if slot.probed else 0.0,
    )


def _price_block(block: _Block) -> None:
    """Price one block: the distinct point bindings of its members
    become the rows of one array pass.

    Members bound to the same points object (the controlled runs of one
    schedule) share rows; a live member reuses its node's last priced
    block when the schedule's work and the points repeat.
    """
    schedule = block.schedule
    points: list = []
    at: dict[int, int] = {}
    bases = []
    for bound in block.points:
        base = at.get(id(bound))
        if base is None:
            base = at[id(bound)] = len(points)
            points.extend(bound)
        bases.append(base)
    block.rows = np.add.outer(bases, np.arange(len(schedule.points)))
    probed, switched = schedule.any_probed, schedule.any_switch
    if block.node is None:
        block.prices = _evaluate_block(
            schedule.work_chars, block.power_model, points, probed=probed,
            switched=switched,
        )
        return
    key = (schedule.work_chars, probed, switched, tuple(points))
    last = _LAST_PRICED.get(block.power_model)
    if last is None or last[0] != key:
        prices = _evaluate_block(
            schedule.work_chars, block.power_model, points, probed=probed,
            switched=switched,
        )
        for array in vars(prices).values():
            array.setflags(write=False)
        last = _LAST_PRICED[block.power_model] = (key, prices)
    block.prices = last[1]


def _flatten(block: _Block, noise: np.ndarray) -> tuple:
    """Flatten a priced block under its (members, work, iteration) noise.

    Span by span, each member's charges are its pattern's fixed
    durations with the body columns set to ``base time x noise``, and
    its per-charge powers are gathered from the price tables at its
    bound rows and tiled over the span's iterations.  Returns the
    ``(members, charges)`` durations and power components; each row is
    the exact charge sequence of that member's run, bit-identical to
    flattening it on its own.
    """
    schedule, prices = block.schedule, block.prices
    runs = noise.shape[0]
    parts = []
    offset = 0
    for index, start, count in schedule.spans:
        pattern = schedule.patterns[index]
        num_charges = pattern.num_charges
        rows = block.rows[:, pattern.charge_points]
        cols = pattern.charge_cols
        durations = np.empty((runs, count, num_charges))
        durations[:] = pattern.fixed_durations
        work = None
        if pattern.body.size:
            body = pattern.body
            base = prices.base_times[rows[:, body], cols[body]]
            work = base[:, :, None] * noise[:, :, start:start + count]
            durations[:, :, body] = work.transpose(0, 2, 1)
        block.durations_work.append(work)
        block.offsets.append(offset)
        width = count * num_charges
        parts.append(
            (
                durations.reshape(runs, width),
                *(
                    table[rows, cols][:, None, :]
                    .repeat(count, axis=1)
                    .reshape(runs, width)
                    for table in (prices.node_w, prices.package_w, prices.dram_w)
                ),
            )
        )
        offset += width
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column, axis=1) for column in zip(*parts))


def _total(values: np.ndarray) -> float:
    """Strict left-fold sum, 0.0 when empty."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _price_on_node(block: _Block, durations, node_w, package_w, dram_w) -> None:
    """Price a live member's charges on its own node: the clock, HDEEM
    and RAPL continue from the node's state through ``advance_many``."""
    node = block.node
    start_time = node.now_s
    start_cpu_j = node.rapl.read_cpu_energy_joules()
    # Simulated clock after each charge; cumsum is a strict left fold, so
    # every value matches a region-by-region run's repeated ``+=``.
    block.timeline = np.cumsum(np.concatenate(([start_time], durations)))[None]
    node.advance_many(durations, node_w, package_w, dram_w)
    block.time_s = [node.now_s - start_time]
    block.node_energy_j = [_total(node_w * durations)]
    block.cpu_energy_j = [node.rapl.read_cpu_energy_joules() - start_cpu_j]


def fleet_run(members) -> FleetReplay:
    """Price every fleet member in one batched pass.

    Returns a :class:`FleetReplay` whose per-member results are
    bit-identical to running each member on its own, region by region:
    on a fresh node, or on the member's live ``node``, which it leaves
    in that run's end state.
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

    # Members sharing a schedule and a power model are one block, priced
    # in one array pass and flattened together; a live member's power
    # model is its node's, so it stands alone.
    schedules: dict = {}
    models: dict = {}
    recipes: dict = {}
    groups: dict[tuple, _Block] = {}
    at = []  # (block, row) per member
    for m in members:
        schedule, power_model, points, entry = _plan_member(
            m, schedules, models, recipes
        )
        key = (id(schedule), id(power_model))
        block = groups.get(key)
        if block is None:
            block = groups[key] = _Block(schedule, power_model, m.node)
        at.append((block, len(block.members)))
        block.members.append(m)
        block.points.append(points)
        block.entries.append(entry)
    blocks = list(groups.values())
    for block in blocks:
        _price_block(block)

    # -- block flattening; live members price on their nodes ---------------
    fresh = []   # (block, durations, node_w, package_w, dram_w), one row each
    for block, noise in zip(blocks, _draw_noise(blocks)):
        charges = _flatten(block, noise)
        if block.node is None:
            fresh.append((block, *charges))
        else:
            _price_on_node(block, *(c[0] for c in charges))
    if fresh:
        _price_fresh(fresh)
    return FleetReplay(members, at)


def _draw_noise(blocks: list) -> list:
    """Every block's keyed time noise, one (members, work, iteration)
    view each, from one fleet-wide draw.

    Each run's (work x iteration) seed matrix flattens row-major — the
    exact order its solo run would reshape — into one digest buffer,
    and per-seed independence makes the fleet-wide batch sliceable
    without drift.  The key prefix ``(seed, "time", node_id)`` is hashed
    once per seed and node id object (an equal part of another type
    keeps its own ``repr``), so the cells of a grid row share it.
    """
    shapes = []
    digests: list[bytes] = []
    nodes: dict[tuple, StreamPrefix] = {}
    for block in blocks:
        schedule = block.schedule
        work_keys = [key_bytes(name) for name in schedule.work_names]
        iterations = schedule.iterations
        shapes.append((len(block.members), len(work_keys), iterations))
        for m in block.members:
            ids = id(m.seed), id(m.node_id)
            if ids not in nodes:
                nodes[ids] = StreamPrefix("time", m.node_id, seed=m.seed)
            _seed_digests(digests, work_keys, iterations, nodes[ids], m.run_key)
    bounds = [0, *itertools.accumulate(math.prod(shape) for shape in shapes)]
    noise = batched_lognormal(
        np.frombuffer(b"".join(digests), dtype="<u8"), TIME_NOISE_SIGMA
    )
    return [
        noise[lo:hi].reshape(shape)
        for shape, lo, hi in zip(shapes, bounds, bounds[1:])
    ]


def _price_fresh(fresh: list) -> None:
    """Price fresh-node members in one zero-padded batch.

    Each member's flattened charge sequence becomes one row of a shared
    ``(members, max_charges)`` matrix, short rows padded with zeros;
    row-wise strict left folds make the trailing zero charges exact
    no-ops.
    """
    num = sum(d.shape[0] for _, d, *_ in fresh)
    width = max(d.shape[1] for _, d, *_ in fresh)
    durations = np.zeros((num, width))
    node_w = np.zeros((num, width))
    package_w = np.zeros((num, width))
    dram_w = np.zeros((num, width))
    sockets = np.empty(num, dtype=np.int64)
    first = 0
    for block, d, n_w, p_w, r_w in fresh:
        rows = slice(first, first + d.shape[0])
        n = d.shape[1]
        durations[rows, :n] = d
        node_w[rows, :n] = n_w
        package_w[rows, :n] = p_w
        dram_w[rows, :n] = r_w
        sockets[rows] = block.power_model.num_sockets
        first = rows.stop

    timeline = np.cumsum(
        np.concatenate((np.zeros((num, 1)), durations), axis=1), axis=1
    )
    time_s = timeline[:, -1]
    if width:
        node_energy = np.add.accumulate(node_w * durations, axis=1)[:, -1]
    else:
        node_energy = np.zeros(num)

    # CPU energy (fresh accumulators; each socket sees the identical
    # per-charge deposit, node totals sum socket by socket).  The
    # package and DRAM rows fold in one pass: rows fold independently.
    per_socket = np.concatenate((sockets, sockets)).astype(float).reshape(-1, 1)
    raw = _rapl_fold(
        np.concatenate((package_w * durations, dram_w * durations)) / per_socket
    ).astype(np.uint64)
    socket_j = (raw & np.uint64(_COUNTER_MASK)).astype(np.float64) * RAPL_ENERGY_UNIT_J
    package_socket_j, dram_socket_j = socket_j[:num], socket_j[num:]
    package_node_j = np.zeros(num)
    dram_node_j = np.zeros(num)
    for s in range(int(sockets.max(initial=0))):
        live = sockets > s
        package_node_j[live] = package_node_j[live] + package_socket_j[live]
        dram_node_j[live] = dram_node_j[live] + dram_socket_j[live]
    cpu_energy = package_node_j + dram_node_j

    # ``tolist`` yields the same Python floats as per-element reads.
    times = time_s.tolist()
    node_energies = node_energy.tolist()
    cpu_energies = cpu_energy.tolist()
    first = 0
    for block, d, *_ in fresh:
        rows = slice(first, first + d.shape[0])
        block.timeline = timeline[rows]
        block.time_s = times[rows]
        block.node_energy_j = node_energies[rows]
        block.cpu_energy_j = cpu_energies[rows]
        first = rows.stop
