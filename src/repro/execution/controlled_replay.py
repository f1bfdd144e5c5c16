"""The run compiler: one switch schedule per run, controlled or not.

Every measurement in the paper is the same kind of run: the phase loop
executes while the READEX RRL (or PTF's experiment schedule, or
nothing) sets core/uncore frequency and thread count at region enters.
Such a run is fully determined before any time passes — a controller's
decisions depend only on region names and the current hardware state,
never on durations or noise — so every run splits into three steps:

**Compilation** (:func:`compile_schedule_by_walk`).  The region trace
is walked symbolically (:func:`_walk_iteration`): a controller's real
``on_region_enter``/``on_region_exit`` hooks run against the live
node's frequency subsystem (MSRs, DVFS/UFS transition logs), but no
simulated time passes, no meter is charged and nothing is priced.  The
walk records, per iteration, the ordered *charge sequence* — switch
latencies, region bodies, probe overheads, each with its kind, slot and
operating point, the points interned as indices into the schedule's
``points`` — i.e. the symbolic switch schedule.  Because controller
decisions are iteration-independent, the walk reaches a fixed point
after at most two iterations in practice: once an iteration starts from
the same (frequencies, pending transitions, controller state) as its
predecessor, its pattern — and every later iteration's — is already
known, and the controller's statistics are extrapolated instead of
re-walked.  Controller hooks therefore never see a priced value.  A run
without a controller walks once, fires no hook and switches nothing:
its schedule is one pattern spanning every iteration, with one unbound
point (``None``) that each run binds to its effective operating point
when it is priced.

**Pricing and flattening** happen in the fleet kernel
(:mod:`repro.execution.fleet_replay`): the runs that share a schedule
and a power model form one block, priced at their bound points in one
array pass and flattened to a ``(runs, charges)`` matrix under their
keyed lognormal noise.

**Materialisation.**  A priced run is a :class:`RunTrace`:
:func:`materialise_instances` derives its instance rows lazily and
:func:`deliver_events` replays its region events to listeners.

The output is **bit-identical** to the recursive reference engine
(``tests/oracles/engine.py``) with the same controller attached: same
``RunResult``, same :class:`~repro.readex.rrl.RRLStatistics`, same keyed
RNG streams, same observable node state afterwards.  Every controller
compiles through ``compile_schedule`` (see
:class:`~repro.execution.simulator.RunController`); the RRL (static
tuning included, as a default-only tuning model) and the PTF experiment
schedule do.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import config
from repro.counters.generation import MeasurementContext
from repro.execution.simulator import (
    OperatingPoint,
    RegionInstance,
    probe_overhead_s,
)
from repro.hardware.node import NodeRecipe
from repro.workloads.application import Application
from repro.workloads.region import Region

#: Price-table columns of the fixed-cost charges: a block's power
#: tables hold one column per work region, then the probe and the
#: switch column (see :func:`~repro.execution.replay._evaluate_block`).
PROBE_COLUMN, SWITCH_COLUMN = -2, -1


def pending_switch_latency_s(dvfs_transitions: int, ufs_transitions: int) -> float:
    """Hardware latency charged for pending frequency transitions.

    One DVFS and one UFS latency at most per check, however many
    cores/sockets switched.
    """
    latency = 0.0
    if dvfs_transitions:
        latency += config.DVFS_TRANSITION_LATENCY_S
    if ufs_transitions:
        latency += config.UFS_TRANSITION_LATENCY_S
    return latency


@dataclass
class _Slot:
    """One region of the flattened phase subtree (pre-order).  The walk
    fills the symbolic fields; a priced run's copies also carry the
    bound operating point and the power fields."""

    region: Region
    children: tuple[int, ...]
    has_work: bool
    probed: bool
    probe_s: float
    work_index: int               #: row in the work-region arrays, -1
    point_index: int              #: the body's point, in the schedule's points
    charge_start: int             #: span in this pattern's charge sequence
    charge_end: int
    point: object = None          #: bound OperatingPoint of the body
    node_w: float = 0.0           #: body power
    cpu_fraction: float = 0.0
    probe_node_w: float = 0.0


@dataclass
class _Pattern:
    """The symbolic charge plan of one distinct iteration shape."""

    slots: tuple[_Slot, ...]
    fixed_durations: np.ndarray   #: (C,) switch/probe durations, 0 for bodies
    charge_points: np.ndarray     #: (C,) index into the schedule's points
    #: (C,) price-table column per charge: the work row of a body,
    #: :data:`PROBE_COLUMN` or :data:`SWITCH_COLUMN`.
    charge_cols: np.ndarray
    body: np.ndarray              #: body charge positions, in work-row order
    switch_latencies: np.ndarray  #: switch-charge durations, in order
    probe_overheads: np.ndarray   #: probe-charge durations, in order

    @property
    def num_charges(self) -> int:
        return int(self.fixed_durations.size)

    @property
    def num_switches(self) -> int:
        return int(self.switch_latencies.size)


@dataclass
class ControlSchedule:
    """Compiled switch schedule of one run.

    ``spans`` segments the iteration axis: ``(pattern index, first
    iteration, count)`` triples in order, jointly covering every
    iteration exactly once.  ``points`` holds the distinct operating
    points the charges run at, in first-seen order; slots and charges
    name them by index.  A run without a controller has one unbound
    point, ``None``, which each run binds to its effective operating
    point when its block is priced.  ``exit_frequencies`` is the
    (core, uncore) GHz pair the walk leaves its node at, ``None`` without
    a controller.  The remaining fields are derived from the patterns
    once, at compile time.
    """

    patterns: list[_Pattern]
    spans: list[tuple[int, int, int]]
    points: tuple
    post_order: tuple[int, ...]
    iterations: int
    work_names: tuple[str, ...]   #: region per work row (noise-matrix rows)
    work_chars: tuple             #: characteristics per work row
    any_probed: bool
    any_switch: bool
    switching_time_s: float       #: accumulated switch latency of the run
    instrumentation_time_s: float  #: accumulated probe overhead of the run
    exit_frequencies: tuple[float, float] | None

    @property
    def region_enters(self) -> int:
        """Region enters over the whole run (every slot, every iteration)."""
        return sum(
            len(self.patterns[p].slots) * count for p, _start, count in self.spans
        )

    @property
    def switch_charges(self) -> int:
        """Hardware switch charges over the whole run."""
        return sum(
            self.patterns[p].num_switches * count for p, _start, count in self.spans
        )


class ScheduleCache:
    """Equality-keyed cache of compiled control schedules.

    A compiled schedule is a pure function of (application, controller
    configuration and state, node topology, entry hardware state,
    instrumentation) — everything *except* the run key, whose noise is
    applied at replay time, and the node's physics, which the fleet
    kernel prices.  Production sweeps repeat
    the same configuration many times (Table 6 averages five runs per
    variant), so caching the compile amortises the symbolic walk to
    once per configuration.  Applications are compared by value
    (registry builds return fresh but equal trees every call); entries
    are evicted FIFO beyond ``maxsize``.
    """

    def __init__(self, maxsize: int = 32):
        self._maxsize = maxsize
        self._entries: list[tuple[object, tuple, object]] = []

    def get(self, app, key: tuple):
        for cached_app, cached_key, value in self._entries:
            if cached_key == key and cached_app == app:
                return value
        return None

    def put(self, app, key: tuple, value) -> None:
        self._entries.append((app, key, value))
        if len(self._entries) > self._maxsize:
            del self._entries[0]


#: Per-owner caches, evicted when the owner is garbage-collected.
_OWNER_CACHES: dict[int, ScheduleCache] = {}


def schedule_cache_for(owner) -> ScheduleCache:
    """The schedule cache tied to ``owner``'s lifetime (e.g. a tuning
    model): shared by every controller built over the same object,
    released with it — without mutating or pickling along with it."""
    ident = id(owner)
    cache = _OWNER_CACHES.get(ident)
    if cache is None:
        cache = _OWNER_CACHES[ident] = ScheduleCache()
        weakref.finalize(owner, _OWNER_CACHES.pop, ident, None)
    return cache


@dataclass
class CompiledControl:
    """One cached compile: the schedule plus the controller's end-of-run
    state and statistics delta, which a cache hit absorbs."""

    schedule: ControlSchedule
    controller_state: object      #: the controller's final internal state
    stats: object                 #: the run's statistics delta


def schedule_cache_key(
    node, *, threads: int, instrumented: bool, instrumentation
) -> tuple:
    """The run-invariant part of a schedule cache key.

    Captures everything of the *environment* a compiled schedule bakes
    in: the topology, entry frequencies and pending transitions (per
    domain: the charged latency is per domain, not per transition) of
    ``node`` — a :class:`~repro.hardware.node.ComputeNode` or a fresh
    member's :class:`~repro.hardware.node.NodeRecipe` — and the
    instrumentation configuration.  Controller state is the caller's to
    append.  The node's id, seed and variability stay out: the walk
    never prices and the frequency subsystem is seed-free, so every node
    of one topology walks the same schedule, and the fleet kernel prices
    it against each node's physics.
    """
    filter_key = (
        None
        if instrumentation is None
        else frozenset(instrumentation.filtered)
    )
    return (
        threads,
        instrumented,
        filter_key,
        node.topology,
        node.core_freq_ghz,
        node.uncore_freq_ghz,
        *node.pending_transitions,
    )


def compile_schedule_by_walk(
    controller,
    app: Application,
    node,
    *,
    threads: int | None,
    instrumented: bool,
    instrumentation,
    state_key: Callable[[], object] | None = None,
    snapshot_stats: Callable[[], object] | None = None,
    extrapolate_stats: Callable[[object, object, int], None] | None = None,
) -> ControlSchedule:
    """Walk the region trace once against ``controller`` and compile it.

    The controller's real enter/exit hooks run against ``node``'s
    frequency subsystem, so MSR programming, quantization and transition
    logging are exactly those of a region-by-region run; only meters
    and the clock stay untouched.  A
    :class:`~repro.hardware.node.NodeRecipe` is built into its node
    first: a fresh member's node exists only for its walk.  After the
    walk the node is at its end-of-run frequencies, which the schedule
    records (``exit_frequencies``), with cleared transition logs.

    ``state_key`` fingerprints the controller's internal state; once an
    iteration begins from the same (frequencies, pending transitions,
    state-key) as its predecessor, the remaining iterations reuse the
    last pattern and ``extrapolate_stats(before, after, copies)`` is
    asked to scale that pattern's statistics delta instead of walking.
    Controllers whose decisions depend on the iteration *index* must not
    use this compiler.

    Without a controller (``controller``, ``node`` and ``threads`` are
    ``None``) the walk fires no hook and switches nothing, so its one
    pattern spans every iteration under one unbound point.
    """
    if isinstance(node, NodeRecipe):
        node = node.build()
    iterations = app.phase_iterations
    points: dict = {}
    patterns: list[_Pattern] = []
    spans: list[tuple[int, int, int]] = []
    prev_key = None
    last_before = last_after = None
    walked = 0
    while walked < iterations:
        key = None if controller is None else (
            node.core_freq_ghz,
            node.uncore_freq_ghz,
            node.dvfs.log.count,
            node.ufs.log.count,
            state_key(),
        )
        if walked and key == prev_key:
            remaining = iterations - walked
            index, start, count = spans[-1]
            spans[-1] = (index, start, count + remaining)
            if extrapolate_stats is not None:
                extrapolate_stats(last_before, last_after, remaining)
            break
        last_before = snapshot_stats() if snapshot_stats is not None else None
        pattern = _walk_iteration(
            controller, app, node, threads, walked, instrumented, instrumentation,
            points,
        )
        last_after = snapshot_stats() if snapshot_stats is not None else None
        patterns.append(pattern)
        spans.append((len(patterns) - 1, walked, 1))
        prev_key = key
        walked += 1

    post_order: list[int] = []
    slots = patterns[0].slots

    def order(index: int) -> None:
        for child in slots[index].children:
            order(child)
        post_order.append(index)

    order(0)
    work = [slot.region for slot in slots if slot.has_work]
    return ControlSchedule(
        patterns=patterns,
        spans=spans,
        points=tuple(points),
        post_order=tuple(post_order),
        iterations=iterations,
        work_names=tuple([region.name for region in work]),
        work_chars=tuple([region.characteristics for region in work]),
        any_probed=any(p.probe_overheads.size for p in patterns),
        any_switch=any(p.switch_latencies.size for p in patterns),
        switching_time_s=_accumulated(patterns, spans, "switch_latencies"),
        instrumentation_time_s=_accumulated(patterns, spans, "probe_overheads"),
        exit_frequencies=(
            None if controller is None
            else (node.core_freq_ghz, node.uncore_freq_ghz)
        ),
    )


def _accumulated(patterns: list[_Pattern], spans, name: str) -> float:
    """Strict left-fold sum of one fixed charge kind (a ``_Pattern``
    field) over a run, 0.0 when it has none."""
    parts = [
        _tile(getattr(patterns[p], name), count)
        for p, _start, count in spans
        if getattr(patterns[p], name).size
    ]
    if not parts:
        return 0.0
    return float(np.add.accumulate(np.concatenate(parts))[-1])


def _walk_iteration(
    controller,
    app: Application,
    node,
    threads: int | None,
    iteration: int,
    instrumented: bool,
    instrumentation,
    points: dict,
) -> _Pattern:
    """One symbolic pre-order walk of a region-by-region run minus the
    meters: controller hooks fire for real, switching latencies are read
    off the live transition logs, and each charge records the operating
    point the node holds at that moment, interned in ``points``.
    Nothing is priced here.  Without a controller every charge runs at
    the one unbound point ``None``."""
    slots: list[_Slot | None] = []
    fixed: list[float] = []
    charge_points: list[int] = []
    charge_cols: list[int] = []
    body: list[int] = []
    switches: list[float] = []
    probes: list[float] = []
    work_count = 0

    def point_at(frame_threads: int) -> int:
        point = OperatingPoint(
            core_freq_ghz=node.core_freq_ghz,
            uncore_freq_ghz=node.uncore_freq_ghz,
            threads=frame_threads,
        )
        return points.setdefault(point, len(points))

    def drain_switches(frame_threads: int) -> None:
        dvfs_n = node.dvfs.log.count
        ufs_n = node.ufs.log.count
        node.dvfs.log.clear()
        node.ufs.log.clear()
        latency = pending_switch_latency_s(dvfs_n, ufs_n)
        if latency > 0:
            fixed.append(latency)
            charge_points.append(point_at(frame_threads))
            charge_cols.append(SWITCH_COLUMN)
            switches.append(latency)

    def visit(region: Region, frame_threads) -> int:
        nonlocal work_count
        index = len(slots)
        slots.append(None)
        if controller is None:
            point = 0
        else:
            new_threads = controller.on_region_enter(region, iteration, node)
            if new_threads:
                frame_threads = new_threads
            drain_switches(frame_threads)
            point = point_at(frame_threads)
        charge_start = len(fixed)
        probed = instrumented and (
            instrumentation is None or instrumentation.is_instrumented(region)
        )
        work_index = -1
        if region.has_work:
            work_index = work_count
            work_count += 1
            body.append(charge_start)
            fixed.append(0.0)
            charge_points.append(point)
            charge_cols.append(work_index)
        probe_s = 0.0
        if probed:
            probe_s = probe_overhead_s(region)
            fixed.append(probe_s)
            charge_points.append(point)
            charge_cols.append(PROBE_COLUMN)
            probes.append(probe_s)
        children = tuple([visit(child, frame_threads) for child in region.children])
        charge_end = len(fixed)
        if controller is not None:
            controller.on_region_exit(region, iteration, node)
            drain_switches(frame_threads)
        slots[index] = _Slot(
            region=region,
            children=children,
            has_work=region.has_work,
            probed=probed,
            probe_s=probe_s,
            work_index=work_index,
            point_index=point,
            charge_start=charge_start,
            charge_end=charge_end,
        )
        return index

    if controller is None:
        points.setdefault(None, 0)
    visit(app.phase, threads)
    return _Pattern(
        slots=tuple(slots),  # type: ignore[arg-type]
        fixed_durations=np.array(fixed, dtype=float),
        charge_points=np.array(charge_points, dtype=np.intp),
        charge_cols=np.array(charge_cols, dtype=np.intp),
        body=np.array(body, dtype=np.intp),
        switch_latencies=np.array(switches, dtype=float),
        probe_overheads=np.array(probes, dtype=float),
    )


def _tile(vector: np.ndarray, count: int) -> np.ndarray:
    """``np.tile(vector, count)`` of a 1-D vector, minus its Python-level
    overhead."""
    return vector[None, :].repeat(count, axis=0).reshape(-1)


def materialise_instances(spans, post_order, timeline: np.ndarray) -> list:
    """Derive every :class:`RegionInstance` row of one replayed run.

    ``spans`` holds one ``(slots, charges per iteration, first
    iteration, count, charge offset, durations_work)`` tuple per
    segment: the compiled slots of the pattern those iterations
    execute, where the segment's first charge sits in the run's
    flattened sequence, and its (W, count) noisy body durations.  An
    uncontrolled run is one span of one pattern.  ``timeline`` is the
    simulated clock after each flattened charge (with a leading entry
    time); only positions within the run's real charge count are read,
    so a row sliced out of a padded fleet matrix works exactly like the
    per-run vector.
    """
    rows: list = []
    append = rows.append
    for slots, num_charges, start, count, span_offset, durations_work in spans:
        num_slots = len(slots)
        offsets = span_offset + np.arange(count) * num_charges
        enter_index = np.array([s.charge_start for s in slots])
        exit_index = np.array([s.charge_end for s in slots])
        enter = timeline[offsets[:, None] + enter_index[None, :]]
        total_time = timeline[offsets[:, None] + exit_index[None, :]] - enter

        zeros = np.zeros(count)
        body_energy: list = [None] * num_slots
        for k, slot in enumerate(slots):
            energy = None
            if slot.has_work:
                energy = slot.node_w * durations_work[slot.work_index]
            if slot.probed:
                probe_joules = slot.probe_node_w * slot.probe_s
                energy = (
                    energy + probe_joules
                    if energy is not None
                    else np.full(count, probe_joules)
                )
            body_energy[k] = energy if energy is not None else zeros

        # Inclusive energies: children accumulate in child order, own
        # body first — the reference engine's exact expression tree.
        # Switch charges never enter instance energies (they are
        # accounted to the run only).
        inclusive: list = [None] * num_slots
        for k in range(num_slots - 1, -1, -1):
            children_energy = None
            for child in slots[k].children:
                children_energy = (
                    inclusive[child]
                    if children_energy is None
                    else children_energy + inclusive[child]
                )
            if children_energy is None:
                children_energy = 0.0
            inclusive[k] = body_energy[k] + children_energy

        # A work body's time is always positive (positive instructions
        # and IPC, lognormal noise), so its CPU share needs no guard.
        cpu_energy = [
            body_energy[k] * slot.cpu_fraction if slot.has_work else zeros
            for k, slot in enumerate(slots)
        ]

        for i in range(count):
            iteration = start + i
            for k in post_order:
                slot = slots[k]
                append(
                    RegionInstance(
                        region_name=slot.region.name,
                        iteration=iteration,
                        start_s=float(enter[i, k]),
                        time_s=float(total_time[i, k]),
                        node_energy_j=float(inclusive[k][i]),
                        cpu_energy_j=float(cpu_energy[k][i]),
                        operating_point=slot.point,
                    )
                )
    return rows


@dataclass(eq=False)
class RunTrace:
    """One priced run, as its instance rows and listener events read it.

    ``timeline`` is the simulated clock after each flattened charge (with
    a leading entry time), ``post_order`` the slots' exit order, and
    ``spans`` the :func:`materialise_instances` spans.  ``build_spans``
    makes them on first read: an uncontrolled run's slots are built only
    then, so grid sweeps that never read rows never pay for them.
    Calling the trace materialises the rows, so it is its run's deferred
    instance-log producer.
    """

    post_order: tuple
    timeline: np.ndarray
    build_spans: Callable[[], tuple]

    @functools.cached_property
    def spans(self) -> tuple:
        return self.build_spans()

    def __call__(self) -> list:
        return materialise_instances(self.spans, self.post_order, self.timeline)


def inclusive_counters(span, generator, *, node_id: int, run_key: tuple):
    """Inclusive PAPI counters of every slot of one span.

    Returns the counter names and, per slot, a ``(count, counters)``
    matrix (``None`` where the subtree holds no work).  Each work slot's
    own values are one ``generator.sample_batch`` over the span's
    iterations, at its body time (probe included) and its own operating
    point, folded by :func:`fold_inclusive`.  Sample keys count
    iterations from zero, so the span must start the run (an
    uncontrolled run is one such span).
    """
    slots, _, _, _, _, durations_work = span
    names: tuple[str, ...] = ()

    def own(k: int) -> np.ndarray:
        nonlocal names
        slot = slots[k]
        sampled = generator.sample_batch(
            slot.region.characteristics,
            slot_context(slot, durations_work),
            key_prefix=(node_id, run_key, slot.region.name),
        )
        names = tuple(sampled)
        return np.column_stack(list(sampled.values()))

    inclusive = fold_inclusive(slots, own)
    return names, inclusive


def slot_context(slot, durations_work) -> MeasurementContext:
    """A work slot's counter-measurement context over a span: its body
    time per iteration (probe included) at its own operating point."""
    elapsed = durations_work[slot.work_index]
    if slot.probed:
        elapsed = elapsed + slot.probe_s
    return MeasurementContext(
        elapsed_s=elapsed,
        core_freq_ghz=slot.point.core_freq_ghz,
        threads=slot.point.threads,
    )


def fold_inclusive(slots, own) -> list:
    """Per slot, its subtree's sum of ``own(k)`` over the work slots
    ``k`` (``None`` where the subtree holds no work).  Children are
    added in order, then the slot's own values: the reference engine's
    dict-merge order."""
    inclusive: list = [None] * len(slots)
    for k in range(len(slots) - 1, -1, -1):  # pre-order: children come later
        acc = None
        for child in slots[k].children:
            if inclusive[child] is not None:
                acc = inclusive[child] if acc is None else acc + inclusive[child]
        if slots[k].has_work:
            values = own(k)
            acc = values if acc is None else acc + values
        inclusive[k] = acc
    return inclusive


def _tree_events(slots) -> list[tuple[int, bool]]:
    """``(slot, is_exit)`` per probed slot: enters in pre-order, each
    exit after its subtree."""
    events: list[tuple[int, bool]] = []

    def visit(k: int) -> None:
        events.append((k, False))
        for child in slots[k].children:
            visit(child)
        events.append((k, True))

    visit(0)
    return [(k, is_exit) for k, is_exit in events if slots[k].probed]


def deliver_events(trace: RunTrace, rows, listeners, counters=None) -> None:
    """Replay one priced run's region events to ``listeners``.

    Walks the trace's spans once per iteration in tree order:
    ``on_enter`` at a probed slot's first charge, ``on_exit`` after its
    subtree's last charge with ``time_s`` and ``node_energy_j`` from the
    slot's row in ``rows`` (the run's materialised instance rows) plus,
    when ``counters`` holds the run's :func:`inclusive_counters`, the
    slot's inclusive counter values.
    """
    timeline = trace.timeline.tolist()
    position = {k: p for p, k in enumerate(trace.post_order)}
    names, inclusive = counters if counters is not None else ((), ())
    values = [m.tolist() if m is not None else None for m in inclusive]
    first_row = 0
    for slots, num_charges, start, count, offset, _ in trace.spans:
        events = _tree_events(slots)
        for i in range(count):
            iteration = start + i
            at = offset + i * num_charges
            row_base = first_row + i * len(slots)
            for k, is_exit in events:
                slot = slots[k]
                if not is_exit:
                    time_s = timeline[at + slot.charge_start]
                    for listener in listeners:
                        listener.on_enter(slot.region, iteration, time_s)
                    continue
                row = rows[row_base + position[k]]
                metrics = {"time_s": row.time_s, "node_energy_j": row.node_energy_j}
                if values and values[k] is not None:
                    metrics.update(zip(names, values[k][i]))
                time_s = timeline[at + slot.charge_end]
                for listener in listeners:
                    listener.on_exit(slot.region, iteration, time_s, metrics)
        first_row += count * len(slots)
