"""Fleet-scale replay: one kernel for every batch of fresh-node runs.

A *fleet* is any mix of replay requests — different applications,
different (virtual) nodes, different controllers or none, instrumented
or not, any static operating point — and the kernel prices all of them
in one pass.  The Figures 6/7 heatmaps, the Table V exhaustive static
search, the trade-off study and every campaign shard are fleets:

**Phase 1 — per-member compilation.**  Uncontrolled members compile
through the one structural walk of :mod:`repro.execution.replay`
(:func:`~repro.execution.replay._compile_structure`, deduplicated
across members sharing an application build and instrumentation) and
evaluate it at their operating point
(:func:`~repro.execution.replay._evaluate_config`) against one power
model per node recipe.  Controller-driven members compile their switch
schedule exactly like the per-run engine
(:func:`~repro.execution.controlled_replay.compile_schedule_by_walk`
via the controller's ``compile_schedule`` protocol) against a real
:class:`~repro.hardware.node.ComputeNode`, so RRL statistics and
MSR/DVFS side effects are byte-for-byte those of the per-run path.

**Phase 2 — one fleet-wide noise draw.**  Every member's keyed
(work region x iteration) seed matrix is flattened and concatenated,
one :func:`~repro.util.rng.batched_lognormal` call covers the whole
fleet, and the draws are sliced back.  Keyed streams are drawn per
seed independently, so the batch boundary cannot change any member's
noise.

**Phase 3 — block flattening.**  Uncontrolled members sharing a
structure and an iteration count flatten as one block
(:func:`~repro.execution.replay._flatten_block`): a (members x
iteration x charge) matrix whose rows are each member's exact charge
sequence.  Controlled members flatten their span schedules one by one.

**Phase 4 — zero-padded batch pricing.**  Each member's flattened
charge sequence becomes one row of a shared ``(members, max_charges)``
matrix, short rows padded with zeros.  Row-wise ``cumsum`` /
``np.add.accumulate`` / RAPL tick folds are strict left folds per row,
and zero-duration charges are exact no-ops in every one of those folds
(``x + 0.0 == x``; a zero-energy RAPL deposit never advances the tick
counter), so padding cannot perturb any member's numbers.

**Phase 5 — per-member materialisation.**  Each member yields the
exact ``RunResult`` (lazy instance log included) and meter/MSR
:class:`MeterEndState` its per-run engine would produce on a fresh
node.

The contract is **bit-identical per member**: permuting the fleet,
splitting it, or batching unrelated members together never changes any
member's payload (property-tested in
``tests/execution/test_fleet_replay_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.errors import WorkloadError
from repro.execution.controlled_replay import (
    control_noise_seeds,
    flatten_control_schedule,
    materialise_control_instances,
)
from repro.execution.replay import (
    _compile_structure,
    _effective_frequency,
    _evaluate_config,
    _fill_seeds,
    _flatten_block,
    _ReplayState,
)
from repro.execution.simulator import (
    TIME_NOISE_SIGMA,
    ExecutionSimulator,
    InstanceLog,
    OperatingPoint,
    RunResult,
)
from repro.hardware.node import ComputeNode
from repro.hardware.power import NodeVariability, PowerModel
from repro.hardware.rapl import RAPL_ENERGY_UNIT_J
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


def _rapl_fold(joules: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tick counts and final residuals of depositing each row's energy
    sequence into a fresh RAPL accumulator.

    Replays :meth:`~repro.hardware.rapl.RaplAccumulator.deposit_many`'s
    float arithmetic per row, vectorized across rows: the per-segment
    ``int(total / unit)`` truncation and residual update are elementwise
    IEEE-754 operations, so each row matches the scalar fold to the bit.
    Zero-energy segments are exact no-ops in that arithmetic (the
    residual is always below one unit), matching ``advance_many``'s
    explicit zero-duration filtering.
    """
    unit = RAPL_ENERGY_UNIT_J
    n, segments = joules.shape
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
    """One replay request: an application run on a fresh virtual node.

    Every member describes the same experiment the per-run engines
    execute: build ``ComputeNode(node_id, seed=node_seed, topology=...,
    variability=...)``, optionally program ``point``'s frequencies,
    then ``ExecutionSimulator(node, seed=seed).run(app, threads=...,
    controller=..., instrumented=..., instrumentation=...,
    run_key=run_key)``.  ``point=None`` leaves the node at its default
    frequencies (the ``reset_to_default()`` start every analysis layer
    uses).  ``controller`` is a per-member instance — its statistics
    mutate exactly as in the per-run engines.
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


@dataclass
class FleetReplay:
    """Per-member results of one fleet pass, in member order.

    ``results[i]`` compares equal to the
    :class:`~repro.execution.simulator.RunResult` of member ``i``'s
    per-run execution; ``end_states[i]`` is the meter/MSR state that
    run would leave on its node.
    """

    members: tuple = ()
    results: tuple = ()
    end_states: tuple[MeterEndState, ...] = ()

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
    kind: str                         #: "uncontrolled" | "controlled" | "fallback"
    num_sockets: int = 0
    iterations: int = 0
    # uncontrolled
    structure: object = None
    evaluated: object = None
    durations_work: np.ndarray | None = None  #: (W, I) after flattening
    # controlled
    seeds: np.ndarray | None = None
    schedule: object = None
    entry_point: object = None
    final_core_ghz: float = 0.0
    final_uncore_ghz: float = 0.0
    flat: object = None               #: FlatControlSchedule
    # outcome: fallback members run eagerly through the per-run engines
    # while planning; the rest are filled after pricing
    result: object = None
    end_state: MeterEndState | None = None


def _resolve_threads(member: FleetMember, num_cores: int) -> int:
    """The per-run engines' thread resolution, member-local."""
    app = member.app
    threads = member.threads
    if threads is None and member.point is not None:
        threads = member.point.threads
    threads = threads or app.default_threads
    if not app.model.supports_thread_tuning:
        threads = app.default_threads
    if not 1 <= threads <= num_cores:
        raise WorkloadError(f"invalid thread count: {threads}")
    return threads


def _plan_controlled(member: FleetMember, node_seed: int) -> _MemberPlan:
    """Compile a controller-driven member's switch schedule.

    The schedule walk needs a live node: MSRs, DVFS/UFS logs and the
    controller statistics all mutate exactly as in the per-run engine.
    """
    app = member.app
    controller = member.controller
    node = ComputeNode(
        member.node_id,
        seed=node_seed,
        topology=member.topology,
        variability=member.variability,
    )
    threads = _resolve_threads(member, node.topology.num_cores)
    if member.point is not None:
        node.set_frequencies(member.point.core_freq_ghz, member.point.uncore_freq_ghz)
    entry_point = OperatingPoint(
        core_freq_ghz=node.core_freq_ghz,
        uncore_freq_ghz=node.uncore_freq_ghz,
        threads=threads,
    )
    compile_schedule = getattr(controller, "compile_schedule", None)
    schedule = None
    if compile_schedule is not None:
        schedule = compile_schedule(
            app,
            node,
            threads=threads,
            instrumented=member.instrumented or member.instrumentation is not None,
            instrumentation=member.instrumentation,
        )
    if schedule is None:
        # The controller declined (or predates the protocol): run this
        # member through the per-run engines on the very node we built —
        # the walk left it untouched on decline.
        result = ExecutionSimulator(node, seed=member.seed).run(
            app,
            threads=member.threads
            if member.threads is not None
            else (member.point.threads if member.point is not None else None),
            controller=controller,
            instrumented=member.instrumented,
            instrumentation=member.instrumentation,
            run_key=member.run_key,
        )
        return _MemberPlan(
            member=member,
            kind="fallback",
            result=result,
            end_state=meter_end_state(node),
        )
    plan = _MemberPlan(
        member=member,
        kind="controlled",
        num_sockets=node.topology.num_sockets,
        iterations=schedule.iterations,
        schedule=schedule,
        entry_point=entry_point,
        final_core_ghz=node.core_freq_ghz,
        final_uncore_ghz=node.uncore_freq_ghz,
    )
    if schedule.num_work:
        plan.seeds = control_noise_seeds(
            schedule, member.node_id, member.run_key, member.seed
        )
    else:
        plan.seeds = np.empty((0, schedule.iterations), dtype=np.uint64)
    return plan


def _plan_member(member: FleetMember, structures: dict, models: dict) -> _MemberPlan:
    """Compile one member: structure walk or controller schedule."""
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

    # The power model depends on the variability and the socket/core
    # counts only; keying on the topology object's identity (members
    # stay alive for the whole pass) spares hashing its core tree.
    mkey = (member.node_id, node_seed, id(member.topology), member.variability)
    power_model = models.get(mkey)
    if power_model is None:
        topo = member.topology or NodeTopology.default()
        power_model = models[mkey] = PowerModel(
            member.variability or NodeVariability.sample(member.node_id, seed=node_seed),
            num_sockets=topo.num_sockets,
            num_cores=topo.num_cores,
        )
    threads = _resolve_threads(member, power_model.num_cores)

    if member.point is not None:
        core_ghz, uncore_ghz = member.point.core_freq_ghz, member.point.uncore_freq_ghz
    else:
        core_ghz = config.DEFAULT_CORE_FREQ_GHZ
        uncore_ghz = config.DEFAULT_UNCORE_FREQ_GHZ
    effective = OperatingPoint(
        core_freq_ghz=_effective_frequency(
            core_ghz, config.CORE_FREQ_MIN_GHZ, config.CORE_FREQ_MAX_GHZ, "core"
        ),
        uncore_freq_ghz=_effective_frequency(
            uncore_ghz, config.UNCORE_FREQ_MIN_GHZ, config.UNCORE_FREQ_MAX_GHZ, "uncore"
        ),
        threads=threads,
    )
    return _MemberPlan(
        member=member,
        kind="uncontrolled",
        num_sockets=power_model.num_sockets,
        iterations=app.phase_iterations,
        structure=structure,
        evaluated=_evaluate_config(structure, power_model, effective),
    )


def fleet_run(members) -> FleetReplay:
    """Price every fleet member in one batched pass.

    Returns a :class:`FleetReplay` whose per-member results and end
    states are bit-identical to running each member individually
    through :class:`~repro.execution.simulator.ExecutionSimulator` on a
    fresh node.
    """
    members = list(members)
    if not members:
        return FleetReplay()

    structures: dict = {}
    models: dict = {}
    plans = [_plan_member(m, structures, models) for m in members]
    priced = [p for p in plans if p.kind != "fallback"]

    # Uncontrolled members sharing a structure and an iteration count
    # flatten as one block; ``rows`` index the padded pricing matrix.
    blocks: dict[tuple, list[int]] = {}
    controlled: list[int] = []
    for i, plan in enumerate(priced):
        if plan.kind == "uncontrolled":
            blocks.setdefault((id(plan.structure), plan.iterations), []).append(i)
        else:
            controlled.append(i)

    # -- one keyed-noise draw spanning the whole fleet ---------------------
    # Each run's (work x iteration) seed matrix flattens row-major — the
    # exact order its per-run engine would reshape — and per-seed
    # independence makes the fleet-wide batch sliceable without drift.
    # Block members are laid out contiguously, so each block's draws
    # come back as one (members, work, iteration) view.
    seed_parts: list[np.ndarray] = []
    for rows in blocks.values():
        first = priced[rows[0]]
        seeds = np.empty(
            (len(rows), first.structure.num_work, first.iterations), dtype=np.uint64
        )
        for g, i in enumerate(rows):
            m = priced[i].member
            _fill_seeds(first.structure, seeds[g], m.node_id, m.run_key, m.seed)
        seed_parts.append(seeds)
    seed_parts.extend(priced[i].seeds for i in controlled)
    sizes = [s.size for s in seed_parts]
    if any(sizes):
        all_noise = batched_lognormal(
            np.concatenate([s.reshape(-1) for s in seed_parts]), TIME_NOISE_SIGMA
        )
    else:
        all_noise = np.empty(0)
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    noise_parts = [
        all_noise[offsets[k]:offsets[k + 1]].reshape(s.shape)
        for k, s in enumerate(seed_parts)
    ]

    # -- block / schedule flattening ---------------------------------------
    flattened = []   # (row indices, durations, node_w, package_w, dram_w)
    for rows, noise in zip(blocks.values(), noise_parts):
        structure = priced[rows[0]].structure
        block = _flatten_block(
            structure, [priced[i].evaluated for i in rows], noise
        )
        for g, i in enumerate(rows):
            priced[i].durations_work = block.durations_work[g]
        flattened.append(
            (rows, block.durations, block.node_w, block.package_w, block.dram_w)
        )
    for i, noise in zip(controlled, noise_parts[len(blocks):]):
        flat = flatten_control_schedule(priced[i].schedule, noise)
        priced[i].flat = flat
        flattened.append(
            ([i], flat.durations[None], flat.node_w[None],
             flat.package_w[None], flat.dram_w[None])
        )

    # -- zero-padded batch pricing -----------------------------------------
    num = len(priced)
    width = max((part[1].shape[1] for part in flattened), default=0)
    durations = np.zeros((num, width))
    node_w = np.zeros((num, width))
    package_w = np.zeros((num, width))
    dram_w = np.zeros((num, width))
    for rows, d, n_w, p_w, r_w in flattened:
        n = d.shape[1]
        durations[rows, :n] = d
        node_w[rows, :n] = n_w
        package_w[rows, :n] = p_w
        dram_w[rows, :n] = r_w

    # Row-wise strict left folds: each row is the exact charge sequence
    # the member's per-run engine prices, and trailing zero charges are
    # exact no-ops in every fold below.
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
    socket_counts = np.array([p.num_sockets for p in priced])
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

    # -- per-member materialisation ----------------------------------------
    # ``tolist`` yields the same Python floats/ints as per-element reads.
    times = time_s.tolist()
    node_energies = node_energy.tolist()
    cpu_energies = cpu_energy.tolist()
    raw_packages, raw_drams = package_raw.tolist(), dram_raw.tolist()
    package_residuals = package_residual.tolist()
    dram_residuals = dram_residual.tolist()
    for i, plan in enumerate(priced):
        member = plan.member
        row = timeline[i]
        if plan.kind == "controlled":
            result = RunResult(
                app_name=member.app.name,
                node_id=member.node_id,
                operating_point=plan.entry_point,
                engine="fleet",
            )
            flat = plan.flat
            if flat.durations.size:
                result.node_energy_j = float(
                    np.add.accumulate(flat.node_w * flat.durations)[-1]
                )
            if flat.switches.size:
                result.switching_time_s = float(np.add.accumulate(flat.switches)[-1])
            if flat.probes.size:
                result.instrumentation_time_s = float(
                    np.add.accumulate(flat.probes)[-1]
                )
            result.time_s = times[i]
            result.cpu_energy_j = cpu_energies[i]
            schedule = plan.schedule
            result.instances = InstanceLog.deferred(
                lambda schedule=schedule, row=row, flat=flat: (
                    materialise_control_instances(schedule, row, flat)
                )
            )
            core_ghz, uncore_ghz = plan.final_core_ghz, plan.final_uncore_ghz
        else:
            structure, evaluated = plan.structure, plan.evaluated
            result = RunResult(
                app_name=member.app.name,
                node_id=member.node_id,
                operating_point=evaluated.point,
                time_s=times[i],
                node_energy_j=node_energies[i] if structure.charges else 0.0,
                cpu_energy_j=cpu_energies[i],
                instrumentation_time_s=structure.instrumentation_time_s(
                    plan.iterations
                ),
                engine="fleet",
            )
            result.instances = InstanceLog.deferred(
                _ReplayState(
                    structure=structure,
                    evaluated=evaluated,
                    iterations=plan.iterations,
                    durations_work=plan.durations_work,
                    timeline=row,
                )
            )
            core_ghz = evaluated.point.core_freq_ghz
            uncore_ghz = evaluated.point.uncore_freq_ghz
        plan.result = result
        plan.end_state = MeterEndState(
            now_s=times[i],
            hdeem_now_s=times[i],
            core_freq_ghz=core_ghz,
            uncore_freq_ghz=uncore_ghz,
            rapl_package=((raw_packages[i], package_residuals[i]),) * plan.num_sockets,
            rapl_dram=((raw_drams[i], dram_residuals[i]),) * plan.num_sockets,
        )

    return FleetReplay(
        members=tuple(members),
        results=tuple(p.result for p in plans),
        end_states=tuple(p.end_state for p in plans),
    )
