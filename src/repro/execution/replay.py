"""The uncontrolled-replay compiler and the solo fast path.

An *uncontrolled* run — no RRL/PCP controller, no listeners — is fully
determined once the operating point is fixed: frequencies never change
mid-run, the instrumentation filter is static, and the region tree is
walked the same way every phase iteration.  Instead of recursing through
the tree ``phase_iterations`` times, the phase subtree is compiled in
two steps:

* :func:`_compile_structure` walks it **once** into a
  configuration-independent :class:`_Structure` (slot topology, charge
  order, probe overheads);
* :func:`_evaluate_config` prices that structure at one operating point
  (per-region base durations, power components, CPU shares) against a
  :class:`~repro.hardware.power.PowerModel` whose breakdown memo stays
  warm across calls.

:func:`_fill_seeds` and :func:`_flatten_block` then turn any number of
evaluations of one structure into their keyed noise and flat charge
sequences in one block.  The fleet kernel
(:mod:`repro.execution.fleet_replay`) prices whole batches of runs that
way on fresh nodes; :func:`replay_run` and
:func:`replay_phase_counters` are the block of one, priced on the live
node through :meth:`~repro.hardware.node.ComputeNode.advance_many` so
the meters continue from the node's state.
:class:`~repro.execution.simulator.RegionInstance` rows materialise
lazily (:func:`materialise_instances`).

The output is **bit-identical** to the recursive engine, which remains
the generic path for observed runs.  Identity holds because every
floating-point expression replays the recursive path's operation order
exactly: elementwise numpy arithmetic performs the same IEEE-754
operations per element, sequential ``+=`` accumulations map to
``np.cumsum``/``np.add.accumulate`` (strict left folds), and the noise
streams come from the same keyed generators (see :mod:`repro.util.rng`).
``tests/execution/test_replay_equivalence.py`` and
``tests/execution/test_fleet_replay_equivalence.py`` lock the
equivalence down across applications, operating points and nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.counters.generation import MeasurementContext
from repro.errors import FrequencyError
from repro.execution.simulator import (
    TIME_NOISE_SIGMA,
    InstanceLog,
    OperatingPoint,
    RegionInstance,
    RunResult,
    probe_overhead_s,
)
from repro.execution.timing import RegionTiming, region_timing
from repro.hardware.frequency import quantize_frequency
from repro.hardware.msr import ghz_of_ratio, ratio_of_ghz
from repro.hardware.power import PowerModel
from repro.util.rng import StreamPrefix, batched_lognormal
from repro.workloads.application import Application
from repro.workloads.region import Region


@dataclass
class _Structure:
    """The configuration-independent skeleton of the phase subtree."""

    regions: tuple[Region, ...]            #: per slot, pre-order
    children: tuple[tuple[int, ...], ...]
    has_work: tuple[bool, ...]
    probed: tuple[bool, ...]
    probe_s: tuple[float, ...]             #: per slot (0.0 when unprobed)
    work_index: tuple[int, ...]            #: row in work arrays, -1
    charge_start: tuple[int, ...]
    charge_end: tuple[int, ...]
    charges: tuple[tuple[int, bool], ...]  #: (slot index, is_probe)
    post_order: tuple[int, ...]
    work_slots: tuple[int, ...]            #: slot index per work row
    num_work: int
    #: Charge columns of the body charges, in work-row order (a work
    #: region's body charge is appended as its row is assigned).
    body_cols: np.ndarray
    probe_cols: np.ndarray                 #: charge columns of the probes
    probe_per_iteration: np.ndarray        #: probe overheads, charge order

    @property
    def any_probed(self) -> bool:
        return bool(self.probe_cols.size)

    def instrumentation_time_s(self, iterations: int) -> float:
        """Accumulated probe overhead of a whole run."""
        if not self.probe_per_iteration.size:
            return 0.0
        return float(
            np.add.accumulate(np.tile(self.probe_per_iteration, iterations))[-1]
        )


def _compile_structure(
    app: Application, instrumented: bool, instrumentation
) -> _Structure:
    """One walk of the phase subtree in the recursive engine's traversal
    and charge order — everything that does not depend on the operating
    point."""
    regions: list[Region] = []
    children: list[tuple[int, ...]] = []
    has_work: list[bool] = []
    probed_flags: list[bool] = []
    probe_s: list[float] = []
    work_index: list[int] = []
    charge_start: list[int] = []
    charge_end: list[int] = []
    charges: list[tuple[int, bool]] = []
    work_slots: list[int] = []

    def visit(region: Region) -> int:
        index = len(regions)
        regions.append(region)
        children.append(())
        has_work.append(region.has_work)
        probed = instrumented and (
            instrumentation is None or instrumentation.is_instrumented(region)
        )
        probed_flags.append(probed)
        charge_start.append(len(charges))
        charge_end.append(0)  # filled after the subtree walk
        if region.has_work:
            work_index.append(len(work_slots))
            work_slots.append(index)
            charges.append((index, False))
        else:
            work_index.append(-1)
        if probed:
            probe_s.append(probe_overhead_s(region))
            charges.append((index, True))
        else:
            probe_s.append(0.0)
        children[index] = tuple(visit(child) for child in region.children)
        charge_end[index] = len(charges)
        return index

    visit(app.phase)

    post_order: list[int] = []

    def order(index: int) -> None:
        for child in children[index]:
            order(child)
        post_order.append(index)

    order(0)
    probe_charges = [c for c, (_, is_probe) in enumerate(charges) if is_probe]
    return _Structure(
        regions=tuple(regions),
        children=tuple(children),
        has_work=tuple(has_work),
        probed=tuple(probed_flags),
        probe_s=tuple(probe_s),
        work_index=tuple(work_index),
        charge_start=tuple(charge_start),
        charge_end=tuple(charge_end),
        charges=tuple(charges),
        post_order=tuple(post_order),
        work_slots=tuple(work_slots),
        num_work=len(work_slots),
        body_cols=np.array(
            [c for c, (_, is_probe) in enumerate(charges) if not is_probe],
            dtype=np.intp,
        ),
        probe_cols=np.array(probe_charges, dtype=np.intp),
        probe_per_iteration=np.array(
            [probe_s[charges[c][0]] for c in probe_charges], dtype=float
        ),
    )


@lru_cache(maxsize=256)
def _effective_frequency(freq_ghz: float, lo: float, hi: float, domain: str) -> float:
    """The frequency a fresh node would report after programming
    ``freq_ghz``: quantized to the 100 MHz ratio grid and decoded back,
    exactly the DVFS/UFS controller round trip."""
    q = quantize_frequency(freq_ghz)
    if not lo <= q <= hi:
        raise FrequencyError(
            f"{domain} frequency {freq_ghz} GHz outside supported range "
            f"[{lo}, {hi}]"
        )
    return ghz_of_ratio(ratio_of_ghz(q))


@dataclass
class _ConfigEval:
    """One operating point's numbers for a compiled structure."""

    point: object                    #: effective OperatingPoint
    timings: list                    #: RegionTiming per work row
    base_times: np.ndarray           #: (W,)
    node_w: np.ndarray               #: (W,) body power components
    package_w: np.ndarray
    dram_w: np.ndarray
    cpu_fraction: np.ndarray         #: (W,)
    probe_node_w: float
    probe_package_w: float
    probe_dram_w: float


def _evaluate_config(
    structure: _Structure, power_model: PowerModel, point
) -> _ConfigEval:
    """Timing and power of every work region at one operating point.

    ``region_timing`` is memoised and the power model's breakdown cache
    is shared by every evaluation against it, so repeated grids (and
    the probe breakdown within one) are dictionary hits.
    """
    threads, core_ghz, uncore_ghz = (
        point.threads, point.core_freq_ghz, point.uncore_freq_ghz
    )
    timings: list[RegionTiming] = []
    rows = []  # per work row: the five numbers, filled into arrays once
    for slot in structure.work_slots:
        timing = region_timing(
            structure.regions[slot].characteristics,
            threads=threads,
            core_freq_ghz=core_ghz,
            uncore_freq_ghz=uncore_ghz,
        )
        breakdown = power_model.power(
            core_freq_ghz=core_ghz,
            uncore_freq_ghz=uncore_ghz,
            active_threads=threads,
            core_activity=timing.core_activity,
            uncore_activity=timing.uncore_activity,
            membw_gbs=timing.membw_gbs,
        )
        timings.append(timing)
        node_w = breakdown.node_w
        rows.append(
            (
                timing.time_s,
                node_w,
                breakdown.rapl_package_w,
                breakdown.rapl_dram_w,
                breakdown.cpu_w / node_w,
            )
        )
    base_times, node_w, package_w, dram_w, cpu_fraction = (
        np.array(rows, dtype=float).reshape(-1, 5).T
    )
    probe_node_w = probe_package_w = probe_dram_w = 0.0
    if structure.any_probed:
        breakdown = power_model.power(
            core_freq_ghz=point.core_freq_ghz,
            uncore_freq_ghz=point.uncore_freq_ghz,
            active_threads=point.threads,
            core_activity=1.0,
            uncore_activity=0.1,
            membw_gbs=0.0,
        )
        probe_node_w = breakdown.node_w
        probe_package_w = breakdown.rapl_package_w
        probe_dram_w = breakdown.rapl_dram_w
    return _ConfigEval(
        point=point,
        timings=timings,
        base_times=base_times,
        node_w=node_w,
        package_w=package_w,
        dram_w=dram_w,
        cpu_fraction=cpu_fraction,
        probe_node_w=probe_node_w,
        probe_package_w=probe_package_w,
        probe_dram_w=probe_dram_w,
    )


def _fill_seeds(
    structure: _Structure, out: np.ndarray, node_id: int, run_key: tuple, seed: int
) -> None:
    """Fill one run's (work region x iteration) keyed time-noise seeds."""
    run_prefix = StreamPrefix("time", node_id, run_key, seed=seed)
    for row, slot in enumerate(structure.work_slots):
        run_prefix.extend(structure.regions[slot].name).fill_iteration_seeds(
            out[row]
        )


@dataclass
class _FlatBlock:
    """Charge sequences of G runs of one structure, one row per run."""

    durations_work: np.ndarray   #: (G, W, I) noisy body durations
    durations: np.ndarray        #: (G, I*C) iteration-major charges
    node_w: np.ndarray           #: (G, I*C) per-charge power components
    package_w: np.ndarray
    dram_w: np.ndarray


def _flatten_block(
    structure: _Structure, evaluations: list, noise: np.ndarray
) -> _FlatBlock:
    """Flatten G evaluations of one structure with their (G, W, I) noise.

    Every row is the exact charge sequence (body and probe charges in
    traversal order, iteration-major) that one run charges; the
    per-charge values are copies, so rows are bit-identical to
    flattening each run on its own.
    """
    runs, _, iterations = noise.shape
    num_charges = len(structure.charges)
    base_times = np.array([e.base_times for e in evaluations]).reshape(runs, -1)
    durations_work = base_times[:, :, None] * noise
    charges = np.empty((runs, iterations, num_charges))
    charges[:, :, structure.body_cols] = durations_work.transpose(0, 2, 1)
    charges[:, :, structure.probe_cols] = structure.probe_per_iteration

    def powers(work_attr: str, probe_attr: str) -> np.ndarray:
        row = np.empty((runs, num_charges))
        row[:, structure.body_cols] = np.array(
            [getattr(e, work_attr) for e in evaluations]
        ).reshape(runs, -1)
        row[:, structure.probe_cols] = np.array(
            [getattr(e, probe_attr) for e in evaluations]
        )[:, None]
        return np.tile(row, (1, iterations))

    return _FlatBlock(
        durations_work=durations_work,
        durations=charges.reshape(runs, iterations * num_charges),
        node_w=powers("node_w", "probe_node_w"),
        package_w=powers("package_w", "probe_package_w"),
        dram_w=powers("dram_w", "probe_dram_w"),
    )


@dataclass
class _ReplayState:
    """One priced run of a compiled structure: what the lazy instance
    rows and the counter synthesis read.  Calling it materialises the
    rows, so it is its run's deferred instance-log producer."""

    structure: _Structure
    evaluated: _ConfigEval
    iterations: int
    durations_work: np.ndarray   #: (W, I) noisy body durations
    timeline: np.ndarray         #: clock after each charge, leading start

    def __call__(self) -> list:
        return materialise_instances(self)

    def body_times(self) -> list:
        """Per slot: (I,) body elapsed time (duration plus probe)."""
        structure = self.structure
        zeros = np.zeros(self.iterations)
        times: list = []
        for k, row in enumerate(structure.work_index):
            time = self.durations_work[row] if row >= 0 else None
            if structure.probed[k]:
                probe = structure.probe_s[k]
                time = (
                    time + probe
                    if time is not None
                    else np.full(self.iterations, probe)
                )
            times.append(time if time is not None else zeros)
        return times

    def region_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(enter, inclusive duration) matrices of shape (I, K)."""
        structure = self.structure
        offsets = np.arange(self.iterations) * len(structure.charges)
        enter_index = np.array(structure.charge_start)
        exit_index = np.array(structure.charge_end)
        enter = self.timeline[offsets[:, None] + enter_index[None, :]]
        total = self.timeline[offsets[:, None] + exit_index[None, :]] - enter
        return enter, total


def materialise_instances(state: _ReplayState) -> list:
    """Derive every :class:`RegionInstance` row of one replayed run."""
    structure, evaluated = state.structure, state.evaluated
    point = evaluated.point
    num_slots = len(structure.regions)
    iterations = state.iterations
    durations_work = state.durations_work
    enter, total_time = state.region_times()
    body_time = state.body_times()

    zeros = np.zeros(iterations)
    body_energy: list = [None] * num_slots
    for k, row in enumerate(structure.work_index):
        energy = None
        if row >= 0:
            energy = evaluated.node_w[row] * durations_work[row]
        if structure.probed[k]:
            probe_joules = evaluated.probe_node_w * structure.probe_s[k]
            energy = (
                energy + probe_joules
                if energy is not None
                else np.full(iterations, probe_joules)
            )
        body_energy[k] = energy if energy is not None else zeros

    # Inclusive energies: children accumulate in child order, own
    # body first — the recursive engine's exact expression tree.
    inclusive: list = [None] * num_slots
    for k in range(num_slots - 1, -1, -1):
        children_energy = None
        for child in structure.children[k]:
            children_energy = (
                inclusive[child]
                if children_energy is None
                else children_energy + inclusive[child]
            )
        if children_energy is None:
            children_energy = 0.0
        inclusive[k] = body_energy[k] + children_energy

    cpu_energy: list = [zeros] * num_slots
    timings: list = [None] * num_slots
    for k, row in enumerate(structure.work_index):
        if row >= 0:
            cpu_energy[k] = np.where(
                body_time[k] > 0,
                body_energy[k] * evaluated.cpu_fraction[row],
                0.0,
            )
            timings[k] = evaluated.timings[row]

    names = [region.name for region in structure.regions]
    rows = []
    append = rows.append
    for i in range(iterations):
        for k in structure.post_order:
            append(
                RegionInstance(
                    region_name=names[k],
                    iteration=i,
                    start_s=float(enter[i, k]),
                    time_s=float(total_time[i, k]),
                    node_energy_j=float(inclusive[k][i]),
                    cpu_energy_j=float(cpu_energy[k][i]),
                    operating_point=point,
                    timing=timings[k],
                )
            )
    return rows


def _replay(
    sim,
    app: Application,
    *,
    threads: int,
    instrumented: bool,
    instrumentation,
    run_key: tuple,
):
    """Compile, price on the live node and fill a ``RunResult``.

    Returns ``(result, state)``; the node's clock and meters advance
    exactly as the recursive engine's per-charge ``advance`` calls
    would.
    """
    node = sim.node
    point = OperatingPoint(
        core_freq_ghz=node.core_freq_ghz,
        uncore_freq_ghz=node.uncore_freq_ghz,
        threads=threads,
    )
    result = RunResult(
        app_name=app.name,
        node_id=node.node_id,
        operating_point=point,
        engine="replay",
    )
    structure = _compile_structure(app, instrumented, instrumentation)
    evaluated = _evaluate_config(structure, node.power_model, point)
    iterations = app.phase_iterations
    seeds = np.empty((1, structure.num_work, iterations), dtype=np.uint64)
    _fill_seeds(structure, seeds[0], node.node_id, run_key, sim.seed)
    noise = batched_lognormal(seeds.reshape(-1), TIME_NOISE_SIGMA)
    block = _flatten_block(structure, [evaluated], noise.reshape(seeds.shape))
    durations = block.durations[0]
    node_w = block.node_w[0]

    start_time = node.now_s
    start_cpu_j = node.rapl.read_cpu_energy_joules()
    # Simulated clock after each charge; cumsum is a strict left fold, so
    # every value matches the recursive engine's repeated ``+=``.
    timeline = np.cumsum(np.concatenate(([start_time], durations)))
    node.advance_many(durations, node_w, block.package_w[0], block.dram_w[0])

    if durations.size:
        result.node_energy_j = float(np.add.accumulate(node_w * durations)[-1])
    result.instrumentation_time_s = structure.instrumentation_time_s(iterations)
    result.time_s = node.now_s - start_time
    result.cpu_energy_j = node.rapl.read_cpu_energy_joules() - start_cpu_j

    state = _ReplayState(
        structure=structure,
        evaluated=evaluated,
        iterations=iterations,
        durations_work=block.durations_work[0],
        timeline=timeline,
    )
    # Everything per-instance is needed only when the rows are
    # inspected, so it lives in the deferred producer; runs that read
    # aggregate fields never pay for it.
    result.instances = InstanceLog.deferred(state)
    return result, state


def replay_run(
    sim,
    app: Application,
    *,
    threads: int,
    instrumented: bool,
    instrumentation,
    run_key: tuple,
):
    """Run ``app`` through the fast path; returns the filled RunResult."""
    result, _ = _replay(
        sim,
        app,
        threads=threads,
        instrumented=instrumented,
        instrumentation=instrumentation,
        run_key=run_key,
    )
    return result


@dataclass(frozen=True)
class PhaseCounterRun:
    """A fast-path instrumented run plus its phase counter totals.

    Field-for-field equivalent to running the generic engine with a
    phase-counter collector listener (``collect_counters=True``) and
    summing the phase region's inclusive metrics.
    """

    result: object                #: the RunResult of the instrumented run
    totals: dict[str, float]      #: summed phase counter totals
    phase_time_s: float           #: accumulated phase time over the run


def replay_phase_counters(
    sim,
    app: Application,
    *,
    threads: int,
    counters: tuple[str, ...],
    run_key: tuple,
) -> PhaseCounterRun:
    """Instrumented fast-path run with vectorized counter synthesis.

    Replays the run (instrumented, unfiltered — the configuration the
    campaign engine's ``counters`` mode uses), then derives every work
    region's 56 preset values for all iterations in one batch and folds
    them up the tree in the recursive engine's merge order.
    """
    result, state = _replay(
        sim,
        app,
        threads=threads,
        instrumented=True,
        instrumentation=None,
        run_key=run_key,
    )
    node = sim.node
    structure = state.structure
    num_slots = len(structure.regions)
    body_time = state.body_times()
    generator = sim._counter_generator
    names: tuple[str, ...] = ()
    own_matrix: list = [None] * num_slots
    for k in structure.work_slots:
        region = structure.regions[k]
        ctx = MeasurementContext(
            elapsed_s=body_time[k],
            core_freq_ghz=result.operating_point.core_freq_ghz,
            threads=threads,
        )
        sampled = generator.sample_batch(
            region.characteristics,
            ctx,
            key_prefix=(node.node_id, run_key, region.name),
        )
        if not names:
            names = tuple(sampled)
        own_matrix[k] = np.column_stack(list(sampled.values()))

    # Inclusive counter fold: children in order, own last — exactly the
    # dict-merge order of the recursive engine.  Regions whose subtree
    # holds no work contribute nothing (empty dict merge).
    inclusive: list = [None] * num_slots
    for k in range(num_slots - 1, -1, -1):
        acc = None
        for child in structure.children[k]:
            if inclusive[child] is None:
                continue
            acc = inclusive[child] if acc is None else acc + inclusive[child]
        if own_matrix[k] is not None:
            acc = own_matrix[k] if acc is None else acc + own_matrix[k]
        inclusive[k] = acc

    phase_matrix = inclusive[0]
    column = {name: j for j, name in enumerate(names)}
    totals = {}
    for counter in counters:
        j = column.get(counter)
        if phase_matrix is None or j is None:
            totals[counter] = 0.0
        else:
            totals[counter] = float(np.add.accumulate(phase_matrix[:, j])[-1])
    _, total_time = state.region_times()
    phase_time_s = float(np.add.accumulate(total_time[:, 0])[-1])
    return PhaseCounterRun(result=result, totals=totals, phase_time_s=phase_time_s)
