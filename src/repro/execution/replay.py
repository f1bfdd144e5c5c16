"""The uncontrolled-replay compiler and the phase-counter synthesis.

An *uncontrolled* run — no RRL/PCP controller — is fully determined once
the operating point is fixed: frequencies never change mid-run, the
instrumentation filter is static, and the region tree is walked the
same way every phase iteration.  Instead of recursing through the tree
``phase_iterations`` times, the phase subtree is compiled in two steps:

* :func:`_compile_structure` walks it **once** into a
  configuration-independent :class:`_Structure` (slot topology, charge
  order, probe overheads);
* :func:`_evaluate_block` prices that structure at G operating points
  against one :class:`~repro.hardware.power.PowerModel` (per-region
  base durations, power components, CPU shares) as ``(G, W)`` arrays,
  through the array forms of the timing and power models.

:func:`_seed_digests` and :func:`_flatten_block` then turn the block
into its keyed noise seeds and flat charge sequences.  The fleet kernel
(:mod:`repro.execution.fleet_replay`) prices every run that way —
batches on fresh nodes (campaign ``counters`` jobs among them, whose
totals :func:`phase_counters` reads from the priced run) and, as
live-node members, the simulator's solo runs.  A priced run is
one span of one pattern of a
:class:`~repro.execution.controlled_replay.RunTrace`
(:func:`_block_spans`); only when its rows or events are read are its
per-region :class:`~repro.execution.timing.RegionTiming` payloads
looked up from the memoised scalar model.

The output is **bit-identical** to the recursive reference engine in
``tests/oracles/engine.py``.  Identity holds because every
floating-point expression replays the region-by-region operation order
exactly: elementwise numpy arithmetic performs the same IEEE-754
operations per element, sequential ``+=`` accumulations map to
``np.cumsum``/``np.add.accumulate`` (strict left folds), and the noise
streams come from the same keyed generators (see :mod:`repro.util.rng`).
``tests/execution/test_replay_equivalence.py`` and
``tests/execution/test_fleet_replay_equivalence.py`` lock the
equivalence down across applications, operating points and nodes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.errors import FrequencyError
from repro.execution.controlled_replay import RunTrace, _Slot, inclusive_counters
from repro.execution.simulator import probe_overhead_s
from repro.execution.timing import region_timing, region_timings
from repro.hardware.frequency import quantize_frequency
from repro.hardware.msr import ghz_of_ratio, ratio_of_ghz
from repro.hardware.power import PowerModel
from repro.util.rng import StreamPrefix
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
    work_names: tuple[str, ...]            #: region name per work row
    work_chars: tuple                      #: characteristics per work row
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
    """One walk of the phase subtree in region-by-region traversal and
    charge order — everything that does not depend on the operating
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
        work_names=tuple([regions[slot].name for slot in work_slots]),
        work_chars=tuple([regions[slot].characteristics for slot in work_slots]),
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
class _BlockEval:
    """G operating points' numbers for one compiled structure, priced
    against one power model: one row per point, one column per work
    region."""

    structure: _Structure
    points: list                     #: effective OperatingPoint per row
    base_times: np.ndarray           #: (G, W)
    node_w: np.ndarray               #: (G, W) body power components
    package_w: np.ndarray
    dram_w: np.ndarray
    cpu_fraction: np.ndarray         #: (G, W)
    probe_node_w: np.ndarray         #: (G,) probe power components
    probe_package_w: np.ndarray
    probe_dram_w: np.ndarray


def _evaluate_block(
    structure: _Structure, power_model: PowerModel, points: list
) -> _BlockEval:
    """Timing and power of every work region at G operating points.

    One :func:`~repro.execution.timing.region_timings` and one
    :meth:`~repro.hardware.power.PowerModel.power_array` call price the
    whole ``(G, W)`` block; every element equals the scalar model at its
    point bit for bit.
    """
    threads = [p.threads for p in points]
    core = [p.core_freq_ghz for p in points]
    uncore = [p.uncore_freq_ghz for p in points]
    timing = region_timings(
        structure.work_chars,
        threads=threads,
        core_freq_ghz=core,
        uncore_freq_ghz=uncore,
    )
    power = power_model.power_array(
        core_freq_ghz=core,
        uncore_freq_ghz=uncore,
        active_threads=threads,
        core_activity=timing.core_activity,
        uncore_activity=timing.uncore_activity,
        membw_gbs=timing.membw_gbs,
    )
    probe_w = [np.zeros(len(points))] * 3
    if structure.any_probed:
        probe = power_model.power_array(
            core_freq_ghz=core,
            uncore_freq_ghz=uncore,
            active_threads=threads,
            core_activity=1.0,
            uncore_activity=0.1,
            membw_gbs=np.zeros((len(points), 1)),
        )
        probe_w = [
            w[:, 0] for w in (probe.node_w, probe.rapl_package_w, probe.rapl_dram_w)
        ]
    return _BlockEval(
        structure,
        points,
        timing.time_s,
        power.node_w,
        power.rapl_package_w,
        power.rapl_dram_w,
        power.cpu_w / power.node_w,
        *probe_w,
    )


#: The last block priced on each live node's power model, keyed by what
#: its arrays depend on.  A live node's solo runs price one structure at
#: one operating point run after run; fresh-node models live for one
#: fleet pass and are never looked up here.
_LAST_PRICED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _evaluate_on_node(
    structure: _Structure, power_model: PowerModel, point
) -> _BlockEval:
    """A live member's block of one, reusing its node's last priced
    arrays (read-only, shared) when the work and the point repeat."""
    key = (structure.work_chars, structure.any_probed, point)
    last = _LAST_PRICED.get(power_model)
    if last is None or last[0] != key:
        block = _evaluate_block(structure, power_model, [point])
        for value in vars(block).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        last = _LAST_PRICED[power_model] = (key, block)
    return replace(last[1], structure=structure)


def _seed_digests(
    out: list, work_names, iterations: int, node_id: int, run_key: tuple,
    seed: int,
) -> None:
    """Append one run's (work region x iteration) keyed time-noise seed
    digests to ``out``, row-major, hashing the run's prefix once."""
    run_prefix = StreamPrefix("time", node_id, run_key, seed=seed)
    for name in work_names:
        out.extend(run_prefix.extend(name).iteration_digests(iterations))


@dataclass
class _FlatBlock:
    """Charge sequences of G runs of one structure, one row per run."""

    durations_work: np.ndarray   #: (G, W, I) noisy body durations
    durations: np.ndarray        #: (G, I*C) iteration-major charges
    node_w: np.ndarray           #: (G, I*C) per-charge power components
    package_w: np.ndarray
    dram_w: np.ndarray


def _flatten_block(block: _BlockEval, noise: np.ndarray) -> _FlatBlock:
    """Flatten a priced block with its (G, W, I) noise.

    Every row is the exact charge sequence (body and probe charges in
    traversal order, iteration-major) that one run charges; the
    per-charge values are copies, so rows are bit-identical to
    flattening each run on its own.
    """
    structure = block.structure
    runs, _, iterations = noise.shape
    num_charges = len(structure.charges)
    durations_work = block.base_times[:, :, None] * noise
    charges = np.empty((runs, iterations, num_charges))
    charges[:, :, structure.body_cols] = durations_work.transpose(0, 2, 1)
    charges[:, :, structure.probe_cols] = structure.probe_per_iteration

    def powers(work: np.ndarray, probe: np.ndarray) -> np.ndarray:
        table = np.empty((runs, iterations, num_charges))
        table[:, :, structure.body_cols] = work[:, None, :]
        table[:, :, structure.probe_cols] = probe[:, None, None]
        return table.reshape(runs, iterations * num_charges)

    return _FlatBlock(
        durations_work=durations_work,
        durations=charges.reshape(runs, iterations * num_charges),
        node_w=powers(block.node_w, block.probe_node_w),
        package_w=powers(block.package_w, block.probe_package_w),
        dram_w=powers(block.dram_w, block.probe_dram_w),
    )


def _structure_slots(block: _BlockEval, g: int) -> tuple:
    """Row ``g`` of a priced block, as the compiled slots of a
    one-pattern control schedule.  The rows' RegionTiming payloads come
    from the memoised scalar model, and only here: grid sweeps that
    never read instance rows or events never pay for them."""
    structure = block.structure
    point = block.points[g]
    timings = [
        region_timing(
            chars,
            threads=point.threads,
            core_freq_ghz=point.core_freq_ghz,
            uncore_freq_ghz=point.uncore_freq_ghz,
        )
        for chars in structure.work_chars
    ]
    probe_node_w = block.probe_node_w[g].item()
    slots = []
    for k, region in enumerate(structure.regions):
        row = structure.work_index[k]
        work = row >= 0
        slots.append(
            _Slot(
                region=region,
                children=structure.children[k],
                has_work=work,
                probed=structure.probed[k],
                timing=timings[row] if work else None,
                base_time_s=block.base_times[g, row] if work else 0.0,
                node_w=block.node_w[g, row] if work else 0.0,
                cpu_fraction=block.cpu_fraction[g, row] if work else 0.0,
                probe_s=structure.probe_s[k],
                probe_node_w=probe_node_w,
                work_index=row,
                point=point,
                charge_start=structure.charge_start[k],
                charge_end=structure.charge_end[k],
            )
        )
    return tuple(slots)


def _block_spans(
    block: _BlockEval, g: int, iterations: int, durations_work: np.ndarray
) -> tuple:
    """Row ``g`` of a priced block as the one span of a
    :class:`~repro.execution.controlled_replay.RunTrace`."""
    return (
        (
            _structure_slots(block, g),
            len(block.structure.charges),
            0,
            iterations,
            0,
            durations_work,
        ),
    )


def phase_counters(
    result, trace: RunTrace, generator, *, run_key: tuple,
    counters: tuple[str, ...],
) -> tuple[dict[str, float], float]:
    """Phase counter totals and accumulated phase time of one
    instrumented uncontrolled run.

    ``trace`` is the priced run behind ``result``; the totals are the
    phase slot of its :func:`~repro.execution.controlled_replay.inclusive_counters`
    fold, summed over the iterations — field for field what summing the
    phase region's inclusive metrics over a listened run
    (``collect_counters=True``) gives.
    """
    (span,) = trace.spans
    names, inclusive = inclusive_counters(
        span, generator, node_id=result.node_id, run_key=run_key
    )
    phase_matrix = inclusive[0]
    column = {name: j for j, name in enumerate(names)}
    totals = {}
    for counter in counters:
        j = column.get(counter)
        if phase_matrix is None or j is None:
            totals[counter] = 0.0
        else:
            totals[counter] = float(np.add.accumulate(phase_matrix[:, j])[-1])
    slots, num_charges, _, iterations, _, _ = span
    offsets = np.arange(iterations) * num_charges
    phase = slots[0]
    phase_times = (
        trace.timeline[offsets + phase.charge_end]
        - trace.timeline[offsets + phase.charge_start]
    )
    phase_time_s = float(np.add.accumulate(phase_times)[-1])
    return totals, phase_time_s
