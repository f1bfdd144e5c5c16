"""Array pricing, keyed time-noise seeds and phase-counter synthesis.

The fleet kernel (:mod:`repro.execution.fleet_replay`) prices every run
from its compiled switch schedule
(:class:`~repro.execution.controlled_replay.ControlSchedule`).  This
module holds the primitives it prices with:

* :func:`_evaluate_block` prices a schedule's work regions, probes and
  switches at G operating points against one
  :class:`~repro.hardware.power.PowerModel`, as ``(G, W)`` arrays,
  through the array forms of the timing and power models;
* :func:`_entry_point` is the operating point a fresh node reports
  after programming requested frequencies
  (:func:`_effective_frequency`);
* :func:`_seed_digests` lays out one run's keyed (work region x
  iteration) noise seeds;
* :func:`phase_counters` reads the phase counter totals of
  instrumented uncontrolled runs (campaign ``counters`` jobs) from
  their priced traces.

The output is **bit-identical** to the recursive reference engine in
``tests/oracles/engine.py``.  Identity holds because every
floating-point expression replays the region-by-region operation order
exactly: elementwise numpy arithmetic performs the same IEEE-754
operations per element, sequential ``+=`` accumulations map to
``np.cumsum``/``np.add.accumulate`` (strict left folds), and the noise
streams come from the same keyed generators (see :mod:`repro.util.rng`).
``tests/execution/test_fleet_replay_equivalence.py`` locks the
equivalence down across applications, operating points and nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro import config
from repro.counters.generation import (
    COUNTER_NOISE_SIGMA,
    CounterGenerator,
    noisy_counters,
)
from repro.counters.papi import PAPI_PRESETS
from repro.errors import FrequencyError
from repro.execution.controlled_replay import fold_inclusive, slot_context
from repro.execution.simulator import OperatingPoint
from repro.execution.timing import region_timings
from repro.hardware.frequency import quantize_frequency
from repro.hardware.msr import ghz_of_ratio, ratio_of_ghz
from repro.hardware.power import PowerModel
from repro.util.rng import StreamPrefix, batched_lognormal, keyed_digests


def _effective_frequency(freq_ghz: float, domain: str) -> float:
    """The ``"core"`` or ``"uncore"`` frequency a fresh node would
    report after programming ``freq_ghz``: quantized to the 100 MHz
    ratio grid and decoded back, exactly the DVFS/UFS controller round
    trip."""
    lo, hi = {
        "core": (config.CORE_FREQ_MIN_GHZ, config.CORE_FREQ_MAX_GHZ),
        "uncore": (config.UNCORE_FREQ_MIN_GHZ, config.UNCORE_FREQ_MAX_GHZ),
    }[domain]
    q = quantize_frequency(freq_ghz)
    if not lo <= q <= hi:
        raise FrequencyError(
            f"{domain} frequency {freq_ghz} GHz outside supported range "
            f"[{lo}, {hi}]"
        )
    return ghz_of_ratio(ratio_of_ghz(q))


@lru_cache(maxsize=2048, typed=True)
def _entry_point(
    core_freq_ghz: float, uncore_freq_ghz: float, threads: int
) -> OperatingPoint:
    """The operating point of a fresh node programmed to these
    frequencies (:func:`_effective_frequency`), running ``threads``.
    Frozen, so every run entering there shares it."""
    return OperatingPoint(
        _effective_frequency(core_freq_ghz, "core"),
        _effective_frequency(uncore_freq_ghz, "uncore"),
        threads,
    )


@dataclass
class _BlockEval:
    """G operating points priced against one power model, one row per
    point.  The power tables hold one column per work region, then the
    probe and the switch column
    (:data:`~repro.execution.controlled_replay.PROBE_COLUMN`,
    :data:`~repro.execution.controlled_replay.SWITCH_COLUMN`); a column
    the schedule never charges holds zeros."""

    base_times: np.ndarray           #: (G, W) body durations
    cpu_fraction: np.ndarray         #: (G, W)
    node_w: np.ndarray               #: (G, W + 2) power components
    package_w: np.ndarray
    dram_w: np.ndarray


def _evaluate_block(
    work_chars, power_model: PowerModel, points: list, *, probed: bool,
    switched: bool,
) -> _BlockEval:
    """Timing and power of every work region, the probes and the
    switches at G operating points.

    One :func:`~repro.execution.timing.region_timings` and one
    :meth:`~repro.hardware.power.PowerModel.power_array` call price the
    whole ``(G, W)`` body block, one more ``power_array`` call each the
    probe and the switch column when the schedule charges them; every
    element equals the scalar model at its point bit for bit.
    """
    threads = [p.threads for p in points]
    core = [p.core_freq_ghz for p in points]
    uncore = [p.uncore_freq_ghz for p in points]
    timing = region_timings(
        work_chars,
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
    columns = [[power.node_w], [power.rapl_package_w], [power.rapl_dram_w]]
    for charged, core_activity, uncore_activity in (
        (probed, 1.0, 0.1),
        (switched, config.STALLED_CORE_ACTIVITY, 0.0),
    ):
        if charged:
            fixed = power_model.power_array(
                core_freq_ghz=core,
                uncore_freq_ghz=uncore,
                active_threads=threads,
                core_activity=core_activity,
                uncore_activity=uncore_activity,
                membw_gbs=np.zeros((len(points), 1)),
            )
            parts = (fixed.node_w, fixed.rapl_package_w, fixed.rapl_dram_w)
        else:
            parts = (np.zeros((len(points), 1)),) * 3
        for column, part in zip(columns, parts):
            column.append(part)
    return _BlockEval(
        timing.time_s,
        power.cpu_w / power.node_w,
        *(np.concatenate(column, axis=1) for column in columns),
    )


def _seed_digests(
    out: list, work_keys: list[bytes], iterations: int, node: StreamPrefix,
    run_key: tuple,
) -> None:
    """Append one run's (work region x iteration) keyed time-noise seed
    digests to ``out``, row-major.  ``work_keys`` are the work regions'
    names as :func:`~repro.util.rng.key_bytes`, encoded once per
    schedule; ``node`` is the hashed ``StreamPrefix("time", node_id,
    seed=seed)`` its node's runs share, extended by the run key once."""
    keyed_digests(out, node.extend(run_key), work_keys, iterations)


def phase_counters(runs) -> list[tuple[dict[str, float], float]]:
    """Phase counter totals and accumulated phase time of instrumented
    uncontrolled runs.

    ``runs`` holds one ``(result, trace, seed, run_key, counters)`` per
    run: ``trace`` is the priced run behind ``result`` and ``seed`` its
    counter generator's.  A run's totals are the phase slot of its
    :func:`~repro.execution.controlled_replay.inclusive_counters` fold,
    summed over the iterations — field for field what summing the phase
    region's inclusive metrics over a listened run
    (``collect_counters=True``) gives.  The PAPI noise of every work slot
    of every run is drawn in one batch, and only the requested counters
    are computed and folded.
    """
    spans, digests = [], []
    for result, trace, seed, run_key, _ in runs:
        (span,) = trace.spans
        generator = CounterGenerator(seed)
        first_row = {}  # work slot -> its first row of the noise matrix
        for k, slot in enumerate(span[0]):
            if slot.has_work:
                first_row[k] = len(digests)
                digests += generator.noise_digests(
                    (result.node_id, run_key, slot.region.name), span[3]
                )
        spans.append((span, first_row))
    noise = batched_lognormal(
        np.frombuffer(b"".join(digests), dtype="<u8"),
        COUNTER_NOISE_SIGMA,
        size=len(PAPI_PRESETS),
    )
    out = []
    for (_, trace, _, _, counters), (span, first_row) in zip(runs, spans):
        slots, num_charges, _, iterations, _, durations_work = span
        known = list(dict.fromkeys(c for c in counters if c in PAPI_PRESETS))

        def own(k: int) -> np.ndarray:
            slot, row = slots[k], first_row[k]
            values = noisy_counters(
                slot.region.characteristics,
                slot_context(slot, durations_work),
                noise[row : row + iterations],
                known,
            )
            return np.column_stack(list(values.values()))

        sums = {}
        phase_matrix = fold_inclusive(slots, own)[0] if known else None
        if phase_matrix is not None:
            totals = np.add.accumulate(phase_matrix, axis=0)[-1]
            sums = dict(zip(known, totals.tolist()))
        totals = {counter: sums.get(counter, 0.0) for counter in counters}
        offsets = np.arange(iterations) * num_charges
        phase = slots[0]
        phase_times = (
            trace.timeline[offsets + phase.charge_end]
            - trace.timeline[offsets + phase.charge_start]
        )
        out.append((totals, float(np.add.accumulate(phase_times)[-1])))
    return out
