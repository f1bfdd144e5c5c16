"""The scalar timing and power models: one region at one operating point.

Production prices every run through the array forms,
:func:`repro.execution.timing.region_timings` and
:meth:`repro.hardware.power.PowerModel.power_array`, which evaluate
whole blocks of operating points x regions at once.  The scalar forms
they replaced live here, memo included, as their independent checker:
``tests/execution/test_array_model.py`` compares them element by
element with ``np.array_equal``, and the recursive engine
(:mod:`tests.oracles.engine`) prices region by region with them.

* :func:`region_timing` — the roofline timing model of one region;
* :class:`ScalarPowerModel` — a :class:`~repro.hardware.power.PowerModel`
  with the scalar breakdown :meth:`~ScalarPowerModel.power` and its
  component helpers;
* :func:`scalar_power_model` — the scalar view of a production model's
  physics (one per model, so its breakdown memo lives as long as it);
* :func:`compute_power` — the power at a node's current frequencies;
* :func:`advance` — charge one segment to a node's clock and meters,
  the per-charge path :meth:`~repro.hardware.node.ComputeNode.advance_many`
  replays in bulk.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

from repro import config
from repro.errors import HardwareError
from repro.execution.speedup import memory_bandwidth_gbs, thread_speedup
from repro.execution.timing import RegionTiming
from repro.hardware.power import (
    PowerBreakdown,
    PowerModel,
    _dram_w,
    _uncore_activity_factor,
)
from repro.hardware.rapl import RaplDomain
from repro.util.validation import check_fraction, check_positive
from repro.workloads.characteristics import WorkloadCharacteristics


def region_timing(
    chars: WorkloadCharacteristics,
    *,
    threads: int,
    core_freq_ghz: float,
    uncore_freq_ghz: float,
) -> RegionTiming:
    """Evaluate the timing model for one region instance.

    The model is a pure function of frozen inputs.  Its callers — the
    recursive engine above all — evaluate the same few (region,
    operating point) pairs over and over, so results are memoised;
    callers receive a shared frozen :class:`RegionTiming`.
    """
    return _region_timing_cached(chars, threads, core_freq_ghz, uncore_freq_ghz)


@lru_cache(maxsize=32768)
def _region_timing_cached(
    chars: WorkloadCharacteristics,
    threads: int,
    core_freq_ghz: float,
    uncore_freq_ghz: float,
) -> RegionTiming:
    speedup = thread_speedup(threads, chars.parallel_fraction, chars.thread_overhead)
    t_c = chars.compute_cycles / (core_freq_ghz * 1e9 * speedup)
    bandwidth = memory_bandwidth_gbs(uncore_freq_ghz, threads)
    t_m = chars.memory_bytes / (bandwidth * 1e9)
    o = chars.overlap
    time_s = o * max(t_c, t_m) + (1.0 - o) * (t_c + t_m)
    # Cores are fully active while computing and partially active (clock
    # running, pipelines stalled) for the remainder of the region.
    busy_frac = min(1.0, t_c / time_s) if time_s > 0 else 0.0
    core_activity = busy_frac + config.STALLED_CORE_ACTIVITY * (1.0 - busy_frac)
    achieved_gbs = chars.memory_bytes / time_s / 1e9 if time_s > 0 else 0.0
    # Uncore activity = achieved traffic relative to the node's peak.
    uncore_activity = min(1.0, achieved_gbs / config.PEAK_MEMBW_GBS)
    return RegionTiming(
        time_s=time_s,
        compute_time_s=t_c,
        memory_time_s=t_m,
        core_activity=core_activity,
        uncore_activity=uncore_activity,
        membw_gbs=achieved_gbs,
        threads=threads,
        core_freq_ghz=core_freq_ghz,
        uncore_freq_ghz=uncore_freq_ghz,
    )


class ScalarPowerModel(PowerModel):
    """The analytic power model, one operating point per call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Breakdown memo: the simulator evaluates the model at a handful
        # of distinct operating/activity points but once per region
        # *instance*; PowerBreakdown is frozen, so sharing is safe.
        self._breakdown_cache: dict[tuple, PowerBreakdown] = {}

    def core_dynamic_power_w(
        self, core_freq_ghz: float, active_threads: int, core_activity: float
    ) -> float:
        """Dynamic power of the active cores.

        ``core_activity`` in [0, 1] is the effective switching activity: 1
        for a core retiring at full tilt, lower when stalled on memory
        (stalled cores still clock but large units idle).
        """
        scale = self._core_scale(core_freq_ghz, active_threads)
        check_fraction("core_activity", core_activity)
        return scale * core_activity * self.variability.dynamic_factor

    def uncore_dynamic_power_w(self, uncore_freq_ghz: float, uncore_activity: float) -> float:
        """Dynamic power of the uncore (L3, ring, memory controllers)."""
        scale = self._uncore_scale(uncore_freq_ghz)
        check_fraction("uncore_activity", uncore_activity)
        act = _uncore_activity_factor(uncore_activity)
        return scale * act * self.variability.dynamic_factor

    def dram_power_w(self, membw_gbs: float) -> float:
        """DRAM power: background refresh plus traffic-proportional term."""
        check_positive("membw_gbs", membw_gbs, strict=False)
        return _dram_w(membw_gbs)

    def power(
        self,
        *,
        core_freq_ghz: float,
        uncore_freq_ghz: float,
        active_threads: int,
        core_activity: float,
        uncore_activity: float,
        membw_gbs: float,
    ) -> PowerBreakdown:
        """Full node power breakdown at the given operating point."""
        key = (
            core_freq_ghz,
            uncore_freq_ghz,
            active_threads,
            core_activity,
            uncore_activity,
            membw_gbs,
        )
        cached = self._breakdown_cache.get(key)
        if cached is not None:
            return cached
        breakdown = PowerBreakdown(
            static_w=config.NODE_IDLE_POWER_W * self.variability.static_factor,
            core_dynamic_w=self.core_dynamic_power_w(
                core_freq_ghz, active_threads, core_activity
            ),
            uncore_dynamic_w=self.uncore_dynamic_power_w(uncore_freq_ghz, uncore_activity),
            dram_w=self.dram_power_w(membw_gbs),
            blade_w=config.BLADE_POWER_W,
        )
        if len(self._breakdown_cache) >= 8192:
            self._breakdown_cache.clear()
        self._breakdown_cache[key] = breakdown
        return breakdown


_SCALAR_VIEWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def scalar_power_model(model: PowerModel) -> ScalarPowerModel:
    """The scalar model of ``model``'s physics, kept while ``model``
    lives (so its breakdown memo does too, as it did on the model)."""
    view = _SCALAR_VIEWS.get(model)
    if view is None:
        view = _SCALAR_VIEWS[model] = ScalarPowerModel(
            model.variability,
            num_sockets=model.num_sockets,
            num_cores=model.num_cores,
        )
    return view


def compute_power(
    node,
    *,
    active_threads: int,
    core_activity: float,
    uncore_activity: float,
    membw_gbs: float,
) -> PowerBreakdown:
    """Ground-truth power at ``node``'s current frequencies."""
    return scalar_power_model(node.power_model).power(
        core_freq_ghz=node.core_freq_ghz,
        uncore_freq_ghz=node.uncore_freq_ghz,
        active_threads=active_threads,
        core_activity=core_activity,
        uncore_activity=uncore_activity,
        membw_gbs=membw_gbs,
    )


def advance(node, duration_s: float, breakdown: PowerBreakdown) -> None:
    """Advance ``node``'s simulated time by one segment, charging every
    meter.

    RAPL energy splits evenly across sockets (workloads here are
    node-balanced); HDEEM records total node power.
    """
    if duration_s < 0:
        raise HardwareError("cannot advance time backwards")
    if duration_s == 0:
        return
    node._now_s += duration_s
    node.hdeem.advance(duration_s, breakdown.node_w)
    accumulators = node._rapl_accumulators
    n = len(accumulators)
    for acc in accumulators:
        acc.deposit(RaplDomain.PACKAGE, breakdown.rapl_package_w * duration_s / n)
        acc.deposit(RaplDomain.DRAM, breakdown.rapl_dram_w * duration_s / n)
