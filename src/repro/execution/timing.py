"""Region run-time model (roofline with partial compute/memory overlap).

For a region with compute work ``W_c`` (cycles) and memory work ``W_m``
(bytes), executed with ``T`` threads at core frequency ``f_c`` and uncore
frequency ``f_u``::

    t_c = W_c / (f_c * S(T))          compute time
    t_m = W_m / B(f_u, T)             memory time
    t   = o * max(t_c, t_m) + (1 - o) * (t_c + t_m)

``o`` is the region's compute/memory overlap.  The model yields the
paper's qualitative behaviour: compute-bound regions can lower UFS until
``t_m`` emerges from under ``t_c`` (interior UCF optimum); memory-bound
regions can lower CF until ``t_c`` emerges from under ``t_m`` (interior
CF optimum); and both suffer when either knob goes too low.

:func:`region_timings` evaluates a whole block — G operating points by
W regions — as arrays.  It is the only production form: the fleet
kernel prices uncontrolled grids with it, and a controlled schedule's
pricing pass over its distinct operating points.  The scalar reference,
one region at one point, lives in ``tests/oracles/physics.py``; every
array element equals it bit for bit, because each elementwise operation
is the scalar one, in its order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.execution.speedup import memory_bandwidth_gbs


@dataclass(frozen=True)
class RegionTiming:
    """Ground-truth execution profile of regions at operating points.

    :func:`region_timings` fills the fields with arrays; the scalar
    reference fills them for one region at one point."""

    time_s: float
    compute_time_s: float
    memory_time_s: float
    core_activity: float
    uncore_activity: float
    membw_gbs: float
    threads: int
    core_freq_ghz: float
    uncore_freq_ghz: float

    @property
    def memory_bound(self) -> bool:
        return self.memory_time_s > self.compute_time_s


def region_timings(
    chars,
    *,
    threads,
    core_freq_ghz,
    uncore_freq_ghz,
) -> RegionTiming:
    """Evaluate the timing model for W regions at G operating points.

    ``chars`` holds the W regions' characteristics; ``threads``,
    ``core_freq_ghz`` and ``uncore_freq_ghz`` hold one value per
    operating point.  Returns a :class:`RegionTiming` whose time,
    activity and bandwidth fields are ``(G, W)`` arrays and whose
    operating-point fields are ``(G, 1)`` columns.  Element ``[g, w]``
    equals the scalar model of region ``w`` at point ``g`` bit for bit:
    each elementwise operation is the scalar path's, in its order.
    """
    threads = list(threads)
    # The bandwidth depends on the operating point alone: the scalar
    # model, once per distinct (uncore frequency, threads) pair, which
    # also refuses a non-positive thread count.
    pairs = list(zip(uncore_freq_ghz, threads))
    memo = {pair: memory_bandwidth_gbs(*pair) for pair in dict.fromkeys(pairs)}
    bandwidth = np.array([memo[pair] for pair in pairs]).reshape(-1, 1)
    core = np.asarray(core_freq_ghz, dtype=float).reshape(-1, 1)
    t = np.asarray(threads, dtype=float).reshape(-1, 1)
    cycles, memory_bytes, o, p, sigma = np.array(
        [
            (
                c.compute_cycles,
                c.memory_bytes,
                c.overlap,
                c.parallel_fraction,
                c.thread_overhead,
            )
            for c in chars
        ],
        dtype=float,
    ).reshape(-1, 5).T

    # thread_speedup, per region and point
    speedup = 1.0 / ((1.0 - p) + p / t + sigma * (t - 1.0))
    t_c = cycles / (core * 1e9 * speedup)
    t_m = memory_bytes / (bandwidth * 1e9)
    time_s = o * np.maximum(t_c, t_m) + (1.0 - o) * (t_c + t_m)
    positive = time_s > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        busy_frac = np.where(positive, np.minimum(1.0, t_c / time_s), 0.0)
        achieved_gbs = np.where(positive, memory_bytes / time_s / 1e9, 0.0)
    core_activity = busy_frac + config.STALLED_CORE_ACTIVITY * (1.0 - busy_frac)
    uncore_activity = np.minimum(1.0, achieved_gbs / config.PEAK_MEMBW_GBS)
    return RegionTiming(
        time_s=time_s,
        compute_time_s=t_c,
        memory_time_s=t_m,
        core_activity=core_activity,
        uncore_activity=uncore_activity,
        membw_gbs=achieved_gbs,
        threads=np.asarray(threads).reshape(-1, 1),
        core_freq_ghz=core,
        uncore_freq_ghz=np.asarray(uncore_freq_ghz, dtype=float).reshape(-1, 1),
    )
