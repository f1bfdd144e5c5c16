"""HDEEM-style high-definition node-energy monitoring.

HDEEM [Hackenberg et al. 2014] is an FPGA on the node board that samples
blade power at 1 kSa/s out-of-band (no perturbation of the host) and
integrates energy.  Two properties matter for the paper's methodology and
are modelled here:

* **sampling**: energy is the integral of a 1 kHz-sampled power signal,
  so very short intervals are quantized;
* **start delay**: beginning a measurement takes ~5 ms on average, which
  is why regions shorter than 100 ms are not considered significant
  (Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.errors import HardwareError
from repro.util.rng import rng_for


@dataclass(frozen=True)
class HdeemMeasurement:
    """Result of one start/stop measurement window."""

    energy_j: float
    duration_s: float
    samples: int

    @property
    def mean_power_w(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.energy_j / self.duration_s


@dataclass
class _Segment:
    duration_s: float
    power_w: float


class HdeemMonitor:
    """FPGA-side node power sampler for one compute node.

    The node simulation appends ``(duration, node_power)`` segments as
    simulated time advances; software starts/stops measurement windows and
    receives sampled-integrated energy.  The start delay consumes the
    first :data:`repro.config.HDEEM_MEASUREMENT_DELAY_S` seconds of the
    window, mirroring the latency HDEEM needs before delivering values.
    """

    def __init__(self, node_id: int = 0, *, seed: int = config.DEFAULT_SEED):
        self._node_id = node_id
        self._seed = seed
        self._now_s = 0.0
        self._segments: list[_Segment] = []
        #: Power timeline recorded but not yet materialised as _Segment
        #: rows: (duration, power) scalars from :meth:`advance` (the
        #: reference engine's per-charge path) and array blocks from
        #: :meth:`advance_many` (the fleet kernel's), in arrival order.  The FPGA
        #: only needs the timeline when a window is integrated, so row
        #: objects are built lazily (:meth:`_flush`).
        self._pending: list[tuple] = []
        self._window_start: float | None = None
        self._measurement_index = 0

    # -- hardware side ------------------------------------------------------
    def advance(self, duration_s: float, node_power_w: float) -> None:
        """Record that the node drew ``node_power_w`` for ``duration_s``."""
        if duration_s < 0:
            raise HardwareError("cannot advance time backwards")
        if duration_s == 0:
            return
        self._pending.append((duration_s, node_power_w))
        self._now_s += duration_s

    def advance_many(self, durations_s, node_powers_w) -> None:
        """Record a block of ``(duration, power)`` segments in one call.

        Semantically identical to calling :meth:`advance` per segment
        (zero durations are skipped, time accumulates in sequence order);
        the segment rows are materialised lazily on the next window
        integration.  Used by :meth:`~repro.hardware.node.ComputeNode.advance_many`.
        """
        durations_s = np.asarray(durations_s, dtype=float)
        if durations_s.size == 0:
            return
        if float(durations_s.min()) < 0:
            raise HardwareError("cannot advance time backwards")
        node_powers_w = np.asarray(node_powers_w, dtype=float)
        nonzero = durations_s > 0
        if nonzero.any():
            self._pending.append((durations_s[nonzero], node_powers_w[nonzero]))
        # Sequential left-to-right accumulation (np.cumsum), bit-identical
        # to the per-segment ``+=`` of advance(); zero durations are
        # exact no-ops either way.
        self._now_s = float(
            np.cumsum(np.concatenate(([self._now_s], durations_s)))[-1]
        )

    def _flush(self) -> None:
        """Materialise pending timeline blocks into _Segment rows."""
        if not self._pending:
            return
        segments = self._segments
        for durations, powers in self._pending:
            if isinstance(durations, np.ndarray):
                segments.extend(map(_Segment, durations.tolist(), powers.tolist()))
            else:
                segments.append(_Segment(durations, powers))
        self._pending.clear()

    @property
    def now_s(self) -> float:
        return self._now_s

    # -- software side ------------------------------------------------------
    def start(self) -> None:
        if self._window_start is not None:
            raise HardwareError("HDEEM measurement already running")
        self._window_start = self._now_s + config.HDEEM_MEASUREMENT_DELAY_S

    def stop(self) -> HdeemMeasurement:
        if self._window_start is None:
            raise HardwareError("HDEEM measurement not running")
        start = self._window_start
        end = self._now_s
        self._window_start = None
        self._measurement_index += 1
        if end <= start:
            return HdeemMeasurement(energy_j=0.0, duration_s=max(0.0, end - start), samples=0)
        energy, samples = self._integrate(start, end)
        rng = rng_for("hdeem", self._node_id, self._measurement_index, seed=self._seed)
        noise = float(rng.lognormal(0.0, config.MEASUREMENT_NOISE_SIGMA))
        return HdeemMeasurement(
            energy_j=energy * noise, duration_s=end - start, samples=samples
        )

    def _integrate(self, t0: float, t1: float) -> tuple[float, int]:
        """Integrate the power timeline between ``t0`` and ``t1``.

        The 1 kSa/s sampling means energy resolves at millisecond
        granularity: each sample takes the power at the sample instant and
        charges it for one sample period.
        """
        self._flush()
        period = 1.0 / config.HDEEM_SAMPLE_RATE_HZ
        # Build cumulative segment boundaries once per integration.
        energy = 0.0
        samples = 0
        t = t0
        seg_start = 0.0
        seg_iter = iter(self._segments)
        seg = next(seg_iter, None)
        while seg is not None and t < t1:
            seg_end = seg_start + seg.duration_s
            if seg_end <= t:
                seg_start = seg_end
                seg = next(seg_iter, None)
                continue
            # Sample instants falling inside [max(t, seg_start), min(t1, seg_end))
            lo = max(t, seg_start)
            hi = min(t1, seg_end)
            if hi > lo:
                energy += (hi - lo) * seg.power_w
                samples += int((hi - lo) / period)
            t = hi
            if t >= seg_end:
                seg_start = seg_end
                seg = next(seg_iter, None)
        return energy, samples
