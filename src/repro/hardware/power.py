"""Ground-truth node power model (the simulated physics).

This is the *hardware side* of the simulation: the analytic model that
generates node power draw as a function of the operating point and of
what the workload is doing.  The tuning stack never reads it directly —
it observes energy only through the RAPL and HDEEM instruments — so the
model plays the role the physical Haswell-EP node plays in the paper.

Structure (DESIGN.md Section 5)::

    P_node = P_static * nu                        (board + sockets at idle)
           + T * (a f_c^3 + b f_c) * u * mu       (active cores)
           + S * (c f_u^3 + d f_u) * act_u * mu   (uncore: L3/ring/IMC)
           + P_dram_bg + e * BW                   (DRAM background + traffic)
           + P_blade                              (fans, NIC, VRs)

with per-node variability factors ``nu`` (static) and ``mu`` (dynamic)
drawn once per node — this is the node-to-node spread of Figures 2a/3a
that energy normalization removes.

The RAPL view covers the CPU packages and DRAM only (no blade), exactly
the difference between the paper's "CPU energy" (measure-rapl) and "job
energy" (sacct / HDEEM node energy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.util.rng import rng_for
from repro.util.validation import check_positive


@dataclass(frozen=True)
class NodeVariability:
    """Per-node manufacturing variability factors.

    ``static_factor`` scales leakage/idle power, ``dynamic_factor`` scales
    switching power.  Both are lognormal around 1 with sigma
    :data:`repro.config.NODE_VARIABILITY_SIGMA`.
    """

    static_factor: float
    dynamic_factor: float

    @classmethod
    def sample(cls, node_id: int, *, seed: int = config.DEFAULT_SEED) -> "NodeVariability":
        rng = rng_for("node-variability", node_id, seed=seed)
        s = float(rng.lognormal(0.0, config.NODE_VARIABILITY_SIGMA))
        d = float(rng.lognormal(0.0, config.NODE_VARIABILITY_SIGMA * 0.7))
        return cls(static_factor=s, dynamic_factor=d)

    @classmethod
    def nominal(cls) -> "NodeVariability":
        """A perfectly average node (used for model calibration tests)."""
        return cls(static_factor=1.0, dynamic_factor=1.0)


@dataclass(frozen=True)
class PowerBreakdown:
    """Instantaneous node power split into its components (watts).

    :meth:`PowerModel.power_array` fills the fields with arrays; the
    derived totals below then hold elementwise, in the same order.
    """

    static_w: float
    core_dynamic_w: float
    uncore_dynamic_w: float
    dram_w: float
    blade_w: float

    @property
    def node_w(self) -> float:
        """Total node power — what HDEEM / sacct job energy sees."""
        return (
            self.static_w
            + self.core_dynamic_w
            + self.uncore_dynamic_w
            + self.dram_w
            + self.blade_w
        )

    @property
    def rapl_package_w(self) -> float:
        """Both packages' RAPL PKG domain power (cores + uncore + leakage)."""
        leakage = config.PACKAGE_LEAKAGE_W * config.SOCKETS_PER_NODE
        return self.core_dynamic_w + self.uncore_dynamic_w + leakage

    @property
    def rapl_dram_w(self) -> float:
        """RAPL DRAM domain power."""
        return self.dram_w

    @property
    def cpu_w(self) -> float:
        """What ``measure-rapl`` reports: package + DRAM domains."""
        return self.rapl_package_w + self.rapl_dram_w


class PowerModel:
    """Analytic power model for one node.

    Parameters
    ----------
    variability:
        The node's manufacturing variability factors.
    num_sockets, num_cores:
        Topology; defaults to the platform of the paper.
    """

    def __init__(
        self,
        variability: NodeVariability | None = None,
        *,
        num_sockets: int = config.SOCKETS_PER_NODE,
        num_cores: int = config.CORES_PER_NODE,
    ):
        self.variability = variability or NodeVariability.nominal()
        self.num_sockets = num_sockets
        self.num_cores = num_cores

    # The frequency polynomials take Python floats, in the array path
    # too: ``float ** 3`` is C ``pow``, which ``np.power`` does not
    # promise to match.
    def _core_scale(self, core_freq_ghz: float, active_threads: int) -> float:
        """The active cores' dynamic power before activity and variability."""
        check_positive("core_freq_ghz", core_freq_ghz)
        if not 0 <= active_threads <= self.num_cores:
            raise ValueError(
                f"active_threads must be in [0, {self.num_cores}], got {active_threads}"
            )
        per_core = (
            config.CORE_DYN_CUBE_W_PER_GHZ3 * core_freq_ghz**3
            + config.CORE_DYN_LIN_W_PER_GHZ * core_freq_ghz
        )
        return active_threads * per_core

    def _uncore_scale(self, uncore_freq_ghz: float) -> float:
        """The uncores' dynamic power before activity and variability."""
        check_positive("uncore_freq_ghz", uncore_freq_ghz)
        per_socket = (
            config.UNCORE_DYN_CUBE_W_PER_GHZ3 * uncore_freq_ghz**3
            + config.UNCORE_DYN_LIN_W_PER_GHZ * uncore_freq_ghz
        )
        return self.num_sockets * per_socket

    def power_array(
        self,
        *,
        core_freq_ghz,
        uncore_freq_ghz,
        active_threads,
        core_activity,
        uncore_activity,
        membw_gbs,
    ) -> PowerBreakdown:
        """The full node power breakdown at G operating points at once.

        ``core_freq_ghz``, ``uncore_freq_ghz`` and ``active_threads``
        hold one value per point; the activities and the bandwidth are
        ``(G, W)`` arrays (or broadcast to them).  Returns a
        :class:`PowerBreakdown` of arrays whose every element equals the
        scalar breakdown of one point (``tests/oracles/physics.py``) bit
        for bit: the per-point factors come from the frequency
        polynomials (validation included), once per distinct input, and
        the rest is elementwise in the scalar order.
        """
        cores = list(zip(core_freq_ghz, active_threads))
        core_scale = _per_point(self._core_scale, cores)
        uncore_scale = _per_point(self._uncore_scale, [(f,) for f in uncore_freq_ghz])
        dynamic = self.variability.dynamic_factor
        uncore_act = _uncore_activity_factor(uncore_activity)
        return PowerBreakdown(
            static_w=config.NODE_IDLE_POWER_W * self.variability.static_factor,
            core_dynamic_w=core_scale * core_activity * dynamic,
            uncore_dynamic_w=uncore_scale * uncore_act * dynamic,
            dram_w=_dram_w(membw_gbs),
            blade_w=config.BLADE_POWER_W,
        )


def _per_point(scale, args: list) -> np.ndarray:
    """``scale(*a)`` for each ``a`` as a column, evaluated once per
    distinct argument tuple."""
    memo = {a: scale(*a) for a in dict.fromkeys(args)}
    return np.array([memo[a] for a in args]).reshape(-1, 1)


# Formulas shared with the scalar reference (tests/oracles/physics.py).

def _uncore_activity_factor(uncore_activity):
    idle = config.UNCORE_IDLE_ACTIVITY
    return idle + (1.0 - idle) * uncore_activity


def _dram_w(membw_gbs):
    return config.DRAM_BACKGROUND_POWER_W + config.DRAM_POWER_W_PER_GBS * membw_gbs
