"""One simulated compute node: registers, knobs, meters and ground truth.

:class:`ComputeNode` is the object the execution simulator runs
applications on.  It owns

* the MSR register file and the DVFS/UFS controllers over it,
* the ``x86_adapt`` knob device the PCP plugins use,
* the RAPL accumulators/reader and the HDEEM monitor,
* the ground-truth :class:`~repro.hardware.power.PowerModel` with this
  node's variability factors.

Simulated time advances only through :meth:`ComputeNode.advance_many`,
which charges a run's whole charge sequence into every meter
consistently.  A :class:`NodeRecipe` is a fresh node not built yet: its
entry state, for a compile that may never need the node itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.errors import HardwareError
from repro.hardware.frequency import DVFSController, UFSController
from repro.hardware.hdeem import HdeemMonitor
from repro.hardware.msr import MSRRegisterFile
from repro.hardware.power import NodeVariability, PowerModel
from repro.hardware.rapl import RaplAccumulator, RaplDomain, RaplReader
from repro.hardware.topology import NodeTopology
from repro.hardware.x86_adapt import X86AdaptDevice


class ComputeNode:
    """A dual-socket Haswell-EP-like compute node."""

    def __init__(
        self,
        node_id: int = 0,
        *,
        seed: int = config.DEFAULT_SEED,
        topology: NodeTopology | None = None,
    ):
        self.node_id = node_id
        self.seed = seed
        self.topology = topology or NodeTopology.default()
        cores_per_socket = self.topology.sockets[0].num_cores
        self.msr = MSRRegisterFile(
            num_cores=self.topology.num_cores,
            num_sockets=self.topology.num_sockets,
            cores_per_socket=cores_per_socket,
        )
        self.dvfs = DVFSController(self.msr, self.topology)
        self.ufs = UFSController(self.msr, self.topology)
        self.x86_adapt = X86AdaptDevice(self.dvfs, self.ufs)
        self.power_model = PowerModel(
            NodeVariability.sample(node_id, seed=seed),
            num_sockets=self.topology.num_sockets,
            num_cores=self.topology.num_cores,
        )
        self.hdeem = HdeemMonitor(node_id, seed=seed)
        self._rapl_accumulators = [
            RaplAccumulator(self.msr, s.socket_id, cores_per_socket)
            for s in self.topology.sockets
        ]
        self.rapl = RaplReader(self.msr, self.topology.num_sockets, cores_per_socket)
        self._now_s = 0.0

    # ------------------------------------------------------------------
    @property
    def now_s(self) -> float:
        """Current simulated wall-clock time on this node."""
        return self._now_s

    @property
    def core_freq_ghz(self) -> float:
        return self.dvfs.node_frequency()

    @property
    def uncore_freq_ghz(self) -> float:
        return self.ufs.node_frequency()

    @property
    def pending_transitions(self) -> tuple[bool, bool]:
        """Whether DVFS and UFS transitions are logged and not yet charged."""
        return self.dvfs.log.count > 0, self.ufs.log.count > 0

    def set_frequencies(self, core_ghz: float, uncore_ghz: float) -> None:
        """Convenience: program every core and socket of the node."""
        self.dvfs.set_all(core_ghz)
        self.ufs.set_all(uncore_ghz)

    def reset_to_default(self) -> None:
        """Return to the platform default operating point (2.5 | 3.0 GHz)."""
        self.set_frequencies(
            config.DEFAULT_CORE_FREQ_GHZ, config.DEFAULT_UNCORE_FREQ_GHZ
        )

    # ------------------------------------------------------------------
    def advance_many(
        self,
        durations_s,
        node_powers_w,
        rapl_package_powers_w,
        rapl_dram_powers_w,
    ) -> None:
        """Advance through a sequence of charge segments in bulk.

        Equivalent — to the bit — to charging each segment in turn (the
        recursive reference engine's per-charge ``advance`` in
        ``tests/oracles/physics.py``): time accumulates in sequence
        order, HDEEM records the same timeline, and the per-socket RAPL
        deposits replay the identical residual arithmetic.  Zero-length
        segments are no-ops.  This is the meter backend of the fleet
        kernel.
        """
        durations_s = np.asarray(durations_s, dtype=float)
        if durations_s.size == 0:
            return
        if float(durations_s.min()) < 0:
            raise HardwareError("cannot advance time backwards")
        node_powers_w = np.asarray(node_powers_w, dtype=float)
        # Sequential accumulation (cumsum == repeated ``+=``), seeded
        # with the current clock.
        self._now_s = float(
            np.cumsum(np.concatenate(([self._now_s], durations_s)))[-1]
        )
        self.hdeem.advance_many(durations_s, node_powers_w)
        n = len(self._rapl_accumulators)
        package_j = np.asarray(rapl_package_powers_w, dtype=float) * durations_s / n
        dram_j = np.asarray(rapl_dram_powers_w, dtype=float) * durations_s / n
        nonzero = durations_s > 0
        if not nonzero.all():
            package_j = package_j[nonzero]
            dram_j = dram_j[nonzero]
        package_list = package_j.tolist()
        dram_list = dram_j.tolist()
        for acc in self._rapl_accumulators:
            acc.deposit_many(RaplDomain.PACKAGE, package_list)
            acc.deposit_many(RaplDomain.DRAM, dram_list)

    def rapl_state(self) -> dict[str, tuple]:
        """Raw RAPL counters and carried residuals, per domain and socket.

        The observable end state of the node's energy accumulators:
        ``{"package": ((raw, residual), ...), "dram": (...)}`` with one
        ``(counter, residual)`` pair per socket.  The equivalence tests
        compare a live node with the recursive engine's through this
        accessor, sub-tick residuals included.
        """
        cores_per_socket = self.topology.sockets[0].num_cores
        state: dict[str, tuple] = {}
        for domain in (RaplDomain.PACKAGE, RaplDomain.DRAM):
            pairs = []
            for socket, acc in zip(self.topology.sockets, self._rapl_accumulators):
                raw = self.msr.hw_get(
                    socket.socket_id * cores_per_socket, domain.value
                )
                pairs.append((raw, acc.residual(domain)))
            state[domain.name.lower()] = tuple(pairs)
        return state


@dataclass(frozen=True)
class NodeRecipe:
    """A fresh node before it is built: ``ComputeNode(node_id, seed=seed,
    topology=topology)`` programmed to the given (quantized) frequencies.

    It answers what a schedule cache key reads without building the
    node; a frequency off the platform default is a pending transition,
    as programming it logs one.  :meth:`build` makes the node to walk.
    """

    node_id: int
    seed: int
    topology: NodeTopology
    core_freq_ghz: float
    uncore_freq_ghz: float

    @property
    def pending_transitions(self) -> tuple[bool, bool]:
        return (
            self.core_freq_ghz != config.DEFAULT_CORE_FREQ_GHZ,
            self.uncore_freq_ghz != config.DEFAULT_UNCORE_FREQ_GHZ,
        )

    def build(self) -> ComputeNode:
        node = ComputeNode(self.node_id, seed=self.seed, topology=self.topology)
        if any(self.pending_transitions):
            node.set_frequencies(self.core_freq_ghz, self.uncore_freq_ghz)
        return node
