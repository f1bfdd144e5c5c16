"""RAPL energy counters over the simulated MSRs.

Intel's Running Average Power Limit interface exposes per-package and
per-DRAM-domain energy accumulators as 32-bit MSR fields in units of
``1 / 2**ESU`` joules (61 uJ on Haswell).  The counters wrap around every
few minutes under load; :class:`RaplReader` handles the wraparound the
way ``measure-rapl`` does — by sampling often enough that at most one
wrap occurs between samples.
"""

from __future__ import annotations

import enum

from repro.errors import HardwareError
from repro.hardware.msr import MSR, MSRRegisterFile, RAPL_ESU

#: Joules per counter increment.
RAPL_ENERGY_UNIT_J = 1.0 / (1 << RAPL_ESU)

_COUNTER_MASK = (1 << 32) - 1


class RaplDomain(enum.Enum):
    """RAPL measurement domains modelled on the platform."""

    PACKAGE = MSR.MSR_PKG_ENERGY_STATUS
    DRAM = MSR.MSR_DRAM_ENERGY_STATUS


def fold_deposits(residual: float, joules_seq) -> tuple[float, int]:
    """Quantise a sequence of energy deposits into counter ticks.

    Returns the carried sub-tick residual and the tick count after
    depositing each of ``joules_seq`` in order, starting from
    ``residual`` — the exact float arithmetic of repeated
    :meth:`RaplAccumulator.deposit` calls.
    """
    unit = RAPL_ENERGY_UNIT_J
    ticks_total = 0
    for joules in joules_seq:
        if joules < 0:
            raise HardwareError("cannot deposit negative energy")
        total = residual + joules
        ticks = int(total / unit)
        residual = total - ticks * unit
        ticks_total += ticks
    return residual, ticks_total


class RaplAccumulator:
    """Hardware side: accumulates joules into the wrapping MSR counters.

    One accumulator exists per socket; the node simulation calls
    :meth:`deposit` as (simulated) time advances.
    """

    def __init__(self, regfile: MSRRegisterFile, socket_id: int, cores_per_socket: int):
        self._regfile = regfile
        self._cpu = socket_id * cores_per_socket  # any core of the socket
        self._residual = {RaplDomain.PACKAGE: 0.0, RaplDomain.DRAM: 0.0}

    def deposit(self, domain: RaplDomain, joules: float) -> None:
        """Add ``joules`` to the domain counter, honouring unit quantisation."""
        if joules < 0:
            raise HardwareError("cannot deposit negative energy")
        total = self._residual[domain] + joules
        ticks = int(total / RAPL_ENERGY_UNIT_J)
        self._residual[domain] = total - ticks * RAPL_ENERGY_UNIT_J
        old = self._regfile.hw_get(self._cpu, domain.value)
        self._regfile.hw_set(self._cpu, domain.value, (old + ticks) & _COUNTER_MASK)

    def residual(self, domain: RaplDomain) -> float:
        """Energy deposited but below one counter tick, carried forward."""
        return self._residual[domain]

    def deposit_many(self, domain: RaplDomain, joules_seq) -> None:
        """Deposit a sequence of energies with one register update.

        The residual/tick arithmetic follows the exact float-operation
        order of repeated :meth:`deposit` calls, so the counter and the
        carried residual end up bit-identical; only the per-call MSR
        write is coalesced (tick counts add modulo the 32-bit wrap, so
        one wrapped update equals many).  Used by the replay fast path
        of the execution simulator.
        """
        residual, ticks_total = fold_deposits(self._residual[domain], joules_seq)
        self._residual[domain] = residual
        old = self._regfile.hw_get(self._cpu, domain.value)
        self._regfile.hw_set(
            self._cpu, domain.value, (old + ticks_total) & _COUNTER_MASK
        )


class RaplReader:
    """Software side: reads energy like ``measure-rapl`` / PAPI's RAPL component.

    Tracks the last raw value per (socket, domain) and unwraps 32-bit
    overflow, assuming at most one wrap between consecutive reads.
    """

    def __init__(self, regfile: MSRRegisterFile, num_sockets: int, cores_per_socket: int):
        self._regfile = regfile
        self._num_sockets = num_sockets
        self._cores_per_socket = cores_per_socket
        # Read the ESU from MSR_RAPL_POWER_UNIT the way real tools do.
        unit_reg = regfile.read(0, MSR.MSR_RAPL_POWER_UNIT)
        self._unit_j = 1.0 / (1 << ((unit_reg >> 8) & 0x1F))
        #: (socket, domain) -> (last raw counter, unwrapped joules)
        self._last: dict[tuple[int, RaplDomain], tuple[int, float]] = {}

    @property
    def energy_unit_j(self) -> float:
        return self._unit_j

    def _raw(self, socket_id: int, domain: RaplDomain) -> int:
        cpu = socket_id * self._cores_per_socket
        return self._regfile.read(cpu, domain.value)

    def read_joules(self, socket_id: int, domain: RaplDomain) -> float:
        """Monotonic unwrapped energy for one socket/domain, in joules."""
        if not 0 <= socket_id < self._num_sockets:
            raise HardwareError(f"no such socket: {socket_id}")
        raw = self._raw(socket_id, domain)
        key = (socket_id, domain)
        prev = self._last.get(key)
        if prev is None:
            total = raw * self._unit_j
        else:
            prev_raw, prev_total = prev
            delta = (raw - prev_raw) & _COUNTER_MASK  # unwrap one overflow
            total = prev_total + delta * self._unit_j
        self._last[key] = (raw, total)
        return total

    def read_node_joules(self, domain: RaplDomain) -> float:
        """Sum of the domain energy over all sockets."""
        total = 0
        for socket_id in range(self._num_sockets):
            total += self.read_joules(socket_id, domain)
        return total

    def read_cpu_energy_joules(self) -> float:
        """Package + DRAM over all sockets — the paper's "CPU energy"."""
        return self.read_node_joules(RaplDomain.PACKAGE) + self.read_node_joules(
            RaplDomain.DRAM
        )
