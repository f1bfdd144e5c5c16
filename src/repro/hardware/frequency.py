"""DVFS and UFS controllers over the simulated MSR register file.

The controllers quantize requested frequencies to the 100 MHz ratio grid,
validate the platform range, program the corresponding MSR fields and log
every transition with its hardware latency (21 us per core for DVFS,
20 us per socket for UFS — Section V-E of the paper), so the runtime
layers can charge switching overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import config
from repro.errors import FrequencyError
from repro.hardware.msr import MSR, MSRRegisterFile, ghz_of_ratio, ratio_of_ghz
from repro.hardware.topology import NodeTopology


_QUANTIZED: dict[float, float] = {}


def quantize_frequency(freq_ghz: float) -> float:
    """Snap ``freq_ghz`` to the 100 MHz grid (nearest step).

    Memoised: the call sits on the per-core programming path of every
    frequency switch, over a domain of a few dozen distinct values.
    """
    q = _QUANTIZED.get(freq_ghz)
    if q is None:
        q = _QUANTIZED[freq_ghz] = round(
            round(freq_ghz / config.FREQ_STEP_GHZ) * config.FREQ_STEP_GHZ, 1
        )
    return q


@dataclass(frozen=True)
class FrequencyTransition:
    """One logged frequency change."""

    domain: str  # "core" or "uncore"
    domain_id: int  # core id or socket id
    old_ghz: float
    new_ghz: float
    latency_s: float


class _TransitionLog:
    """Shared transition log with total-latency accounting."""

    def __init__(self) -> None:
        self.transitions: list[FrequencyTransition] = []

    def record(self, t: FrequencyTransition) -> None:
        self.transitions.append(t)

    @property
    def count(self) -> int:
        return len(self.transitions)

    @property
    def total_latency_s(self) -> float:
        return sum(t.latency_s for t in self.transitions)

    def clear(self) -> None:
        self.transitions.clear()


class DVFSController:
    """Per-core dynamic voltage and frequency scaling.

    Writes the target P-state ratio into ``IA32_PERF_CTL`` bits 8:15; the
    simulated hardware applies it instantly to ``IA32_PERF_STATUS`` but the
    21 us transition latency is logged for overhead accounting.
    """

    def __init__(self, regfile: MSRRegisterFile, topology: NodeTopology):
        self._regfile = regfile
        self._topology = topology
        self.log = _TransitionLog()
        self._node_freq_cache: tuple[int, float] | None = None
        # Reset programming: every core at the platform default, as one
        # bulk register fill (same end state as per-core _program calls,
        # nothing logged — the node boots at this configuration).
        ratio = ratio_of_ghz(config.DEFAULT_CORE_FREQ_GHZ)
        regfile.hw_fill(MSR.IA32_PERF_CTL, (ratio & 0xFF) << 8)
        regfile.hw_fill(MSR.IA32_PERF_STATUS, (ratio & 0xFF) << 8)

    def _program(self, core_id: int, freq_ghz: float, *, record: bool) -> None:
        ratio = ratio_of_ghz(freq_ghz)
        ctl = self._regfile.read(core_id, MSR.IA32_PERF_CTL)
        new_ctl = (ctl & ~(0xFF << 8)) | ((ratio & 0xFF) << 8)
        if new_ctl == ctl:
            # The register already encodes this ratio, so PERF_STATUS is
            # in sync (writes always grant the target) and no transition
            # can be due: programming would be a complete no-op.  This
            # makes redundant node-wide reprogramming (reset on a fresh
            # node, a live node's exit state after its walk) free.
            return
        old = self.get_frequency(core_id) if record else None
        self._regfile.write(core_id, MSR.IA32_PERF_CTL, new_ctl)
        # Hardware grants the request immediately in the simulation.
        self._regfile.hw_set(core_id, MSR.IA32_PERF_STATUS, (ratio & 0xFF) << 8)
        if record and old != freq_ghz:
            self.log.record(
                FrequencyTransition(
                    domain="core",
                    domain_id=core_id,
                    old_ghz=old,
                    new_ghz=freq_ghz,
                    latency_s=config.DVFS_TRANSITION_LATENCY_S,
                )
            )

    def set_frequency(self, core_id: int, freq_ghz: float) -> float:
        """Set one core's frequency; returns the quantized value applied."""
        q = quantize_frequency(freq_ghz)
        if not config.CORE_FREQ_MIN_GHZ <= q <= config.CORE_FREQ_MAX_GHZ:
            raise FrequencyError(
                f"core frequency {freq_ghz} GHz outside supported range "
                f"[{config.CORE_FREQ_MIN_GHZ}, {config.CORE_FREQ_MAX_GHZ}]"
            )
        self._program(core_id, q, record=True)
        return q

    def set_all(self, freq_ghz: float) -> float:
        """Set every core of the node to ``freq_ghz``."""
        q = quantize_frequency(freq_ghz)
        for core in self._topology.all_core_ids():
            q = self.set_frequency(core, q)
        return q

    def get_frequency(self, core_id: int) -> float:
        status = self._regfile.read(core_id, MSR.IA32_PERF_STATUS)
        ratio = (status >> 8) & 0xFF
        if ratio == 0:  # before first programming
            return config.DEFAULT_CORE_FREQ_GHZ
        return ghz_of_ratio(ratio)

    def node_frequency(self) -> float:
        """Return the common frequency if all cores agree, else raise.

        Reading every core's registers per call made this the hottest
        spot of controller-driven runs; the derived value is cached
        against the register file's mutation counter, so any write —
        through this controller, x86_adapt or a raw ``wrmsr`` —
        invalidates it exactly.
        """
        cached = self._node_freq_cache
        generation = self._regfile.generation
        if cached is not None and cached[0] == generation:
            return cached[1]
        freqs = {self.get_frequency(c) for c in self._topology.all_core_ids()}
        if len(freqs) != 1:
            raise FrequencyError(f"cores run at mixed frequencies: {sorted(freqs)}")
        value = freqs.pop()
        self._node_freq_cache = (generation, value)
        return value


class UFSController:
    """Per-socket uncore frequency scaling via ``MSR_UNCORE_RATIO_LIMIT``.

    We pin min ratio == max ratio, which is how the READEX PCPs fix the
    uncore frequency on Haswell.
    """

    def __init__(self, regfile: MSRRegisterFile, topology: NodeTopology):
        self._regfile = regfile
        self._topology = topology
        self.log = _TransitionLog()
        self._node_freq_cache: tuple[int, float] | None = None
        self._cores_per_socket = topology.sockets[0].num_cores
        # Reset programming, as in the DVFS controller: one bulk fill.
        ratio = ratio_of_ghz(config.DEFAULT_UNCORE_FREQ_GHZ)
        regfile.hw_fill(
            MSR.MSR_UNCORE_RATIO_LIMIT, (ratio & 0x7F) | ((ratio & 0x7F) << 8)
        )

    def _any_core_of(self, socket_id: int) -> int:
        return self._topology.sockets[socket_id].cores[0].core_id

    def _program(self, socket_id: int, freq_ghz: float, *, record: bool) -> None:
        ratio = ratio_of_ghz(freq_ghz)
        # bits 0:6 = max ratio, bits 8:14 = min ratio
        value = (ratio & 0x7F) | ((ratio & 0x7F) << 8)
        core = self._any_core_of(socket_id)
        if self._regfile.read(core, MSR.MSR_UNCORE_RATIO_LIMIT) == value:
            return  # register already encodes this ratio: full no-op
        old = self.get_frequency(socket_id) if record else None
        self._regfile.write(core, MSR.MSR_UNCORE_RATIO_LIMIT, value)
        if record and old != freq_ghz:
            self.log.record(
                FrequencyTransition(
                    domain="uncore",
                    domain_id=socket_id,
                    old_ghz=old,
                    new_ghz=freq_ghz,
                    latency_s=config.UFS_TRANSITION_LATENCY_S,
                )
            )

    def set_frequency(self, socket_id: int, freq_ghz: float) -> float:
        q = quantize_frequency(freq_ghz)
        if not config.UNCORE_FREQ_MIN_GHZ <= q <= config.UNCORE_FREQ_MAX_GHZ:
            raise FrequencyError(
                f"uncore frequency {freq_ghz} GHz outside supported range "
                f"[{config.UNCORE_FREQ_MIN_GHZ}, {config.UNCORE_FREQ_MAX_GHZ}]"
            )
        self._program(socket_id, q, record=True)
        return q

    def set_all(self, freq_ghz: float) -> float:
        q = quantize_frequency(freq_ghz)
        for socket in self._topology.sockets:
            q = self.set_frequency(socket.socket_id, q)
        return q

    def get_frequency(self, socket_id: int) -> float:
        value = self._regfile.read(
            self._any_core_of(socket_id), MSR.MSR_UNCORE_RATIO_LIMIT
        )
        ratio = value & 0x7F
        if ratio == 0:
            return config.DEFAULT_UNCORE_FREQ_GHZ
        return ghz_of_ratio(ratio)

    def node_frequency(self) -> float:
        """Common uncore frequency, cached like its DVFS counterpart."""
        cached = self._node_freq_cache
        generation = self._regfile.generation
        if cached is not None and cached[0] == generation:
            return cached[1]
        freqs = {self.get_frequency(s.socket_id) for s in self._topology.sockets}
        if len(freqs) != 1:
            raise FrequencyError(f"sockets run at mixed uncore frequencies: {sorted(freqs)}")
        value = freqs.pop()
        self._node_freq_cache = (generation, value)
        return value
