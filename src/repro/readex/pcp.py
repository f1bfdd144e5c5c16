"""Score-P Parameter Control Plugins (PCPs).

The three PCPs the paper uses (Section III): ``cpu_freq`` and
``uncore_freq`` change frequencies through the x86_adapt knobs;
``OpenMPTP`` changes the OpenMP thread count via ``omp_set_num_threads``.
Both PTF's experiments engine and the RRL drive the same plugins.
"""

from __future__ import annotations

from repro import config
from repro.errors import RRLError
from repro.hardware.msr import ratio_of_ghz
from repro.hardware.node import ComputeNode
from repro.hardware.x86_adapt import X86AdaptKnob


class CpuFreqPlugin:
    """``cpu_freq`` PCP: sets the core frequency of every core."""

    name = "cpu_freq_plugin"

    def apply(self, node: ComputeNode, value_ghz: float) -> None:
        ratio = ratio_of_ghz(value_ghz)
        for core in node.topology.all_core_ids():
            node.x86_adapt.set_setting(core, X86AdaptKnob.INTEL_TARGET_PSTATE, ratio)

    def current(self, node: ComputeNode) -> float:
        return node.core_freq_ghz


class UncoreFreqPlugin:
    """``uncore_freq`` PCP: sets the uncore frequency of every socket."""

    name = "uncore_freq_plugin"

    def apply(self, node: ComputeNode, value_ghz: float) -> None:
        ratio = ratio_of_ghz(value_ghz)
        for socket in node.topology.sockets:
            node.x86_adapt.set_setting(
                socket.socket_id, X86AdaptKnob.INTEL_UNCORE_RATIO, ratio
            )

    def current(self, node: ComputeNode) -> float:
        return node.uncore_freq_ghz


class OpenMPTPlugin:
    """``OpenMPTP`` PCP: requests an OpenMP thread count for the next
    parallel region (``omp_set_num_threads`` semantics)."""

    name = "openmp_plugin"

    def __init__(self):
        self._requested = config.DEFAULT_OPENMP_THREADS

    def apply(self, node: ComputeNode, threads: int) -> int:
        """Request ``threads``, bounded by ``node``'s core count."""
        cores = node.topology.num_cores
        if not 1 <= threads <= cores:
            raise RRLError(f"requested thread count {threads} outside [1, {cores}]")
        self._requested = int(threads)
        return self._requested

    def current(self, node: ComputeNode) -> int:
        return self._requested
