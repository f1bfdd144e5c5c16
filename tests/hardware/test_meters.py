"""Tests for RAPL counters, HDEEM monitor, ComputeNode and Cluster."""

import pytest

from repro import config
from repro.errors import HardwareError, JobError
from repro.hardware.cluster import Cluster
from repro.hardware.hdeem import HdeemMonitor
from repro.hardware.msr import MSRRegisterFile
from repro.hardware.node import ComputeNode
from repro.hardware.rapl import (
    RAPL_ENERGY_UNIT_J,
    RaplAccumulator,
    RaplDomain,
    RaplReader,
)
from tests.oracles.physics import advance, compute_power


def idle_breakdown(node):
    """The node's power with no workload running."""
    return compute_power(
        node, active_threads=0, core_activity=0.0, uncore_activity=0.0, membw_gbs=0.0
    )


@pytest.fixture
def regfile():
    return MSRRegisterFile(num_cores=24, num_sockets=2, cores_per_socket=12)


class TestRapl:
    def test_deposit_appears_in_reader(self, regfile):
        acc = RaplAccumulator(regfile, 0, 12)
        reader = RaplReader(regfile, 2, 12)
        reader.read_joules(0, RaplDomain.PACKAGE)  # baseline
        acc.deposit(RaplDomain.PACKAGE, 123.0)
        total = reader.read_joules(0, RaplDomain.PACKAGE)
        assert total == pytest.approx(123.0, abs=2 * RAPL_ENERGY_UNIT_J)

    def test_sub_unit_deposits_accumulate(self, regfile):
        acc = RaplAccumulator(regfile, 0, 12)
        reader = RaplReader(regfile, 2, 12)
        tiny = RAPL_ENERGY_UNIT_J / 10
        for _ in range(100):
            acc.deposit(RaplDomain.DRAM, tiny)
        total = reader.read_joules(0, RaplDomain.DRAM)
        assert total == pytest.approx(100 * tiny, abs=2 * RAPL_ENERGY_UNIT_J)

    def test_wraparound_unwrapped_by_reader(self, regfile):
        acc = RaplAccumulator(regfile, 0, 12)
        reader = RaplReader(regfile, 2, 12)
        near_wrap = ((1 << 32) - 100) * RAPL_ENERGY_UNIT_J
        acc.deposit(RaplDomain.PACKAGE, near_wrap)
        first = reader.read_joules(0, RaplDomain.PACKAGE)
        acc.deposit(RaplDomain.PACKAGE, 200 * RAPL_ENERGY_UNIT_J)  # crosses wrap
        second = reader.read_joules(0, RaplDomain.PACKAGE)
        assert second > first
        assert second - first == pytest.approx(
            200 * RAPL_ENERGY_UNIT_J, abs=2 * RAPL_ENERGY_UNIT_J
        )

    def test_negative_deposit_rejected(self, regfile):
        acc = RaplAccumulator(regfile, 0, 12)
        with pytest.raises(HardwareError):
            acc.deposit(RaplDomain.PACKAGE, -1.0)

    def test_energy_unit_read_from_msr(self, regfile):
        reader = RaplReader(regfile, 2, 12)
        assert reader.energy_unit_j == pytest.approx(RAPL_ENERGY_UNIT_J)

    def test_cpu_energy_sums_domains_and_sockets(self, regfile):
        reader = RaplReader(regfile, 2, 12)
        reader.read_cpu_energy_joules()
        for s in (0, 1):
            acc = RaplAccumulator(regfile, s, 12)
            acc.deposit(RaplDomain.PACKAGE, 10.0)
            acc.deposit(RaplDomain.DRAM, 5.0)
        assert reader.read_cpu_energy_joules() == pytest.approx(30.0, rel=1e-3)


class TestHdeem:
    def test_measurement_integrates_power(self):
        mon = HdeemMonitor(0)
        mon.start()
        mon.advance(1.0, 300.0)
        m = mon.stop()
        # Start delay eats 5 ms of the window.
        expected = (1.0 - config.HDEEM_MEASUREMENT_DELAY_S) * 300.0
        assert m.energy_j == pytest.approx(expected, rel=0.02)

    def test_sample_count_reflects_rate(self):
        mon = HdeemMonitor(0)
        mon.start()
        mon.advance(0.5, 250.0)
        m = mon.stop()
        assert m.samples == pytest.approx(
            (0.5 - config.HDEEM_MEASUREMENT_DELAY_S) * config.HDEEM_SAMPLE_RATE_HZ,
            abs=2,
        )

    def test_double_start_rejected(self):
        mon = HdeemMonitor(0)
        mon.start()
        with pytest.raises(HardwareError):
            mon.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(HardwareError):
            HdeemMonitor(0).stop()

    def test_mean_power_consistent(self):
        mon = HdeemMonitor(0)
        mon.start()
        mon.advance(2.0, 321.0)
        m = mon.stop()
        assert m.mean_power_w == pytest.approx(321.0, rel=0.02)

    def test_multi_segment_integration(self):
        mon = HdeemMonitor(0)
        mon.advance(1.0, 100.0)  # before window: not counted
        mon.start()
        mon.advance(1.0, 200.0)
        mon.advance(1.0, 400.0)
        m = mon.stop()
        expected = (1.0 - config.HDEEM_MEASUREMENT_DELAY_S) * 200.0 + 400.0
        assert m.energy_j == pytest.approx(expected, rel=0.02)

    def test_noise_is_deterministic_per_measurement(self):
        def run():
            mon = HdeemMonitor(3)
            mon.start()
            mon.advance(1.0, 300.0)
            return mon.stop().energy_j

        assert run() == run()


class TestComputeNode:
    def test_advance_charges_all_meters(self):
        node = ComputeNode(0)
        node.rapl.read_cpu_energy_joules()  # baseline
        node.hdeem.start()
        b = compute_power(
            node,
            active_threads=24,
            core_activity=1.0,
            uncore_activity=0.5,
            membw_gbs=30.0,
        )
        advance(node, 2.0, b)
        hdeem = node.hdeem.stop()
        cpu_j = node.rapl.read_cpu_energy_joules()
        assert hdeem.energy_j > cpu_j > 0  # node energy > CPU energy

    def test_set_frequencies_convenience(self):
        node = ComputeNode(0)
        node.set_frequencies(1.8, 2.2)
        assert node.core_freq_ghz == 1.8
        assert node.uncore_freq_ghz == 2.2

    def test_reset_to_default(self):
        node = ComputeNode(0)
        node.set_frequencies(1.2, 1.3)
        node.reset_to_default()
        assert node.core_freq_ghz == config.DEFAULT_CORE_FREQ_GHZ
        assert node.uncore_freq_ghz == config.DEFAULT_UNCORE_FREQ_GHZ

    def test_time_advances(self):
        node = ComputeNode(0)
        advance(node, 1.5, idle_breakdown(node))
        assert node.now_s == pytest.approx(1.5)

    def test_negative_advance_rejected(self):
        node = ComputeNode(0)
        with pytest.raises(HardwareError):
            advance(node, -1.0, idle_breakdown(node))


class TestCluster:
    def test_nodes_are_cached(self):
        cluster = Cluster(4)
        assert cluster.node(2) is cluster.node(2)

    def test_fresh_node_resets_meters_keeps_physics(self):
        cluster = Cluster(4)
        node = cluster.node(1)
        var = node.power_model.variability
        advance(node, 5.0, idle_breakdown(node))
        fresh = cluster.fresh_node(1)
        assert fresh.now_s == 0.0
        assert fresh.power_model.variability == var

    def test_round_robin_allocation(self):
        cluster = Cluster(3)
        ids = [cluster.allocate().node_id for _ in range(6)]
        assert ids == [0, 1, 2, 0, 1, 2]

    def test_out_of_range_node_rejected(self):
        with pytest.raises(JobError):
            Cluster(2).node(5)

    def test_different_nodes_have_different_power(self):
        cluster = Cluster(8)
        draws = set()
        for i in range(8):
            b = compute_power(
                cluster.node(i),
                active_threads=24,
                core_activity=1.0,
                uncore_activity=1.0,
                membw_gbs=50.0,
            )
            draws.add(round(b.node_w, 6))
        assert len(draws) == 8  # variability separates every node
