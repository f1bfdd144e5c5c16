"""Tests for the ground-truth power model."""

import pytest
from hypothesis import given, strategies as st

from repro import config
from repro.hardware.power import NodeVariability
from tests.oracles.physics import ScalarPowerModel


@pytest.fixture
def model() -> ScalarPowerModel:
    return ScalarPowerModel(NodeVariability.nominal())


class TestPowerMonotonicity:
    def test_core_power_increases_with_frequency(self, model):
        p = [
            model.core_dynamic_power_w(f, 24, 1.0)
            for f in config.CORE_FREQUENCIES_GHZ
        ]
        assert all(a < b for a, b in zip(p, p[1:]))

    def test_core_power_scales_with_threads(self, model):
        p12 = model.core_dynamic_power_w(2.0, 12, 1.0)
        p24 = model.core_dynamic_power_w(2.0, 24, 1.0)
        assert p24 == pytest.approx(2 * p12)

    def test_stalled_cores_draw_less(self, model):
        busy = model.core_dynamic_power_w(2.0, 24, 1.0)
        stalled = model.core_dynamic_power_w(2.0, 24, config.STALLED_CORE_ACTIVITY)
        assert stalled < busy

    def test_uncore_power_increases_with_frequency(self, model):
        p = [
            model.uncore_dynamic_power_w(f, 0.8)
            for f in config.UNCORE_FREQUENCIES_GHZ
        ]
        assert all(a < b for a, b in zip(p, p[1:]))

    def test_uncore_idle_floor(self, model):
        idle = model.uncore_dynamic_power_w(3.0, 0.0)
        busy = model.uncore_dynamic_power_w(3.0, 1.0)
        assert idle == pytest.approx(busy * config.UNCORE_IDLE_ACTIVITY)

    def test_dram_power_proportional_to_traffic(self, model):
        base = model.dram_power_w(0.0)
        loaded = model.dram_power_w(100.0)
        assert loaded - base == pytest.approx(100.0 * config.DRAM_POWER_W_PER_GBS)


class TestBreakdown:
    def test_node_power_is_sum_of_parts(self, model):
        b = model.power(
            core_freq_ghz=2.5,
            uncore_freq_ghz=3.0,
            active_threads=24,
            core_activity=1.0,
            uncore_activity=1.0,
            membw_gbs=60.0,
        )
        assert b.node_w == pytest.approx(
            b.static_w + b.core_dynamic_w + b.uncore_dynamic_w + b.dram_w + b.blade_w
        )

    def test_rapl_excludes_blade(self, model):
        b = model.power(
            core_freq_ghz=2.5,
            uncore_freq_ghz=3.0,
            active_threads=24,
            core_activity=1.0,
            uncore_activity=1.0,
            membw_gbs=60.0,
        )
        assert b.cpu_w < b.node_w
        assert b.node_w - b.cpu_w >= config.BLADE_POWER_W

    def test_full_load_node_power_plausible(self, model):
        """A loaded Haswell node draws a few hundred watts, not kW or mW."""
        b = model.power(
            core_freq_ghz=2.5,
            uncore_freq_ghz=3.0,
            active_threads=24,
            core_activity=1.0,
            uncore_activity=1.0,
            membw_gbs=60.0,
        )
        assert 200.0 < b.node_w < 500.0

    def test_invalid_thread_count_rejected(self, model):
        with pytest.raises(ValueError):
            model.power(
                core_freq_ghz=2.0,
                uncore_freq_ghz=2.0,
                active_threads=25,
                core_activity=1.0,
                uncore_activity=1.0,
                membw_gbs=0.0,
            )

    def test_invalid_activity_rejected(self, model):
        with pytest.raises(ValueError):
            model.core_dynamic_power_w(2.0, 24, 1.5)


class TestVariability:
    def test_sample_is_deterministic(self):
        a = NodeVariability.sample(7)
        b = NodeVariability.sample(7)
        assert a == b

    def test_different_nodes_differ(self):
        assert NodeVariability.sample(1) != NodeVariability.sample(2)

    def test_seed_changes_sample(self):
        assert NodeVariability.sample(1, seed=1) != NodeVariability.sample(1, seed=2)

    def test_factors_near_unity(self):
        for node_id in range(50):
            v = NodeVariability.sample(node_id)
            assert 0.7 < v.static_factor < 1.45
            assert 0.7 < v.dynamic_factor < 1.45

    @given(st.integers(min_value=0, max_value=1000))
    def test_variability_always_positive(self, node_id):
        v = NodeVariability.sample(node_id)
        assert v.static_factor > 0 and v.dynamic_factor > 0
