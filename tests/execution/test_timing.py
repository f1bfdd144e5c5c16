"""Tests for the roofline timing model and scaling laws."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.execution.speedup import (
    memory_bandwidth_gbs,
    thread_bandwidth_share,
    thread_speedup,
    uncore_bandwidth_shape,
)
from repro.workloads.characteristics import WorkloadCharacteristics
from repro.workloads.generator import random_characteristics
from repro.util.rng import rng_for
from tests.oracles.physics import region_timing


class TestSpeedup:
    def test_single_thread_is_unity(self):
        assert thread_speedup(1, 0.99, 0.001) == pytest.approx(1.0)

    def test_speedup_bounded_by_thread_count(self):
        for t in (2, 8, 24):
            assert thread_speedup(t, 1.0, 0.0) == pytest.approx(t)
            assert thread_speedup(t, 0.9, 0.002) < t

    def test_overhead_creates_interior_optimum(self):
        s = [thread_speedup(t, 0.98, 0.01) for t in range(1, 25)]
        peak = s.index(max(s)) + 1
        assert 1 < peak < 24

    def test_invalid_threads_rejected(self):
        with pytest.raises(ValueError):
            thread_speedup(0, 0.9, 0.001)


class TestBandwidth:
    def test_peak_at_max_uncore_and_full_node(self):
        bw = memory_bandwidth_gbs(config.UNCORE_FREQ_MAX_GHZ, config.CORES_PER_NODE)
        assert bw == pytest.approx(config.PEAK_MEMBW_GBS)

    def test_monotone_in_uncore_frequency(self):
        bws = [memory_bandwidth_gbs(f, 24) for f in config.UNCORE_FREQUENCIES_GHZ]
        assert all(a < b for a, b in zip(bws, bws[1:]))

    def test_concave_in_uncore_frequency(self):
        """Marginal bandwidth per 100 MHz must shrink (saturation)."""
        bws = [memory_bandwidth_gbs(f, 24) for f in config.UNCORE_FREQUENCIES_GHZ]
        gains = [b - a for a, b in zip(bws, bws[1:])]
        assert all(g2 < g1 for g1, g2 in zip(gains, gains[1:]))

    def test_thread_share_monotone(self):
        shares = [thread_bandwidth_share(t) for t in range(1, 25)]
        assert all(a < b for a, b in zip(shares, shares[1:]))
        assert shares[-1] == pytest.approx(1.0)

    def test_shape_normalised_at_max(self):
        assert uncore_bandwidth_shape(config.UNCORE_FREQ_MAX_GHZ) == pytest.approx(1.0)


class TestRegionTiming:
    @pytest.fixture
    def compute(self) -> WorkloadCharacteristics:
        return WorkloadCharacteristics(
            instructions=3e10, ipc=2.0, l1d_miss_rate=0.03, l3d_miss_rate=0.2
        )

    @pytest.fixture
    def memory(self) -> WorkloadCharacteristics:
        return WorkloadCharacteristics(
            instructions=3e10, ipc=1.0, l1d_miss_rate=0.34,
            l2d_miss_rate=0.6, l3d_miss_rate=0.65,
        )

    def test_compute_bound_time_falls_with_core_freq(self, compute):
        t_lo = region_timing(compute, threads=24, core_freq_ghz=1.2, uncore_freq_ghz=2.0)
        t_hi = region_timing(compute, threads=24, core_freq_ghz=2.5, uncore_freq_ghz=2.0)
        assert t_hi.time_s < t_lo.time_s

    def test_memory_bound_time_falls_with_uncore_freq(self, memory):
        t_lo = region_timing(memory, threads=24, core_freq_ghz=2.0, uncore_freq_ghz=1.3)
        t_hi = region_timing(memory, threads=24, core_freq_ghz=2.0, uncore_freq_ghz=3.0)
        assert t_hi.time_s < t_lo.time_s

    def test_compute_bound_insensitive_to_uncore(self, compute):
        """While memory time hides under compute, UFS barely matters."""
        t_lo = region_timing(compute, threads=24, core_freq_ghz=2.0, uncore_freq_ghz=1.8)
        t_hi = region_timing(compute, threads=24, core_freq_ghz=2.0, uncore_freq_ghz=3.0)
        assert abs(t_lo.time_s - t_hi.time_s) / t_hi.time_s < 0.05

    def test_memory_bound_flag(self, compute, memory):
        tc = region_timing(compute, threads=24, core_freq_ghz=2.0, uncore_freq_ghz=1.5)
        tm = region_timing(memory, threads=24, core_freq_ghz=2.0, uncore_freq_ghz=1.5)
        assert not tc.memory_bound
        assert tm.memory_bound

    def test_activity_fractions_valid(self, memory):
        t = region_timing(memory, threads=24, core_freq_ghz=2.0, uncore_freq_ghz=1.5)
        assert 0.0 <= t.core_activity <= 1.0
        assert 0.0 <= t.uncore_activity <= 1.0

    def test_stalled_cores_have_reduced_activity(self, compute, memory):
        tc = region_timing(compute, threads=24, core_freq_ghz=2.0, uncore_freq_ghz=1.5)
        tm = region_timing(memory, threads=24, core_freq_ghz=2.0, uncore_freq_ghz=1.5)
        assert tm.core_activity < tc.core_activity

    def test_time_bounds_respect_overlap(self, memory):
        t = region_timing(memory, threads=24, core_freq_ghz=2.0, uncore_freq_ghz=1.5)
        lower = max(t.compute_time_s, t.memory_time_s)
        upper = t.compute_time_s + t.memory_time_s
        assert lower <= t.time_s <= upper

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=200),
        st.sampled_from(config.CORE_FREQUENCIES_GHZ),
        st.sampled_from(config.UNCORE_FREQUENCIES_GHZ),
        st.sampled_from(config.OPENMP_THREAD_CANDIDATES),
    )
    def test_time_positive_and_bounded(self, idx, fc, fu, threads):
        chars = random_characteristics(rng_for("timing-test", idx))
        t = region_timing(chars, threads=threads, core_freq_ghz=fc, uncore_freq_ghz=fu)
        assert t.time_s > 0
        assert max(t.compute_time_s, t.memory_time_s) <= t.time_s * (1 + 1e-9)
        assert t.time_s <= (t.compute_time_s + t.memory_time_s) * (1 + 1e-9)
