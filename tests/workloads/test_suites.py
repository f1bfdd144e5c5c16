"""Suite-wide invariants for the 19 benchmarks of Table II.

These validate that every benchmark satisfies the structural and
physical assumptions the rest of the stack relies on — significance
thresholds, boundedness classification, diversified but consistent
instruction mixes.
"""

import pytest

from repro import config
from repro.workloads import registry
from repro.workloads.suites.common import diversify_mix, moderate_profile
from tests.oracles.physics import region_timing


def calibration_timing(region, threads=24):
    return region_timing(
        region.characteristics,
        threads=threads,
        core_freq_ghz=config.CALIBRATION_CORE_FREQ_GHZ,
        uncore_freq_ghz=config.CALIBRATION_UNCORE_FREQ_GHZ,
    )


@pytest.mark.parametrize("name", registry.benchmark_names())
class TestEveryBenchmark:
    def test_has_phase_with_work_regions(self, name):
        app = registry.build(name)
        work = [r for r in app.phase.children if r.has_work]
        assert len(work) >= 2

    def test_has_at_least_one_significant_region(self, name):
        app = registry.build(name)
        significant = [
            c
            for c in app.phase.children
            if c.has_work
            and calibration_timing(c).time_s
            > config.SIGNIFICANT_REGION_THRESHOLD_S
        ]
        assert significant, f"{name} has no tunable region"

    def test_has_filterable_noise_regions(self, name):
        """Every app carries fine-granular regions below the threshold
        (what run-time filtering and dyn-detect must reject)."""
        app = registry.build(name)
        tiny = [
            c
            for c in app.phase.children
            if c.has_work
            and calibration_timing(c).time_s
            < config.SIGNIFICANT_REGION_THRESHOLD_S
        ]
        assert tiny, f"{name} has no fine-granular region"

    def test_instruction_mix_valid_after_diversification(self, name):
        app = registry.build(name)
        for region in app.regions:
            if not region.has_work:
                continue
            c = region.characteristics
            mix = (
                c.load_frac + c.store_frac + c.cond_branch_frac
                + c.uncond_branch_frac
            )
            assert mix <= 1.0

    def test_phase_runtime_within_job_scale(self, name):
        """One run stays in the seconds-to-minutes range of the paper's
        benchmark configurations."""
        app = registry.build(name)
        total = sum(
            calibration_timing(r).time_s
            for r in app.phase.children
            if r.has_work
        ) * app.phase_iterations
        assert 2.0 < total < 300.0


class TestBoundednessClassification:
    def test_memory_bound_flags_match_physics(self):
        """The registry's memory-bound labels agree with the timing
        model's dominant term at the default operating point."""
        for info in registry.roster():
            app = registry.build(info.name)
            significant = [
                c for c in app.phase.children
                if c.has_work
                and calibration_timing(c).time_s
                > config.SIGNIFICANT_REGION_THRESHOLD_S
            ]
            mem_time = comp_time = 0.0
            for region in significant:
                t = region_timing(
                    region.characteristics,
                    threads=24,
                    core_freq_ghz=config.DEFAULT_CORE_FREQ_GHZ,
                    uncore_freq_ghz=config.DEFAULT_UNCORE_FREQ_GHZ,
                )
                mem_time += t.memory_time_s
                comp_time += t.compute_time_s
            ratio = mem_time / comp_time
            if info.memory_bound:
                assert ratio > 1.0, info.name
            else:
                # Borderline codes (FT, Amg2013) sit near parity; clearly
                # memory-dominated behaviour would contradict the label.
                assert ratio < 1.15, info.name


class TestDiversifyMix:
    def test_preserves_timing_relevant_fields(self):
        base = moderate_profile()
        flavoured = diversify_mix(base, "some-region")
        assert flavoured.instructions == base.instructions
        assert flavoured.ipc == base.ipc
        assert flavoured.l1d_miss_rate == base.l1d_miss_rate
        assert flavoured.l2d_miss_rate == base.l2d_miss_rate
        assert flavoured.l3d_miss_rate == base.l3d_miss_rate
        assert flavoured.overlap == base.overlap
        assert flavoured.parallel_fraction == base.parallel_fraction
        assert flavoured.thread_overhead == base.thread_overhead
        # Combined data-access fraction preserved -> memory traffic intact.
        assert flavoured.load_frac + flavoured.store_frac == pytest.approx(
            base.load_frac + base.store_frac
        )

    def test_deterministic_per_key(self):
        a = diversify_mix(moderate_profile(), "r1")
        b = diversify_mix(moderate_profile(), "r1")
        c = diversify_mix(moderate_profile(), "r2")
        assert a == b
        assert a != c

    def test_memory_bytes_change_bounded(self):
        """Flavouring shifts DRAM traffic only marginally (the physics
        calibration must survive)."""
        base = moderate_profile()
        flavoured = diversify_mix(base, "region-x")
        assert flavoured.memory_bytes == pytest.approx(
            base.memory_bytes, rel=0.05
        )
