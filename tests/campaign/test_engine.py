"""Tests for campaign planning and the engine.

The load-bearing properties: campaign results are bit-identical to the
legacy per-run serial code path, and a warm store answers a repeat
campaign with zero new simulations.
"""

import pytest

from repro import config
from repro.campaign.engine import CampaignEngine, execute_job
from repro.campaign.plan import (
    CampaignJob,
    CampaignPlan,
    counter_jobs,
    plan_dataset_campaign,
    plan_static_campaign,
    static_operating_points,
    sweep_jobs,
    sweep_operating_points,
    thread_series,
)
from repro.campaign.store import ResultStore
from repro.errors import CampaignError, WorkloadError
from repro.execution.simulator import ExecutionSimulator
from repro.hardware.cluster import Cluster
from repro.workloads import registry

#: The default-seed cluster's node 0, the jobs' hardware.
IDS = {"node_id": 0, "seed": config.DEFAULT_SEED}


def cell_row(app: str = "EP", threads: int = 24) -> CampaignJob:
    """A one-cell ``sweep`` grid row at the calibration point."""
    return CampaignJob(
        app=app, mode="grid", threads=threads, label="sweep",
        core_freq_ghz=config.CALIBRATION_CORE_FREQ_GHZ,
        uncore_freqs_ghz=(config.CALIBRATION_UNCORE_FREQ_GHZ,),
    )


def small_plan() -> CampaignPlan:
    """A cheap but representative plan: counters + a few energy points."""
    jobs = counter_jobs(
        "EP", threads=24, counters=("PAPI_TOT_INS", "PAPI_LD_INS"), runs=2, **IDS
    )
    jobs += sweep_jobs("EP", threads=24, **IDS)[:4]
    return CampaignPlan(jobs)


class TestPlan:
    def test_modes_validated(self):
        with pytest.raises(CampaignError):
            CampaignJob(app="EP", mode="bogus")

    def test_counters_mode_requires_counters(self):
        with pytest.raises(CampaignError):
            CampaignJob(app="EP", mode="counters")

    def test_run_key_matches_legacy_serial_labels(self):
        sweep = CampaignJob(
            app="EP", mode="grid", label="sweep", core_freq_ghz=1.5,
            uncore_freqs_ghz=(2.0, 2.1), threads=16,
        )
        assert sweep.cell_run_keys() == (
            ("sweep", 16, 1.5, 2.0), ("sweep", 16, 1.5, 2.1),
        )
        static = CampaignJob(
            app="EP", mode="grid", label="static", core_freq_ghz=1.5,
            uncore_freqs_ghz=(2.0,), threads=16,
        )
        assert static.cell_run_keys() == (("static", 1.5, 2.0, 16),)
        with pytest.raises(CampaignError, match="cell_run_keys"):
            static.run_key()
        savings = CampaignJob(
            app="EP", mode="savings", label="dynamic", repetition=3,
        )
        assert savings.run_key() == ("dynamic", 3)
        counters = CampaignJob(
            app="EP", mode="counters", threads=None, repetition=2,
            counters=("PAPI_TOT_INS",),
        )
        assert counters.run_key() == ("counters", None, 2)

    def test_plan_deduplicates_preserving_order(self):
        job_a = cell_row(threads=24)
        job_b = cell_row(threads=16)
        plan = CampaignPlan((job_a, job_b, job_a))
        assert plan.jobs == (job_a, job_b)

    def test_describe(self):
        plan = plan_dataset_campaign(("EP",), thread_counts=(24,), **IDS)
        description = plan.describe()
        # 3 counter repetitions + the 31-point sweep's 14 rows (one per
        # CF; the calibration CF's row holds the UFS axis).
        assert description["jobs"] == 17
        assert description["modes"] == {"counters": 3, "grid": 14}
        assert description["apps"] == {"EP": 17}
        # The counters run at the calibration point, one of the sweep's.
        assert description["operating_points"] == len(sweep_operating_points())

    def test_describe_counts_every_cell_of_a_row(self):
        plan = plan_static_campaign(["EP"], stride=6, **IDS)
        points = static_operating_points(registry.build("EP"), stride=6)
        assert len(plan) < len(points)
        assert plan.describe()["operating_points"] == len(points)

    def test_thread_series_mpi_only_codes_fixed(self):
        for name in registry.benchmark_names():
            app = registry.build(name)
            series = thread_series(app, (12, 24))
            if app.model.supports_thread_tuning:
                assert series == (12, 24)
            else:
                assert series == (app.default_threads,)

    def test_static_points_include_platform_default(self):
        app = registry.build("EP")
        points = static_operating_points(app, stride=5, thread_counts=(12,))
        default = [
            p for p in points
            if p.core_freq_ghz == config.DEFAULT_CORE_FREQ_GHZ
            and p.uncore_freq_ghz == config.DEFAULT_UNCORE_FREQ_GHZ
            and p.threads == config.DEFAULT_OPENMP_THREADS
        ]
        assert len(default) == 1

    def test_static_campaign_size(self):
        plan = plan_static_campaign(("EP",), stride=4, thread_counts=(24,), **IDS)
        # ceil(14/4) CF rows of ceil(18/4) UCFs + the appended default,
        # a row of its own at CF 2.5: 4*5 + 1 cells in 5 rows.
        assert len(plan) == 5
        assert plan.describe()["operating_points"] == 21


class TestEngine:
    def test_matches_legacy_serial_code_path(self):
        """Every cell of an engine 'sweep' row equals running the
        simulator by hand exactly as the pre-campaign serial code did."""
        jobs = sweep_jobs("EP", threads=24, **IDS)
        cell = jobs[2]
        row = next(j for j in jobs if len(j.uncore_freqs_ghz) > 1)
        payloads = CampaignEngine().run(CampaignPlan((cell, row)))
        for job in (cell, row):
            for i, ucf in enumerate(job.uncore_freqs_ghz):
                node = Cluster(4).fresh_node(0)
                node.set_frequencies(job.core_freq_ghz, ucf)
                run = ExecutionSimulator(node).run(
                    registry.build("EP"),
                    threads=24,
                    run_key=("sweep", 24, job.core_freq_ghz, ucf),
                )
                payload = payloads[job]
                assert payload["node_energy_j"][i] == run.node_energy_j
                assert payload["time_s"][i] == run.time_s
                assert payload["cpu_energy_j"][i] == run.cpu_energy_j

    def test_store_turns_second_run_into_pure_cache_hits(self, tmp_path):
        plan = small_plan()
        store = ResultStore(tmp_path / "store.jsonl")
        engine = CampaignEngine(store=store)
        first = engine.run(plan)
        assert first.report.executed == len(plan)
        assert first.report.cached == 0
        second = engine.run(plan)
        assert second.report.executed == 0
        assert second.report.cached == len(plan)
        for job in plan:
            assert first[job] == second[job]

    def test_warm_store_shared_across_engines(self, tmp_path):
        """A fresh engine + store on the same file (a new session)
        reuses results bit-identically."""
        plan = small_plan()
        path = tmp_path / "store.jsonl"
        first_store = ResultStore(path)
        first = CampaignEngine(store=first_store).run(plan)
        first_store.close()
        fresh = CampaignEngine(store=ResultStore(path))
        second = fresh.run(plan)
        assert second.report.executed == 0
        assert fresh.total_executed == 0
        for job in plan:
            assert first[job] == second[job]

    def test_counters_payload_shape(self):
        job = counter_jobs(
            "CG", threads=20, counters=("PAPI_TOT_INS", "PAPI_LD_INS"), runs=1, **IDS
        )[0]
        payload = execute_job(job)
        assert set(payload) == {"totals", "phase_time_s"}
        assert payload["phase_time_s"] > 0
        assert payload["totals"]["PAPI_TOT_INS"] > 0

    def test_unknown_app_rejected(self):
        job = cell_row("NotABenchmark")
        with pytest.raises(WorkloadError):
            execute_job(job)

    def test_missing_result_raises(self):
        results = CampaignEngine().run(CampaignPlan(()))
        with pytest.raises(CampaignError):
            results[cell_row()]

    def test_run_accepts_bare_job_iterables(self):
        jobs = sweep_jobs("EP", threads=24, **IDS)[:2]
        results = CampaignEngine().run(jobs)
        assert len(results) == 2

    def test_stale_cached_payload_surfaces_clear_error(self, tmp_path):
        """A cached entry whose payload predates the current result
        schema must fail with an actionable CampaignError when recalled,
        not a raw KeyError in whatever consumer indexes it first."""
        import json

        from repro.campaign.engine import topology_job_key
        from repro.campaign.store import STORE_VERSION

        job = sweep_jobs("EP", threads=24, **IDS)[0]
        key = topology_job_key(job, None)
        path = tmp_path / "store.jsonl"
        record = {
            "key": key,
            "store_version": STORE_VERSION,
            "job": job.descriptor(),
            "result": {"energy": 1.0},  # pre-campaign payload layout
        }
        path.write_text(json.dumps(record) + "\n")
        engine = CampaignEngine(store=ResultStore(path))
        with pytest.raises(CampaignError, match="older result schema"):
            engine.run(CampaignPlan((job,)))

    def test_custom_topology_does_not_collide_in_store(self, tmp_path):
        from repro.hardware.topology import NodeTopology

        plan = CampaignPlan(sweep_jobs("EP", threads=12, **IDS)[:2])
        path = tmp_path / "store.jsonl"
        small = NodeTopology.build(1, 12)
        custom = CampaignEngine(
            store=ResultStore(path), topology=small
        )
        custom_results = custom.run(plan)
        assert custom_results.report.executed == 2
        custom.store.close()
        default = CampaignEngine(store=ResultStore(path))
        default_results = default.run(plan)
        assert default_results.report.cached == 0  # different physics
        for job in plan:
            assert custom_results[job] != default_results[job]


class TestConsumerEquivalence:
    """build_dataset / exhaustive_static_search produce identical results
    through fresh engines and warm stores."""

    def test_build_dataset_serial_and_cached_identical(self, tmp_path):
        import numpy as np

        from repro.modeling.dataset import build_dataset

        kwargs = dict(thread_counts=(24,))
        serial = build_dataset(("EP",), engine=CampaignEngine(), **kwargs)
        store = ResultStore(tmp_path / "store.jsonl")
        warm_engine = CampaignEngine(store=store)
        build_dataset(("EP",), engine=warm_engine, **kwargs)  # populate
        cached = build_dataset(("EP",), engine=warm_engine, **kwargs)
        assert warm_engine.total_executed == 17  # second build added nothing
        assert np.array_equal(serial.features, cached.features)
        assert np.array_equal(serial.targets, cached.targets)
        assert np.array_equal(serial.times, cached.times)

    def test_static_search_cached_run_simulates_nothing(self, tmp_path):
        from repro.api import ExecutionOptions
        from repro.ptf.static_tuning import exhaustive_static_search

        from repro.campaign.plan import grid_rows, static_operating_points
        from tests.oracles.static_search import cell_static_search

        cluster = Cluster(4)
        app = registry.build("EP")
        store = ResultStore(tmp_path / "store.jsonl")
        options = ExecutionOptions(
            campaign=CampaignEngine(store=store)
        )
        first = exhaustive_static_search(
            app, cluster, stride=6, thread_counts=(24,), options=options
        )
        executed = options.campaign.total_executed
        # The search submits one sweep-replay job per (threads, CF)
        # grid row, not one per cell.
        points = static_operating_points(app, stride=6, thread_counts=(24,))
        assert executed == len(grid_rows(points))
        assert first.configurations_tried == len(points)
        second = exhaustive_static_search(
            app, cluster, stride=6, thread_counts=(24,), options=options
        )
        assert options.campaign.total_executed == executed  # zero new runs
        assert second == first
        # The per-cell reference (one static job per cell, executed
        # from scratch) measures the same result.
        assert cell_static_search(
            app, cluster, stride=6, thread_counts=(24,)
        ) == first

    def test_static_search_honours_explicit_threads_for_mpi_codes(self):
        from repro.ptf.static_tuning import exhaustive_static_search

        app = registry.build("Kripke")  # no thread tuning
        assert not app.model.supports_thread_tuning
        result = exhaustive_static_search(
            app, Cluster(4), stride=7, thread_counts=(8, 16)
        )
        # 2 threads x 2 CFs x 3 UCFs + appended platform default.
        assert result.configurations_tried == 13

    def test_completed_jobs_persisted_despite_midrun_failure(self, tmp_path):
        from repro.errors import CampaignExecutionError

        good = sweep_jobs("EP", threads=24, **IDS)[0]
        bad = cell_row("NotABenchmark")
        store = ResultStore(tmp_path / "store.jsonl")
        engine = CampaignEngine(store=store)
        with pytest.raises(CampaignExecutionError) as excinfo:
            engine.run((good, bad))
        # The original failure is chained, partial completion is reported.
        assert isinstance(excinfo.value.__cause__, WorkloadError)
        assert len(excinfo.value.completed) == 1
        assert len(excinfo.value.failures) == 1
        assert len(store) == 1  # the completed job survived the crash

    def test_mutated_registered_app_runs_live_object(self):
        """An Application sharing a registry name but differing from the
        stock build must be simulated as passed, never cache-substituted."""
        import dataclasses

        from repro.modeling.dataset import measure_counter_rates

        cluster = Cluster(2)
        stock = registry.build("EP")
        mutated = dataclasses.replace(stock, phase_iterations=3)
        stock_rates = measure_counter_rates(stock, cluster, threads=24, runs=1)
        mutated_rates = measure_counter_rates(mutated, cluster, threads=24, runs=1)
        assert stock_rates != mutated_rates

    def test_unregistered_custom_app_runs_serially(self):
        import dataclasses

        from repro.modeling.dataset import measure_counter_rates
        from repro.ptf.static_tuning import exhaustive_static_search

        app = dataclasses.replace(registry.build("EP"), name="CustomEP")
        cluster = Cluster(2)
        rates = measure_counter_rates(app, cluster, threads=24)
        assert rates["PAPI_LD_INS"] > 0
        result = exhaustive_static_search(
            app, cluster, stride=7, thread_counts=(24,)
        )
        assert result.app_name == "CustomEP"
        assert result.configurations_tried == 7

    def test_out_of_range_node_id_rejected(self):
        from repro.errors import JobError
        from repro.modeling.dataset import build_dataset, measure_counter_rates
        from repro.ptf.static_tuning import exhaustive_static_search

        cluster = Cluster(4)
        app = registry.build("EP")
        with pytest.raises(JobError):
            measure_counter_rates(app, cluster, node_id=99, threads=24)
        with pytest.raises(JobError):
            exhaustive_static_search(app, cluster, node_id=99)
        with pytest.raises(JobError):
            build_dataset(("EP",), cluster=cluster, node_id=99)
