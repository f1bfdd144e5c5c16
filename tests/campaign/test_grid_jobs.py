"""The ``grid`` campaign mode: row jobs over the sweep-replay engine."""

import pytest

from repro import config
from repro.campaign.engine import (
    CampaignEngine,
    execute_job,
    validate_payload,
)
from repro.campaign.plan import (
    CampaignJob,
    grid_jobs,
    grid_rows,
    grid_run_key,
    static_jobs,
)
from repro.campaign.store import ResultStore
from repro.errors import CampaignError
from repro.execution.simulator import OperatingPoint


def small_grid(threads=(24,), ncf=2, nucf=3):
    return [
        OperatingPoint(cf, ucf, t)
        for t in threads
        for cf in config.CORE_FREQUENCIES_GHZ[:ncf]
        for ucf in config.UNCORE_FREQUENCIES_GHZ[:nucf]
    ]


class TestGridPlan:
    def test_rows_preserve_sweep_order(self):
        points = small_grid(threads=(12, 24))
        rows = grid_rows(points)
        assert [r[:2] for r in rows] == [
            (12, 1.2), (12, 1.3), (24, 1.2), (24, 1.3)
        ]
        assert all(r[2] == (1.3, 1.4, 1.5) for r in rows)

    def test_one_job_per_row(self):
        jobs = grid_jobs("EP", label="static", points=small_grid())
        assert len(jobs) == 2
        assert all(job.mode == "grid" for job in jobs)
        assert jobs[0].uncore_freqs_ghz == (1.3, 1.4, 1.5)

    def test_cell_run_keys_match_historical_layouts(self):
        job = grid_jobs("EP", label="static", points=small_grid())[0]
        static = static_jobs("EP", points=small_grid())[:3]
        assert job.cell_run_keys() == tuple(s.run_key() for s in static)
        heat = grid_jobs("EP", label="heatmap", points=small_grid())[0]
        assert heat.cell_run_keys()[0] == ("heatmap", 1.2, 1.3)

    def test_run_key_refuses_grid_jobs(self):
        job = grid_jobs("EP", label="static", points=small_grid())[0]
        with pytest.raises(CampaignError, match="cell_run_keys"):
            job.run_key()

    def test_unknown_label_rejected(self):
        with pytest.raises(CampaignError, match="run-key label"):
            grid_run_key("warp", core_freq_ghz=1.2, uncore_freq_ghz=1.3, threads=24)
        with pytest.raises(CampaignError, match="run-key label"):
            CampaignJob(
                app="EP", mode="grid", label="warp", uncore_freqs_ghz=(1.3,)
            )

    def test_empty_row_rejected(self):
        with pytest.raises(CampaignError, match="UCF row"):
            CampaignJob(app="EP", mode="grid", label="static")

    def test_descriptor_carries_row_axis(self):
        job = grid_jobs("EP", label="heatmap", points=small_grid())[0]
        descriptor = job.descriptor()
        assert descriptor["label"] == "heatmap"
        assert descriptor["uncore_freqs_ghz"] == [1.3, 1.4, 1.5]
        # Savings-only fields stay out of grid descriptors.
        assert "controller" not in descriptor


class TestGridExecution:
    def test_row_payload_matches_per_cell_static_jobs(self):
        points = small_grid()
        row = grid_jobs("EP", label="static", points=points)[0]
        payload = execute_job(row)
        validate_payload(row, payload)
        cells = static_jobs("EP", points=points)[:3]
        for i, cell in enumerate(cells):
            ref = execute_job(cell)
            assert payload["node_energy_j"][i] == ref["node_energy_j"]
            assert payload["cpu_energy_j"][i] == ref["cpu_energy_j"]
            assert payload["time_s"][i] == ref["time_s"]

    def test_default_threads_resolved_like_run(self):
        points = [OperatingPoint(1.2, 1.3, 24)]
        job = grid_jobs("EP", label="static", points=points)[0]
        explicit = execute_job(job)
        none_threads = CampaignJob(
            app="EP", mode="grid", core_freq_ghz=1.2, threads=None,
            label="static", uncore_freqs_ghz=(1.3,),
        )
        resolved = execute_job(none_threads)
        # EP's default is 24 threads, so the physics agree; only the
        # noise key (which carries threads verbatim) differs.
        assert resolved["uncore_freqs_ghz"] == explicit["uncore_freqs_ghz"]

    def test_store_roundtrip_caches_rows(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        engine = CampaignEngine(store=store)
        jobs = grid_jobs("EP", label="heatmap", points=small_grid())
        first = engine.run(jobs)
        assert first.report.executed == len(jobs)
        second = engine.run(jobs)
        assert second.report.cached == len(jobs)
        for job in jobs:
            assert second[job] == first[job]

    def test_stale_payload_rejected_with_clear_error(self, tmp_path):
        from repro.campaign.engine import topology_job_key

        store = ResultStore(tmp_path / "store.jsonl")
        job = grid_jobs("EP", label="heatmap", points=small_grid())[0]
        key = topology_job_key(job, None)
        store.put(key, job.descriptor(), {"node_energy_j": [1.0]})
        engine = CampaignEngine(store=store)
        with pytest.raises(CampaignError, match="older"):
            engine.run([job])
