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
)
from repro.campaign.store import ResultStore
from repro.errors import CampaignError
from repro.execution.simulator import OperatingPoint

#: The default-seed cluster's node 0, the jobs' hardware.
IDS = {"node_id": 0, "seed": config.DEFAULT_SEED}


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
        jobs = grid_jobs("EP", label="static", points=small_grid(), **IDS)
        assert len(jobs) == 2
        assert all(job.mode == "grid" for job in jobs)
        assert jobs[0].uncore_freqs_ghz == (1.3, 1.4, 1.5)

    def test_cell_run_keys_match_historical_layouts(self):
        job = grid_jobs("EP", label="static", points=small_grid(), **IDS)[0]
        assert job.cell_run_keys() == (
            ("static", 1.2, 1.3, 24),
            ("static", 1.2, 1.4, 24),
            ("static", 1.2, 1.5, 24),
        )
        sweep = grid_jobs("EP", label="sweep", points=small_grid(), **IDS)[0]
        assert sweep.cell_run_keys()[0] == ("sweep", 24, 1.2, 1.3)
        heat = grid_jobs("EP", label="heatmap", points=small_grid(), **IDS)[0]
        assert heat.cell_run_keys()[0] == ("heatmap", 1.2, 1.3)

    @pytest.mark.parametrize(
        "label, key",
        [
            ("variability-core", ("variability", "core", 1.2, 1.3)),
            ("variability-uncore", ("variability", "uncore", 1.2, 1.3)),
            ("tradeoff", ("tradeoff", "24T 1.2|1.3 GHz (CF|UCF)")),
            ("tuning-time", ("tuning-time",)),
        ],
    )
    def test_analysis_labels_reproduce_their_run_keys(self, label, key):
        job = grid_jobs("EP", label=label, points=small_grid(), **IDS)[0]
        assert job.cell_run_keys()[0] == key

    def test_run_key_refuses_grid_jobs(self):
        job = grid_jobs("EP", label="static", points=small_grid(), **IDS)[0]
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
        job = grid_jobs("EP", label="heatmap", points=small_grid(), **IDS)[0]
        descriptor = job.descriptor()
        assert descriptor["label"] == "heatmap"
        assert descriptor["uncore_freqs_ghz"] == [1.3, 1.4, 1.5]
        # Savings-only fields stay out of grid descriptors.
        assert "controller" not in descriptor


class TestGridExecution:
    def test_row_payload_matches_per_cell_static_jobs(self):
        """Each cell of a row equals its one-cell row priced alone and a
        solo simulator run under the cell's ``static`` noise key."""
        from repro.execution.simulator import ExecutionSimulator
        from repro.hardware.cluster import Cluster
        from repro.workloads import registry

        points = small_grid()[:3]
        row = grid_jobs("EP", label="static", points=points, **IDS)[0]
        payload = execute_job(row)
        validate_payload(row, payload)
        for i, point in enumerate(points):
            (cell,) = grid_jobs("EP", label="static", points=[point], **IDS)
            ref = execute_job(cell)
            node = Cluster(4).fresh_node(0)
            node.set_frequencies(point.core_freq_ghz, point.uncore_freq_ghz)
            solo = ExecutionSimulator(node).run(
                registry.build("EP"), threads=24, run_key=cell.cell_run_keys()[0]
            )
            for field in ("node_energy_j", "cpu_energy_j", "time_s"):
                assert payload[field][i] == ref[field][0] == getattr(solo, field)

    def test_default_threads_resolved_like_run(self):
        points = [OperatingPoint(1.2, 1.3, 24)]
        job = grid_jobs("EP", label="static", points=points, **IDS)[0]
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
        jobs = grid_jobs("EP", label="heatmap", points=small_grid(), **IDS)
        first = engine.run(jobs)
        assert first.report.executed == len(jobs)
        second = engine.run(jobs)
        assert second.report.cached == len(jobs)
        for job in jobs:
            assert second[job] == first[job]

    def test_stale_payload_rejected_with_clear_error(self, tmp_path):
        from repro.campaign.engine import topology_job_key

        store = ResultStore(tmp_path / "store.jsonl")
        job = grid_jobs("EP", label="heatmap", points=small_grid(), **IDS)[0]
        key = topology_job_key(job, None)
        store.put(key, job.descriptor(), {"node_energy_j": [1.0]})
        engine = CampaignEngine(store=store)
        with pytest.raises(CampaignError, match="older"):
            engine.run([job])
