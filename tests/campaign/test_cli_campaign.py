"""Tests for the ``repro-campaign`` console entry point."""

import re

import pytest

from repro.campaign.backends import BACKEND_KINDS
from repro.campaign.faultinject import FAULT_ENV
from repro.campaign.resilience import ON_FAILURE_POLICIES
from repro.tools.cli import main_campaign


def run_cli(capsys, *argv: str) -> str:
    assert main_campaign(list(argv)) == 0
    return capsys.readouterr().out


def assert_refuses_missing_store(capsys, path, *argv: str) -> None:
    """A read-only store command exits 2 on a missing store path and
    leaves nothing behind."""
    assert main_campaign(list(argv)) == 2
    assert f"no result store at {path}" in capsys.readouterr().err
    assert not path.exists()


class TestPlanCommand:
    def test_plan_prints_breakdown(self, capsys):
        out = run_cli(
            capsys,
            "plan", "--benchmarks", "EP", "--campaign", "both",
            "--threads", "24", "--stride", "4",
        )
        # 3 counter jobs + 14 sweep rows + 5 static-search rows.
        assert "jobs:             22" in out
        assert "operating points: 47" in out
        assert re.search(r"counters +3\n", out)
        assert re.search(r"grid +19\n", out)
        assert "EP" in out

    def test_plan_reports_cache_coverage(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        run_cli(
            capsys,
            "run", "--benchmarks", "EP", "--campaign", "static",
            "--threads", "24", "--stride", "9",
            "--store", str(store),
        )
        out = run_cli(
            capsys,
            "plan", "--benchmarks", "EP", "--campaign", "static",
            "--threads", "24", "--stride", "9", "--store", str(store),
        )
        assert "already cached:   3 / 3" in out

    def test_plan_refuses_missing_store(self, capsys, tmp_path):
        store = tmp_path / "nothere.sqlite"
        assert_refuses_missing_store(
            capsys, store,
            "plan", "--benchmarks", "EP", "--campaign", "static",
            "--threads", "24", "--stride", "9", "--store", str(store),
        )

    def test_rejects_unknown_benchmark(self, capsys):
        with pytest.raises(SystemExit):
            main_campaign(["plan", "--benchmarks", "NotABenchmark"])

    def test_library_errors_print_cleanly(self, capsys):
        code = main_campaign(
            ["plan", "--benchmarks", "EP", "--campaign", "static", "--stride", "0"]
        )
        assert code == 2
        assert "stride must be >= 1" in capsys.readouterr().err


class TestRunCommand:
    def test_run_twice_hits_cache(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        argv = (
            "run", "--benchmarks", "EP", "--campaign", "static",
            "--threads", "24", "--stride", "9",
            "--store", str(store),
        )
        first = run_cli(capsys, *argv)
        assert "new simulations: 3" in first
        assert "cache hits:      0" in first
        second = run_cli(capsys, *argv)
        assert "new simulations: 0" in second
        assert "cache hits:      3" in second
        assert store.exists()


    def test_both_campaign_prefills_dataset_and_static_search(
        self, capsys, tmp_path
    ):
        """The CLI plans the very rows the library keys: after one
        ``--campaign both`` run, the training dataset and the Table V
        search on that store simulate nothing."""
        from repro.api import ExecutionOptions
        from repro.campaign import CampaignEngine, ResultStore
        from repro.hardware.cluster import Cluster
        from repro.modeling.dataset import build_dataset
        from repro.ptf.static_tuning import exhaustive_static_search
        from repro.workloads import registry

        store = tmp_path / "store.jsonl"
        out = run_cli(
            capsys,
            "run", "--benchmarks", "EP", "--campaign", "both",
            "--stride", "6", "--store", str(store),
        )
        # 4 series x (3 counter jobs + 14 sweep rows) + 13 static rows.
        assert "new simulations: 81" in out
        with ResultStore(store) as results:
            engine = CampaignEngine(store=results)
            build_dataset(["EP"], engine=engine)
            exhaustive_static_search(
                registry.build("EP"), Cluster(4), stride=6,
                options=ExecutionOptions(campaign=engine),
            )
        assert engine.total_executed == 0
        assert engine.total_cached == 81

    def test_seeded_campaign_prefills_the_seeded_cluster(self, capsys, tmp_path):
        """``--seed 7`` names ``Cluster(n, seed=7)``: the cluster's seed
        is the noise seed too, so the library's dataset and Table V
        search on that cluster recall every row the CLI wrote."""
        from repro.api import ExecutionOptions
        from repro.campaign import CampaignEngine, ResultStore
        from repro.hardware.cluster import Cluster
        from repro.modeling.dataset import build_dataset
        from repro.ptf.static_tuning import exhaustive_static_search
        from repro.workloads import registry

        store = tmp_path / "store.jsonl"
        out = run_cli(
            capsys,
            "run", "--benchmarks", "EP", "--campaign", "both",
            "--stride", "6", "--seed", "7", "--store", str(store),
        )
        assert "new simulations: 81" in out
        with ResultStore(store) as results:
            search = CampaignEngine(store=results)
            exhaustive_static_search(
                registry.build("EP"), Cluster(4, seed=7), stride=6,
                options=ExecutionOptions(campaign=search),
            )
            dataset = CampaignEngine(store=results)
            build_dataset(("EP",), cluster=Cluster(4, seed=7), engine=dataset)
        assert (search.total_executed, search.total_cached) == (0, 13)
        assert (dataset.total_executed, dataset.total_cached) == (0, 68)


class TestRetriesFlag:
    """``run --retries`` is the engine's ``max_retries``: EP at 24
    threads is 17 jobs, and the first shard's first attempt fails
    transiently."""

    TRANSIENT_ONCE = (
        '[{"action": "raise", "error": "transient", "index": 0, '
        '"attempts": [0]}]'
    )

    def _run(self, capsys, tmp_path, monkeypatch, retries):
        monkeypatch.setenv(FAULT_ENV, self.TRANSIENT_ONCE)
        store = tmp_path / "retry.sqlite"
        code = main_campaign(
            ["run", "--store", str(store), "--benchmarks", "EP",
             "--threads", "24", "--retries", str(retries)]
        )
        return code, capsys.readouterr(), store

    def test_one_retry_heals_a_transient_failure(
        self, capsys, tmp_path, monkeypatch
    ):
        code, captured, _ = self._run(capsys, tmp_path, monkeypatch, 1)
        assert code == 0
        assert "retried:         1 transient failure(s)\n" in captured.out
        assert "new simulations: 17\n" in captured.out

    def test_no_retries_fails_the_job(self, capsys, tmp_path, monkeypatch):
        code, captured, _ = self._run(capsys, tmp_path, monkeypatch, 0)
        assert code == 2
        assert "InjectedTransientFault" in captured.err
        assert "16 never ran" in captured.err

    def test_negative_retries_refused_before_the_store_opens(
        self, capsys, tmp_path, monkeypatch
    ):
        code, captured, store = self._run(capsys, tmp_path, monkeypatch, -1)
        assert code == 2
        assert "max_retries must be >= 0" in captured.err
        assert not store.exists()


class TestStatusCommand:
    def test_status_summarises_store(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        run_cli(
            capsys,
            "run", "--benchmarks", "EP", "--campaign", "static",
            "--threads", "24", "--stride", "9",
            "--store", str(store),
        )
        out = run_cli(capsys, "status", "--store", str(store))
        assert "results: 3" in out
        assert "grid" in out and "EP" in out

    def test_status_refuses_missing_store(self, capsys, tmp_path):
        store = tmp_path / "missing.sqlite"
        assert_refuses_missing_store(capsys, store, "status", "--store", str(store))


class TestBackendFlag:
    def test_run_with_sqlite_backend(self, capsys, tmp_path):
        store = tmp_path / "store.cache"
        out = run_cli(
            capsys,
            "run", "--benchmarks", "EP", "--campaign", "static",
            "--threads", "24", "--stride", "9",
            "--store", str(store), "--backend", "sqlite",
        )
        assert "(sqlite)" in out
        out = run_cli(capsys, "status", "--store", str(store))
        assert "results: 3" in out and "(sqlite)" in out
        # Second run over the same store is pure cache hits.
        out = run_cli(
            capsys,
            "run", "--benchmarks", "EP", "--campaign", "static",
            "--threads", "24", "--stride", "9",
            "--store", str(store),
        )
        assert "cache hits:      3" in out
        assert "new simulations: 0" in out

    def test_run_rejects_segment_backend(self, capsys, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as excinfo:
            main_campaign(["run", "--store", str(store), "--backend", "segment"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'segment'" in capsys.readouterr().err
        assert not store.exists()

    def test_migrate_rejects_segment_backend(self, capsys, tmp_path):
        source = tmp_path / "source.jsonl"
        source.write_text("")
        dest = tmp_path / "dest"
        with pytest.raises(SystemExit) as excinfo:
            main_campaign(
                ["store", "migrate", str(source), str(dest), "--backend", "segment"]
            )
        assert excinfo.value.code == 2
        assert "invalid choice: 'segment'" in capsys.readouterr().err
        assert not dest.exists()

    @pytest.mark.parametrize("argv", [
        ("run", "--store", "unused.jsonl"),
        ("store", "migrate", "unused.jsonl", "unused.sqlite"),
    ], ids=["run", "migrate"])
    def test_backend_choices_are_backend_kinds(self, capsys, argv):
        """Both ``--backend`` flags offer exactly the store's backends."""
        with pytest.raises(SystemExit) as excinfo:
            main_campaign([*argv, "--backend", "parquet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        offered = err.split("choose from", 1)[1]
        assert [k for k in ("jsonl", "sqlite", "segment") if k in offered] == list(
            BACKEND_KINDS
        )

    def test_on_failure_choices_are_policies(self, capsys):
        """``--on-failure`` offers exactly the engine's failure policies."""
        with pytest.raises(SystemExit) as excinfo:
            main_campaign(["run", "--store", "unused.jsonl", "--on-failure", "retry"])
        assert excinfo.value.code == 2
        offered = capsys.readouterr().err.split("choose from", 1)[1]
        assert re.findall(r"'(\w+)'", offered) == list(ON_FAILURE_POLICIES)


class TestDirectoryStore:
    """A directory is not a store: every store command refuses it with
    exit 2 and writes nothing into it or next to it."""

    @pytest.mark.parametrize("argv", [
        ("plan", "--benchmarks", "EP", "--campaign", "static",
         "--threads", "24", "--stride", "9"),
        ("status",),
        ("store", "verify"),
        ("store", "compact"),
        ("run", "--benchmarks", "EP", "--campaign", "static",
         "--threads", "24", "--stride", "9"),
        ("run", "--benchmarks", "EP", "--campaign", "static",
         "--threads", "24", "--stride", "9", "--backend", "sqlite"),
    ], ids=["plan", "status", "verify", "compact", "run", "run-sqlite"])
    def test_directory_store_is_refused(self, capsys, tmp_path, argv):
        directory = tmp_path / "some-dir"
        directory.mkdir()
        assert main_campaign([*argv, "--store", str(directory)]) == 2
        err = capsys.readouterr().err
        assert f"store path {directory} is a directory" in err
        assert "Traceback" not in err
        assert list(directory.iterdir()) == []
        assert list(tmp_path.iterdir()) == [directory]

    @pytest.mark.parametrize("side", ["source", "dest"])
    def test_migrate_with_directory_is_refused(self, capsys, tmp_path, side):
        store = tmp_path / "store.jsonl"
        run_cli(
            capsys,
            "run", "--benchmarks", "EP", "--campaign", "static",
            "--threads", "24", "--stride", "9", "--store", str(store),
        )
        directory = tmp_path / "some-dir"
        directory.mkdir()
        source, dest = (
            (directory, tmp_path / "dest.sqlite")
            if side == "source"
            else (store, directory)
        )
        assert main_campaign(["store", "migrate", str(source), str(dest)]) == 2
        err = capsys.readouterr().err
        assert f"store path {directory} is a directory" in err
        assert "Traceback" not in err
        assert list(directory.iterdir()) == []
        assert sorted(tmp_path.iterdir()) == [directory, store]


class TestStoreSubcommands:
    def seed_store(self, capsys, tmp_path, name="store.jsonl"):
        store = tmp_path / name
        run_cli(
            capsys,
            "run", "--benchmarks", "EP", "--campaign", "static",
            "--threads", "24", "--stride", "9",
            "--store", str(store),
        )
        return store

    def test_migrate_jsonl_to_sqlite(self, capsys, tmp_path):
        source = self.seed_store(capsys, tmp_path)
        dest = tmp_path / "migrated.sqlite"
        out = run_cli(capsys, "store", "migrate", str(source), str(dest))
        assert "migrated 3 record(s)" in out and "(sqlite)" in out
        out = run_cli(capsys, "status", "--store", str(dest))
        assert "results: 3" in out and "(sqlite)" in out

    def test_migrate_refusal_prints_clean_error(self, capsys, tmp_path):
        source = tmp_path / "pre-v2.jsonl"
        source.write_text('{"key": "ab", "job": {}, "result": {}}\n')
        assert main_campaign(
            ["store", "migrate", str(source), str(tmp_path / "d.sqlite")]
        ) == 2  # library-error exit code, like every other subcommand
        err = capsys.readouterr().err
        assert "pre-v2" in err and "Traceback" not in err

    def test_compact_reports_dropped_lines(self, capsys, tmp_path):
        source = self.seed_store(capsys, tmp_path)
        lines = source.read_text()
        source.write_text(lines + lines)  # duplicate every record line
        out = run_cli(capsys, "store", "compact", "--store", str(source))
        assert "kept 3 record(s)" in out
        assert "dropped 3" in out

    def test_verify_clean_store(self, capsys, tmp_path):
        source = self.seed_store(capsys, tmp_path)
        out = run_cli(capsys, "store", "verify", "--store", str(source))
        assert "ok (3 readable records, no damage)" in out

    def test_compact_refuses_missing_store(self, capsys, tmp_path):
        store = tmp_path / "b.sqlite"
        assert_refuses_missing_store(
            capsys, store, "store", "compact", "--store", str(store)
        )

    def test_verify_refuses_missing_store(self, capsys, tmp_path):
        store = tmp_path / "b.sqlite"
        assert_refuses_missing_store(
            capsys, store, "store", "verify", "--store", str(store)
        )

    def test_verify_damaged_store_exits_nonzero(self, capsys, tmp_path):
        source = self.seed_store(capsys, tmp_path)
        with source.open("a") as fh:
            fh.write('{"torn half-record')
        assert main_campaign(["store", "verify", "--store", str(source)]) == 1
        out = capsys.readouterr().out
        assert "1 damaged entr" in out
        assert "line 4" in out and "unparseable" in out
