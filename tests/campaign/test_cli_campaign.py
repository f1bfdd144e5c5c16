"""Tests for the ``repro-campaign`` console entry point."""

import pytest

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
        assert "jobs:             55" in out
        assert "counters" in out and "sweep" in out and "static" in out
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
        assert "already cached:   5 / 5" in out

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
        assert "new simulations: 5" in first
        assert "cache hits:      0" in first
        second = run_cli(capsys, *argv)
        assert "new simulations: 0" in second
        assert "cache hits:      5" in second
        assert store.exists()


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
        assert "results: 5" in out
        assert "static" in out and "EP" in out

    def test_status_refuses_missing_store(self, capsys, tmp_path):
        store = tmp_path / "missing.sqlite"
        assert_refuses_missing_store(capsys, store, "status", "--store", str(store))


class TestBackendFlag:
    @pytest.mark.parametrize("backend, name", [
        ("sqlite", "store.sqlite"),
        ("segment", "store-segments"),
    ])
    def test_run_with_indexed_backend(self, capsys, tmp_path, backend, name):
        store = tmp_path / name
        out = run_cli(
            capsys,
            "run", "--benchmarks", "EP", "--campaign", "static",
            "--threads", "24", "--stride", "9",
            "--store", str(store), "--backend", backend,
        )
        assert f"({backend})" in out
        out = run_cli(capsys, "status", "--store", str(store))
        assert "results: 5" in out and f"({backend})" in out
        # Second run over the same store is pure cache hits.
        out = run_cli(
            capsys,
            "run", "--benchmarks", "EP", "--campaign", "static",
            "--threads", "24", "--stride", "9",
            "--store", str(store),
        )
        assert "cache hits:      5" in out
        assert "new simulations: 0" in out


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
        assert "migrated 5 record(s)" in out and "(sqlite)" in out
        out = run_cli(capsys, "status", "--store", str(dest))
        assert "results: 5" in out and "(sqlite)" in out

    def test_migrate_explicit_backend_flag(self, capsys, tmp_path):
        source = self.seed_store(capsys, tmp_path)
        dest = tmp_path / "migrated-anywhere"
        out = run_cli(
            capsys, "store", "migrate", str(source), str(dest),
            "--backend", "segment",
        )
        assert "(segment)" in out and dest.is_dir()

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
        assert "kept 5 record(s)" in out
        assert "dropped 5" in out

    def test_verify_clean_store(self, capsys, tmp_path):
        source = self.seed_store(capsys, tmp_path)
        out = run_cli(capsys, "store", "verify", "--store", str(source))
        assert "ok (5 readable records, no damage)" in out

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
        assert "line 6" in out and "unparseable" in out
