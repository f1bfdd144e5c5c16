"""Tests for the CI perf-regression gate (scripts/check_perf_regression.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_perf_regression.py"
spec = importlib.util.spec_from_file_location("check_perf_regression", SCRIPT)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def write(path: Path, report: dict) -> Path:
    path.write_text(json.dumps(report))
    return path


def sim_report(speedup: float) -> dict:
    return {"benchmark": "sim_throughput", "aggregate": {"speedup": speedup}}


def tuning_report(speedup: float, identical: bool = True) -> dict:
    return {
        "benchmark": "tuning_time",
        "model_evaluation": {
            "speedup": speedup,
            "selections_identical": identical,
        },
    }


def savings_report(speedup: float, identical: bool = True) -> dict:
    return {
        "benchmark": "table6_savings",
        "aggregate": {"speedup": speedup, "engines_identical": identical},
    }


def grid_report(speedup: float, identical: bool = True) -> dict:
    return {
        "benchmark": "grid_sweep",
        "aggregate": {"speedup": speedup, "engines_identical": identical},
    }


def regen_report(speedup: float, identical: bool = True) -> dict:
    return {
        "benchmark": "paper_regen",
        "aggregate": {"speedup": speedup, "artifacts_identical": identical},
    }


def loocv_report(speedup: float, identical: bool = True) -> dict:
    return {
        "benchmark": "loocv_mape",
        "speedup": speedup,
        "mape_identical": identical,
    }


def serving_report(speedup: float, no_admission_delay: bool = True) -> dict:
    return {
        "benchmark": "serving_throughput",
        "aggregate": {
            "speedup": speedup,
            "responses_identical": True,
            "coalescing_engaged": True,
            "no_admission_delay": no_admission_delay,
        },
    }


def scaling_report(efficiency: float, identical: bool = True) -> dict:
    return {
        "benchmark": "serving_scaling",
        "aggregate": {
            "efficiency": efficiency,
            "responses_identical": identical,
        },
    }


class TestGate:
    def test_passes_when_equal(self, tmp_path):
        current = write(tmp_path / "a.json", sim_report(12.0))
        baseline = write(tmp_path / "b.json", sim_report(12.0))
        assert gate.main([str(current), str(baseline)]) == 0

    def test_tolerates_small_drop(self, tmp_path):
        current = write(tmp_path / "a.json", sim_report(9.0))
        baseline = write(tmp_path / "b.json", sim_report(12.0))
        assert gate.main([str(current), str(baseline)]) == 0  # -25% < 30%

    def test_fails_on_injected_2x_slowdown(self, tmp_path):
        """The acceptance scenario: halving the fast path halves the
        speedup ratio, which must trip the 30% gate."""
        current = write(tmp_path / "a.json", sim_report(6.0))
        baseline = write(tmp_path / "b.json", sim_report(12.0))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_fails_on_tuning_time_slowdown(self, tmp_path):
        current = write(tmp_path / "a.json", tuning_report(4.0))
        baseline = write(tmp_path / "b.json", tuning_report(8.7))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_fails_when_selections_diverge(self, tmp_path):
        current = write(tmp_path / "a.json", tuning_report(9.0, identical=False))
        baseline = write(tmp_path / "b.json", tuning_report(8.7))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_fails_on_savings_sweep_slowdown(self, tmp_path):
        current = write(tmp_path / "a.json", savings_report(2.5))
        baseline = write(tmp_path / "b.json", savings_report(5.7))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_fails_when_savings_engines_diverge(self, tmp_path):
        current = write(tmp_path / "a.json", savings_report(6.0, identical=False))
        baseline = write(tmp_path / "b.json", savings_report(5.7))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_passes_on_healthy_savings_report(self, tmp_path):
        current = write(tmp_path / "a.json", savings_report(5.0))
        baseline = write(tmp_path / "b.json", savings_report(5.7))
        assert gate.main([str(current), str(baseline)]) == 0

    def test_fails_on_grid_sweep_slowdown(self, tmp_path):
        current = write(tmp_path / "a.json", grid_report(5.0))
        baseline = write(tmp_path / "b.json", grid_report(10.5))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_fails_when_grid_engines_diverge(self, tmp_path):
        current = write(tmp_path / "a.json", grid_report(11.0, identical=False))
        baseline = write(tmp_path / "b.json", grid_report(10.5))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_passes_on_healthy_grid_report(self, tmp_path):
        current = write(tmp_path / "a.json", grid_report(10.0))
        baseline = write(tmp_path / "b.json", grid_report(10.5))
        assert gate.main([str(current), str(baseline)]) == 0

    def test_fails_on_paper_regen_slowdown(self, tmp_path):
        current = write(tmp_path / "a.json", regen_report(2.0))
        baseline = write(tmp_path / "b.json", regen_report(4.5))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_fails_when_regen_artifacts_diverge(self, tmp_path):
        current = write(tmp_path / "a.json", regen_report(5.0, identical=False))
        baseline = write(tmp_path / "b.json", regen_report(4.5))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_passes_on_healthy_paper_regen_report(self, tmp_path):
        current = write(tmp_path / "a.json", regen_report(4.0))
        baseline = write(tmp_path / "b.json", regen_report(4.5))
        assert gate.main([str(current), str(baseline)]) == 0

    def test_fails_on_loocv_slowdown(self, tmp_path):
        current = write(tmp_path / "a.json", loocv_report(10.0))
        baseline = write(tmp_path / "b.json", loocv_report(25.0))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_fails_when_loocv_engines_diverge(self, tmp_path):
        current = write(tmp_path / "a.json", loocv_report(25.0, identical=False))
        baseline = write(tmp_path / "b.json", loocv_report(25.0))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_passes_on_healthy_loocv_report(self, tmp_path):
        current = write(tmp_path / "a.json", loocv_report(24.0))
        baseline = write(tmp_path / "b.json", loocv_report(25.0))
        assert gate.main([str(current), str(baseline)]) == 0

    def test_passes_on_healthy_serving_report(self, tmp_path):
        current = write(tmp_path / "a.json", serving_report(4.0))
        baseline = write(tmp_path / "b.json", serving_report(5.0))
        assert gate.main([str(current), str(baseline)]) == 0

    def test_fails_when_a_lone_request_waits_for_batch_mates(self, tmp_path):
        """An admission timer slows light load without denting the
        loaded speedup; the light-load flag alone must trip the gate."""
        current = write(
            tmp_path / "a.json",
            serving_report(5.0, no_admission_delay=False),
        )
        baseline = write(tmp_path / "b.json", serving_report(5.0))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_fails_on_scaling_efficiency_drop(self, tmp_path):
        current = write(tmp_path / "a.json", scaling_report(0.2))
        baseline = write(tmp_path / "b.json", scaling_report(0.8))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_fails_when_scaling_responses_diverge(self, tmp_path):
        current = write(
            tmp_path / "a.json", scaling_report(0.9, identical=False)
        )
        baseline = write(tmp_path / "b.json", scaling_report(0.8))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_passes_on_healthy_scaling_report(self, tmp_path):
        current = write(tmp_path / "a.json", scaling_report(0.7))
        baseline = write(tmp_path / "b.json", scaling_report(0.8))
        assert gate.main([str(current), str(baseline)]) == 0

    def test_max_drop_flag(self, tmp_path):
        current = write(tmp_path / "a.json", sim_report(9.0))
        baseline = write(tmp_path / "b.json", sim_report(12.0))
        assert gate.main([str(current), str(baseline), "--max-drop", "0.2"]) == 1

    def test_kind_mismatch_rejected(self, tmp_path):
        current = write(tmp_path / "a.json", sim_report(9.0))
        baseline = write(tmp_path / "b.json", tuning_report(8.7))
        with pytest.raises(SystemExit):
            gate.main([str(current), str(baseline)])

    def test_missing_metric_explains_schema(self, tmp_path):
        current = write(
            tmp_path / "a.json", {"benchmark": "sim_throughput", "aggregate": {}}
        )
        baseline = write(tmp_path / "b.json", sim_report(12.0))
        with pytest.raises(SystemExit, match="older benchmark schema"):
            gate.main([str(current), str(baseline)])


class TestCommittedBaselines:
    """The baselines the CI gate compares against must stay well-formed."""

    BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

    def test_sim_throughput_baseline(self):
        report = json.loads((self.BASELINES / "sim-throughput.json").read_text())
        assert report["benchmark"] == "sim_throughput"
        assert report["aggregate"]["speedup"] > 1

    def test_tuning_time_baseline(self):
        report = json.loads((self.BASELINES / "tuning-time.json").read_text())
        assert report["benchmark"] == "tuning_time"
        # The batched engine's headline claim, pinned at baseline time.
        assert report["model_evaluation"]["speedup"] >= 5
        assert report["model_evaluation"]["selections_identical"] is True

    def test_paper_regen_baseline(self):
        report = json.loads((self.BASELINES / "paper-regen.json").read_text())
        assert report["benchmark"] == "paper_regen"
        # The fleet kernel's acceptance claim, pinned at baseline time.
        assert report["aggregate"]["speedup"] >= 3
        assert report["aggregate"]["artifacts_identical"] is True

    def test_serving_scaling_baseline(self):
        report = json.loads(
            (self.BASELINES / "serving-scaling.json").read_text()
        )
        assert report["benchmark"] == "serving_scaling"
        # Core-normalised efficiency is the portable claim; the raw
        # speedup multiple depends on how many cores the runner has.
        assert report["aggregate"]["efficiency"] > 0.5
        assert report["aggregate"]["responses_identical"] is True
        assert report["aggregate"]["max_workers"] >= 2

    def test_dynamic_replay_baseline(self):
        report = json.loads((self.BASELINES / "dynamic-replay.json").read_text())
        assert report["benchmark"] == "table6_savings"
        # The controlled-replay acceptance: >= 5x on the Table VI sweep.
        assert report["aggregate"]["speedup"] >= 5
        assert report["aggregate"]["engines_identical"] is True

    def test_grid_sweep_baseline(self):
        report = json.loads((self.BASELINES / "grid-sweep.json").read_text())
        assert report["benchmark"] == "grid_sweep"
        # The sweep-engine acceptance: >= 5x on the Fig 6/7 grids.
        assert report["aggregate"]["speedup"] >= 5
        assert report["aggregate"]["engines_identical"] is True
        assert {r["app"] for r in report["results"]} == {"Lulesh", "Mcb"}

    def test_loocv_mape_baseline(self):
        report = json.loads((self.BASELINES / "loocv-mape.json").read_text())
        assert report["benchmark"] == "loocv_mape"
        # The lockstep trainer's acceptance: all 19 cold folds >= 10x
        # faster than the serial oracle loop, with identical MAPE.
        assert report["speedup"] >= 10
        assert report["mape_identical"] is True
        assert report["benchmarks"] == 19

    def test_gate_passes_against_itself(self, capsys):
        for name in (
            "sim-throughput.json",
            "tuning-time.json",
            "loocv-mape.json",
            "dynamic-replay.json",
            "grid-sweep.json",
            "paper-regen.json",
            "serving-scaling.json",
        ):
            path = self.BASELINES / name
            assert gate.main([str(path), str(path)]) == 0


def store_report(
    sqlite_recall: float = 100.0,
    sqlite_open: float = 100.0,
    segment_recall: float = 20.0,
    segment_open: float = 50.0,
    identical: bool = True,
) -> dict:
    return {
        "benchmark": "store_scale",
        "backends": {
            "jsonl": {"cold_open_s": 1.0, "recall_s": 1.0},
            "sqlite": {
                "recall_speedup": sqlite_recall,
                "cold_open_speedup": sqlite_open,
            },
            "segment": {
                "recall_speedup": segment_recall,
                "cold_open_speedup": segment_open,
            },
        },
        "payloads_identical": identical,
    }


class TestStoreScaleGate:
    def test_passes_when_equal(self, tmp_path):
        current = write(tmp_path / "a.json", store_report())
        baseline = write(tmp_path / "b.json", store_report())
        assert gate.main([str(current), str(baseline)]) == 0

    def test_fails_on_sqlite_recall_slowdown(self, tmp_path):
        current = write(tmp_path / "a.json", store_report(sqlite_recall=30.0))
        baseline = write(tmp_path / "b.json", store_report(sqlite_recall=100.0))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_fails_on_segment_cold_open_slowdown(self, tmp_path):
        current = write(tmp_path / "a.json", store_report(segment_open=10.0))
        baseline = write(tmp_path / "b.json", store_report(segment_open=50.0))
        assert gate.main([str(current), str(baseline)]) == 1

    def test_fails_when_payloads_diverge(self, tmp_path):
        current = write(tmp_path / "a.json", store_report(identical=False))
        baseline = write(tmp_path / "b.json", store_report())
        assert gate.main([str(current), str(baseline)]) == 1


class TestStoreScaleBaselines:
    BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

    def test_committed_million_record_baseline(self):
        """The ISSUE 6 acceptance numbers, pinned at baseline time:
        >= 10x warm recall-by-key and >= 5x cold open at 10^6 records
        for both indexed backends over JSONL."""
        report = json.loads((self.BASELINES / "store-scale.json").read_text())
        assert report["benchmark"] == "store_scale"
        assert report["records"] == 1_000_000
        for backend in ("sqlite", "segment"):
            entry = report["backends"][backend]
            assert entry["recall_speedup"] >= 10, backend
            assert entry["cold_open_speedup"] >= 5, backend
        assert report["payloads_identical"] is True

    def test_committed_smoke_baseline(self):
        """The reduced configuration CI gates every push against."""
        report = json.loads(
            (self.BASELINES / "store-scale-smoke.json").read_text()
        )
        assert report["benchmark"] == "store_scale"
        assert report["records"] == 100_000
        for backend in ("sqlite", "segment"):
            entry = report["backends"][backend]
            assert entry["recall_speedup"] > 1, backend
            assert entry["cold_open_speedup"] > 1, backend
        assert report["payloads_identical"] is True

    def test_gate_passes_against_themselves(self):
        for name in ("store-scale.json", "store-scale-smoke.json"):
            path = self.BASELINES / name
            assert gate.main([str(path), str(path)]) == 0
