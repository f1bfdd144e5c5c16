"""Tests for the otf2 parser, measure-rapl, sacct formatting and CLIs."""

import json

import pytest

from repro import api
from repro.campaign.engine import CampaignEngine
from repro.campaign.faultinject import FAULT_ENV
from repro.campaign.store import ResultStore

from repro.errors import TraceError
from repro.execution.simulator import ExecutionSimulator
from repro.execution.slurm import SlurmAccounting
from repro.hardware.node import ComputeNode
from repro.scorep.hdeem_plugin import HdeemMetricPlugin
from repro.scorep.otf2 import write_trace
from repro.scorep.papi_plugin import PapiMetricPlugin
from repro.scorep.trace import TraceCollector
from repro.tools import cli
from repro.tools.measure_rapl import measure_rapl
from repro.tools.otf2_parser import parse_trace
from repro.tools.sacct import format_sacct_output
from repro.workloads import registry


def make_trace(app_name="Lulesh"):
    app = registry.build(app_name)
    collector = TraceCollector(
        app.name,
        metric_plugins=(
            HdeemMetricPlugin(),
            PapiMetricPlugin(("LD_INS", "SR_INS", "RES_STL", "BR_NTK")),
        ),
    )
    sim = ExecutionSimulator(ComputeNode(0))
    run = sim.run(app, listeners=(collector,), collect_counters=True)
    return collector.trace(), run, app


class TestOtf2Parser:
    def test_reports_whole_run_energy(self):
        trace, run, app = make_trace()
        report = parse_trace(trace)
        assert report.total_energy_j == pytest.approx(run.node_energy_j, rel=0.02)

    def test_phase_instances_counted(self):
        trace, run, app = make_trace()
        report = parse_trace(trace)
        assert report.num_phase_instances == app.phase_iterations

    def test_phase_papi_values_present(self):
        trace, _, _ = make_trace()
        report = parse_trace(trace)
        assert report.mean_papi("LD_INS") > 0
        assert report.mean_papi("papi::RES_STL") > 0

    def test_missing_counter_rejected(self):
        trace, _, _ = make_trace()
        with pytest.raises(TraceError):
            parse_trace(trace).mean_papi("DP_OPS")

    def test_parse_from_file(self, tmp_path):
        trace, run, _ = make_trace("EP")
        path = write_trace(trace, tmp_path / "ep.jsonl")
        report = parse_trace(path)
        assert report.app_name == "EP"
        assert report.total_energy_j > 0


class TestMeasureRapl:
    def test_measures_cpu_energy(self):
        node = ComputeNode(0)
        with measure_rapl(node) as m:
            ExecutionSimulator(node).run(registry.build("EP"))
        assert m.cpu_energy_j > 0
        assert m.elapsed_s > 0
        assert 50 < m.mean_cpu_power_w < 300

    def test_zero_when_nothing_runs(self):
        node = ComputeNode(0)
        with measure_rapl(node) as m:
            pass
        assert m.cpu_energy_j == pytest.approx(0.0, abs=1e-3)


class TestSacctFormatting:
    def test_renders_fixed_width_table(self):
        acct = SlurmAccounting()
        run = ExecutionSimulator(ComputeNode(0)).run(registry.build("EP"))
        acct.submit(run)
        out = format_sacct_output(acct)
        lines = out.splitlines()
        assert "JobID" in lines[0]
        assert len(lines) == 3


class TestClis:
    def test_dyn_detect_cli(self, capsys, tmp_path):
        out_file = tmp_path / "cfg.json"
        assert cli.main_dyn_detect(["Lulesh", "-o", str(out_file)]) == 0
        captured = capsys.readouterr().out
        assert "IntegrateStressForElems" in captured
        assert out_file.exists()

    def test_sacct_cli(self, capsys):
        assert cli.main_sacct(["EP"]) == 0
        assert "ConsumedEnergy" in capsys.readouterr().out

    def test_measure_rapl_cli(self, capsys):
        assert cli.main_measure_rapl(["EP", "--cf", "2.0", "--ucf", "1.5"]) == 0
        assert "CPU energy" in capsys.readouterr().out

    def test_otf2_parser_cli(self, capsys, tmp_path):
        trace, _, _ = make_trace("EP")
        path = write_trace(trace, tmp_path / "t.jsonl")
        assert cli.main_otf2_parser([str(path)]) == 0
        assert "total energy" in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            cli.main_sacct(["NotABenchmark"])


class TestTuneJson:
    """``repro-tune --json`` answers in the serving wire schema, with
    the service's one exception-to-envelope mapping."""

    FAULT = [{"action": "raise", "app": "CG", "attempts": "all"}]

    def tune_json(self, capsys, *extra):
        code = cli.main_tune(["CG", "--json", "--stride", "7", *extra])
        return code, json.loads(capsys.readouterr().out)

    def test_answer_matches_offline_tune(self, capsys):
        code, envelope = self.tune_json(capsys)
        assert code == 0
        offline = api.tune(api.TuningRequest("CG", stride=7))
        assert envelope["result"] == offline.payload()

    @pytest.mark.parametrize("with_store", [False, True])
    def test_fresh_failure_is_an_execution_error(
        self, with_store, capsys, tmp_path, monkeypatch
    ):
        """A failure that persisted no record is not a quarantine."""
        monkeypatch.setenv(FAULT_ENV, json.dumps(self.FAULT))
        extra = ["--store", str(tmp_path / "s.sqlite")] if with_store else []
        code, envelope = self.tune_json(capsys, *extra)
        assert code == 3
        assert envelope["error"]["code"] == "execution-error"
        assert "CG" in envelope["error"]["message"]

    def test_stored_failure_record_is_quarantined(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "s.sqlite"
        monkeypatch.setenv(FAULT_ENV, json.dumps(self.FAULT))
        request = api.TuningRequest("CG", stride=7).resolved()
        with ResultStore(path) as store:
            CampaignEngine(store=store).run(
                request.jobs(), on_failure="quarantine"
            )
        monkeypatch.delenv(FAULT_ENV)
        code, envelope = self.tune_json(capsys, "--store", str(path))
        assert code == 3
        assert envelope["error"]["code"] == "quarantined"
        assert "InjectedFault" in envelope["error"]["message"]
