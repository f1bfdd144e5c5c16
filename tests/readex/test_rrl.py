"""Tests for scenarios, the tuning model and the RRL."""

import pytest

from repro import config
from repro.errors import RRLError, TuningModelError
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.hardware.node import ComputeNode
from repro.hardware.topology import NodeTopology
from repro.readex.pcp import CpuFreqPlugin, OpenMPTPlugin, UncoreFreqPlugin
from repro.readex.rrl import RRL
from repro.readex.scenario import Scenario, classify_scenarios
from repro.readex.tuning_model import TMM_PATH_ENV, TuningModel
from repro.workloads import registry
from tests.oracles.engine import meter_state, recursive_run
from tests.oracles.static import StaticController, static_rrl


def lulesh_tmm() -> TuningModel:
    best = {
        "phase": OperatingPoint(2.5, 2.1, 24),
        "IntegrateStressForElems": OperatingPoint(2.5, 2.0, 24),
        "CalcFBHourglassForceForElems": OperatingPoint(2.5, 2.0, 24),
        "CalcKinematicsForElems": OperatingPoint(2.4, 2.0, 24),
        "CalcQForElems": OperatingPoint(2.5, 2.0, 24),
        "ApplyMaterialPropertiesForElems": OperatingPoint(2.4, 2.0, 20),
    }
    return TuningModel.from_best_configs("Lulesh", "phase", best)


class TestScenarios:
    def test_identical_configs_grouped(self):
        best = {
            "a": OperatingPoint(2.5, 2.0, 24),
            "b": OperatingPoint(2.5, 2.0, 24),
            "c": OperatingPoint(1.6, 2.3, 20),
        }
        scenarios = classify_scenarios(best)
        assert len(scenarios) == 2
        grouped = {s.regions for s in scenarios}
        assert ("a", "b") in grouped

    def test_empty_input_rejected(self):
        with pytest.raises(TuningModelError):
            classify_scenarios({})

    def test_empty_scenario_rejected(self):
        with pytest.raises(TuningModelError):
            Scenario(0, OperatingPoint(), ())


class TestTuningModel:
    def test_lookup(self):
        tmm = lulesh_tmm()
        cfg = tmm.configuration_for("CalcKinematicsForElems")
        assert cfg == OperatingPoint(2.4, 2.0, 24)
        assert tmm.configuration_for("unknown") is None

    def test_scenario_count_reflects_grouping(self):
        tmm = lulesh_tmm()
        # 6 regions but only 4 distinct configurations
        assert len(tmm.scenarios) == 4

    def test_json_roundtrip(self, tmp_path):
        tmm = lulesh_tmm()
        path = tmm.save(tmp_path / "tmm.json")
        clone = TuningModel.load(path)
        assert clone.tuned_regions == tmm.tuned_regions
        assert clone.configuration_for("CalcQForElems") == tmm.configuration_for(
            "CalcQForElems"
        )

    def test_load_from_env(self, tmp_path, monkeypatch):
        path = lulesh_tmm().save(tmp_path / "tmm.json")
        monkeypatch.setenv(TMM_PATH_ENV, str(path))
        assert TuningModel.load_from_env().app_name == "Lulesh"

    def test_load_from_env_unset_rejected(self, monkeypatch):
        monkeypatch.delenv(TMM_PATH_ENV, raising=False)
        with pytest.raises(TuningModelError):
            TuningModel.load_from_env()

    def test_malformed_json_rejected(self):
        with pytest.raises(TuningModelError):
            TuningModel.from_json("{}")

    def test_duplicate_region_rejected(self):
        with pytest.raises(TuningModelError):
            TuningModel(
                app_name="x",
                phase_region="phase",
                scenarios=(
                    Scenario(0, OperatingPoint(2.5, 3.0, 24), ("r",)),
                    Scenario(1, OperatingPoint(2.4, 3.0, 24), ("r",)),
                ),
            )


class TestPCPs:
    def test_cpu_freq_plugin(self):
        node = ComputeNode(0)
        CpuFreqPlugin().apply(node, 1.8)
        assert node.core_freq_ghz == 1.8

    def test_uncore_freq_plugin(self):
        node = ComputeNode(0)
        UncoreFreqPlugin().apply(node, 2.2)
        assert node.uncore_freq_ghz == 2.2

    def test_openmp_plugin_validates_range(self):
        node = ComputeNode(0)
        plugin = OpenMPTPlugin()
        assert plugin.apply(node, 16) == 16
        with pytest.raises(RRLError):
            plugin.apply(node, 0)
        with pytest.raises(RRLError):
            plugin.apply(node, 25)

    def test_rrl_thread_bound_is_the_nodes_core_count(self):
        """On a 48-core node the RRL pins 32 threads, exactly as the
        recursive engine runs the static controller; on an 8-core node
        a 16-thread request is the RRL's error, not the power model's."""
        app = registry.build("Lulesh")
        wide = NodeTopology.build(4, 12)
        point = OperatingPoint(2.2, 1.8, 32)
        fast_node = ComputeNode(0, topology=wide)
        ref_node = ComputeNode(0, topology=wide)
        fast = ExecutionSimulator(fast_node).run(
            app, controller=static_rrl(app, point), run_key=("wide", 0)
        )
        ref = recursive_run(
            ref_node, app, controller=StaticController(point), run_key=("wide", 0)
        )
        assert fast == ref
        assert fast.instances[0].operating_point.threads == 32
        assert meter_state(fast_node) == meter_state(ref_node)

        narrow = ComputeNode(0, topology=NodeTopology.build(1, 8))
        with pytest.raises(RRLError, match=r"outside \[1, 8\]"):
            ExecutionSimulator(narrow).run(
                app,
                threads=8,
                controller=static_rrl(app, OperatingPoint(2.2, 1.8, 16)),
            )


class TestRRL:
    def test_rrl_switches_configs_during_run(self):
        app = registry.build("Lulesh")
        node = ComputeNode(0)
        rrl = RRL(lulesh_tmm())
        result = ExecutionSimulator(node).run(
            app, controller=rrl, instrumented=True
        )
        assert rrl.stats.scenario_hits > 0
        assert rrl.stats.frequency_switches > 0
        assert result.switching_time_s > 0

    def test_rrl_applies_region_configuration(self):
        app = registry.build("Lulesh")
        node = ComputeNode(0)
        rrl = RRL(lulesh_tmm())
        result = ExecutionSimulator(node).run(app, controller=rrl, instrumented=True)
        point = result.region_instances("CalcKinematicsForElems")[0].operating_point
        assert point.core_freq_ghz == 2.4
        assert point.uncore_freq_ghz == 2.0

    def test_rrl_saves_energy_vs_default(self):
        app = registry.build("Mcb")
        best = {
            "phase": OperatingPoint(1.6, 2.5, 20),
            "setupDT": OperatingPoint(1.6, 2.5, 20),
            "advPhoton": OperatingPoint(1.6, 2.6, 20),
            "omp parallel:423": OperatingPoint(1.6, 2.5, 20),
            "omp parallel:501": OperatingPoint(1.7, 2.4, 20),
            "omp parallel:642": OperatingPoint(1.6, 2.5, 20),
        }
        tmm = TuningModel.from_best_configs("Mcb", "phase", best)
        default = ExecutionSimulator(ComputeNode(0)).run(app)
        tuned = ExecutionSimulator(ComputeNode(0)).run(
            app, controller=RRL(tmm), instrumented=True
        )
        assert tuned.node_energy_j < default.node_energy_j
        assert tuned.time_s > default.time_s  # dynamic tuning costs time

    def test_scenario_grouping_avoids_redundant_switches(self):
        """Regions in one scenario switch only when entered from another."""
        app = registry.build("Lulesh")
        rrl = RRL(lulesh_tmm())
        ExecutionSimulator(ComputeNode(0)).run(app, controller=rrl)
        # Far fewer hardware switches than region enters with scenarios.
        assert rrl.stats.frequency_switches < rrl.stats.scenario_hits

    def test_static_controller_applies_once(self):
        app = registry.build("EP")
        node = ComputeNode(0)
        controller = static_rrl(app, OperatingPoint(2.4, 1.3, 24))
        result = ExecutionSimulator(node).run(app, controller=controller)
        assert node.core_freq_ghz == 2.4
        assert node.uncore_freq_ghz == 1.3
        # one switch at start only
        assert result.switching_time_s <= (
            config.DVFS_TRANSITION_LATENCY_S + config.UFS_TRANSITION_LATENCY_S
        ) * 1.001
