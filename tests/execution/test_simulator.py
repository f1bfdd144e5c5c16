"""Tests for the execution simulator, jobs and SLURM accounting."""

import pytest

from repro import config
from repro.errors import JobError, WorkloadError
from repro.execution.simulator import ExecutionSimulator, InstanceLog, RunResult
from repro.execution.slurm import SlurmAccounting
from repro.hardware.node import ComputeNode
from repro.workloads import registry


@pytest.fixture
def node() -> ComputeNode:
    return ComputeNode(0)


@pytest.fixture
def sim(node) -> ExecutionSimulator:
    return ExecutionSimulator(node)


class TestBasicRun:
    def test_run_produces_time_and_energy(self, sim):
        app = registry.build("EP")
        result = sim.run(app)
        assert result.time_s > 0
        assert result.node_energy_j > 0
        assert 0 < result.cpu_energy_j < result.node_energy_j

    def test_phase_instances_match_iterations(self, sim):
        app = registry.build("EP")
        result = sim.run(app)
        assert len(result.region_instances("phase")) == app.phase_iterations

    def test_energy_consistent_with_mean_power(self, sim):
        app = registry.build("EP")
        result = sim.run(app)
        assert 150 < result.mean_power_w < 450  # plausible node power

    def test_uninstrumented_run_has_no_overhead(self, sim):
        app = registry.build("EP")
        result = sim.run(app)
        assert result.instrumentation_time_s == 0.0
        assert result.switching_time_s == 0.0

    def test_instrumented_run_has_overhead(self, node):
        app = registry.build("Lulesh")
        plain = ExecutionSimulator(ComputeNode(0)).run(app)
        instr = ExecutionSimulator(ComputeNode(0)).run(app, instrumented=True)
        assert instr.instrumentation_time_s > 0
        assert instr.time_s > plain.time_s

    def test_invalid_thread_count_rejected(self, sim):
        with pytest.raises(WorkloadError):
            sim.run(registry.build("EP"), threads=25)

    def test_mpi_app_ignores_thread_request(self, sim):
        app = registry.build("Kripke")
        result = sim.run(app, threads=12)
        assert result.operating_point.threads == app.default_threads


class TestOperatingPointEffects:
    def test_lower_core_freq_slower_for_compute_bound(self):
        app = registry.build("EP")
        n1, n2 = ComputeNode(0), ComputeNode(0)
        n1.set_frequencies(2.5, 2.0)
        n2.set_frequencies(1.2, 2.0)
        fast = ExecutionSimulator(n1).run(app)
        slow = ExecutionSimulator(n2).run(app)
        assert slow.time_s > fast.time_s * 1.5

    def test_tuned_config_saves_energy_for_memory_bound(self):
        app = registry.build("Mcb")
        n_def, n_opt = ComputeNode(0), ComputeNode(0)
        n_def.set_frequencies(2.5, 3.0)
        n_opt.set_frequencies(1.6, 2.5)
        default = ExecutionSimulator(n_def).run(app, threads=24)
        tuned = ExecutionSimulator(n_opt).run(app, threads=20)
        assert tuned.node_energy_j < default.node_energy_j

    def test_runs_are_deterministic(self):
        app = registry.build("FT")
        a = ExecutionSimulator(ComputeNode(3)).run(app, run_key=("r", 0))
        b = ExecutionSimulator(ComputeNode(3)).run(app, run_key=("r", 0))
        assert a.time_s == b.time_s
        assert a.node_energy_j == b.node_energy_j

    def test_different_run_keys_vary_slightly(self):
        app = registry.build("FT")
        a = ExecutionSimulator(ComputeNode(3)).run(app, run_key=("r", 0))
        b = ExecutionSimulator(ComputeNode(3)).run(app, run_key=("r", 1))
        assert a.time_s != b.time_s
        assert abs(a.time_s / b.time_s - 1) < 0.05

    def test_node_variability_affects_energy_not_time(self):
        app = registry.build("EP")
        r1 = ExecutionSimulator(ComputeNode(1)).run(app)
        r2 = ExecutionSimulator(ComputeNode(2)).run(app)
        assert r1.node_energy_j != r2.node_energy_j


class TestRegionAccounting:
    def test_significant_regions_exceed_threshold(self):
        app = registry.build("Lulesh")
        node = ComputeNode(0)
        node.set_frequencies(
            config.CALIBRATION_CORE_FREQ_GHZ, config.CALIBRATION_UNCORE_FREQ_GHZ
        )
        result = ExecutionSimulator(node).run(app)
        for name in ("IntegrateStressForElems", "CalcQForElems"):
            instances = result.region_instances(name)
            mean = sum(i.time_s for i in instances) / len(instances)
            assert mean > config.SIGNIFICANT_REGION_THRESHOLD_S

    def test_tiny_regions_below_threshold(self):
        app = registry.build("Lulesh")
        result = ExecutionSimulator(ComputeNode(0)).run(app)
        instances = result.region_instances("CalcTimeConstraintsForElems")
        mean = sum(i.time_s for i in instances) / len(instances)
        assert mean < config.SIGNIFICANT_REGION_THRESHOLD_S

    def test_phase_energy_contains_children(self):
        app = registry.build("Lulesh")
        result = ExecutionSimulator(ComputeNode(0)).run(app)
        phase = result.region_instances("phase")[0]
        working = {r.name for r in app.phase.walk() if r.has_work}
        children = [
            i for i in result.instances
            if i.iteration == 0 and i.region_name != "phase"
            and i.region_name != "main"
        ]
        assert phase.node_energy_j == pytest.approx(
            sum(i.node_energy_j for i in children if i.region_name in working),
            rel=1e-6,
        )


class TestSlurm:
    def test_submit_and_query(self, sim):
        acct = SlurmAccounting()
        run = sim.run(registry.build("EP"))
        record = acct.submit(run)
        rows = acct.sacct(job_id=record.job_id, fmt="JobID,Elapsed,ConsumedEnergy")
        assert rows[0]["Elapsed"] == pytest.approx(run.time_s)
        assert rows[0]["ConsumedEnergy"] == pytest.approx(run.node_energy_j)

    def test_unknown_field_rejected(self, sim):
        acct = SlurmAccounting()
        acct.submit(sim.run(registry.build("EP")))
        with pytest.raises(JobError):
            acct.sacct(fmt="NotAField")

    def test_unknown_job_rejected(self):
        with pytest.raises(JobError):
            SlurmAccounting().job(1)

    def test_job_ids_increment(self, sim):
        acct = SlurmAccounting()
        a = acct.submit(sim.run(registry.build("EP"), run_key=(1,)))
        b = acct.submit(sim.run(registry.build("EP"), run_key=(2,)))
        assert b.job_id == a.job_id + 1


class TestInstanceLog:
    def test_lazy_materialisation(self):
        produced = []

        def producer():
            produced.append(True)
            return []

        log = InstanceLog.deferred(producer)
        assert not produced
        assert len(log) == 0
        assert produced == [True]
        len(log)  # second access does not re-produce
        assert produced == [True]

    def test_region_index_matches_scan(self, sim):
        run = sim.run(registry.build("Lulesh"))
        for name in {i.region_name for i in run.instances}:
            assert run.region_instances(name) == [
                i for i in run.instances if i.region_name == name
            ]

    def test_equality_with_plain_list(self, sim):
        log = InstanceLog()
        assert log == []
        run = sim.run(registry.build("EP"))
        assert run.instances == list(run.instances)

    def test_region_times_and_energies_consistent(self, sim):
        run = sim.run(registry.build("FT"))
        total = sum(i.time_s for i in run.instances if i.region_name == "phase")
        assert run.region_time_s("phase") == total
        assert run.region_energy_j("phase") == sum(
            i.node_energy_j for i in run.instances if i.region_name == "phase"
        )

    def test_run_result_default_construction_still_appends(self):
        run = RunResult(app_name="x", node_id=0, operating_point=None)
        assert list(run.instances) == []
        assert run.region_instances("anything") == []
