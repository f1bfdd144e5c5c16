"""Fleet-sharded campaign execution: batched pricing, per-job schema.

:meth:`CampaignEngine.run` cuts jobs of every mode into
:class:`~repro.campaign.plan.FleetShard`\\ s and prices each shard in
one pass through the fleet replay kernel; a single-job slice runs per
job.  Sharding is a strategy, not a schema: every payload equals the
per-job :func:`execute_job` payload, and store keys are per job, so a
store written job by job recalls bit-identically.  A shard that fails
re-runs its members per job, so one bad job is quarantined alone.
"""

import json

import pytest

from repro.campaign import CampaignEngine, ResultStore, RetryPolicy
from repro.campaign.engine import execute_job, topology_job_key
from repro.campaign.faultinject import FAULT_ENV
from repro.campaign.plan import (
    CampaignPlan,
    DEFAULT_FLEET_SHARD_SIZE,
    FleetShard,
    counter_jobs,
    fleet_jobs,
    grid_jobs,
    savings_jobs,
    static_jobs,
    sweep_jobs,
)
from repro.errors import CampaignError, CampaignExecutionError
from repro.execution import fleet_replay
from repro.execution.simulator import OperatingPoint
from repro.readex.tuning_model import TuningModel
from repro.workloads import registry

FAST_POLICY = RetryPolicy(max_retries=2, backoff_base_s=0.001, backoff_cap_s=0.01)


def tmm_json(app_name: str) -> str:
    app = registry.build(app_name)
    regions = [r.name for r in app.phase.children][:3]
    best = {"phase": OperatingPoint(2.5, 2.1, 24)}
    for i, name in enumerate(regions):
        best[name] = OperatingPoint(2.4 if i % 2 else 2.5, 2.0, 24)
    return TuningModel.from_best_configs(app_name, "phase", best).to_json()


def mixed_plan() -> CampaignPlan:
    """Every campaign mode across several apps."""
    jobs: list = []
    jobs += savings_jobs("Lulesh", label="default", runs=2, threads=24)
    jobs += savings_jobs(
        "Lulesh", label="rrl", runs=1, threads=24,
        controller="rrl", tuning_model=tmm_json("Lulesh"),
    )
    jobs += savings_jobs(
        "EP", label="static", runs=1, threads=24, controller="static",
        core_freq_ghz=2.2, uncore_freq_ghz=1.8,
    )
    jobs += grid_jobs(
        "FT", label="heatmap",
        points=[OperatingPoint(2.0, u, 24) for u in (1.6, 2.0, 2.4)],
    )
    jobs += static_jobs("Mcb", points=[OperatingPoint(2.2, 1.8, 24)])
    jobs += sweep_jobs("EP", threads=24)[:2]
    jobs += counter_jobs(
        "EP", threads=24, runs=1, counters=("PAPI_TOT_INS", "PAPI_L3_TCM")
    )
    return CampaignPlan(tuple(jobs))


def per_job(plan) -> dict:
    """The reference: every job priced alone by :func:`execute_job`."""
    return {job: execute_job(job) for job in plan}


def run_plan(tmp_path, name, plan, *, backend="jsonl", **kw):
    with ResultStore(str(tmp_path / name), backend=backend) as store:
        engine = CampaignEngine(store=store, retry_policy=FAST_POLICY)
        results = engine.run(plan, **kw)
        return results, {job: results[job] for job in plan}


@pytest.fixture
def fleet_calls(monkeypatch):
    """Member counts of every fleet-kernel invocation."""
    calls: list[int] = []
    real = fleet_replay.fleet_run

    def counting(members, **kwargs):
        calls.append(len(members))
        return real(members, **kwargs)

    monkeypatch.setattr(fleet_replay, "fleet_run", counting)
    return calls


class TestFleetStrategy:
    def test_serial_fleet_matches_per_job(self, tmp_path):
        plan = mixed_plan()
        _, got = run_plan(tmp_path, "serial.jsonl", plan)
        assert got == per_job(plan)

    def test_full_shard_plus_trailing_single_job(self, tmp_path, fleet_calls):
        """17 fleet-able jobs: one full shard through the kernel, and
        the single-job remainder priced per job (a fleet of its one
        member), both bit-identical."""
        plan = CampaignPlan(sweep_jobs("EP", threads=24)[:17])
        _, got = run_plan(tmp_path, "split.jsonl", plan)
        assert fleet_calls == [DEFAULT_FLEET_SHARD_SIZE, 1]
        assert got == per_job(plan)

    def test_store_written_per_job_recalls_under_fleet(self, tmp_path):
        plan = mixed_plan()
        path = str(tmp_path / "shared.jsonl")
        with ResultStore(path) as store:
            for job, payload in per_job(plan).items():
                store.put(topology_job_key(job, None), job.descriptor(), payload)
        with ResultStore(path) as store:
            results = CampaignEngine(store=store).run(plan)
        assert results.report.cached == len(plan)
        assert results.report.executed == 0

    def test_store_written_by_fleet_recalls_under_per_job(self, tmp_path):
        plan = mixed_plan()
        path = str(tmp_path / "shared.jsonl")
        with ResultStore(path) as store:
            CampaignEngine(store=store).run(plan)
        reference = {
            topology_job_key(job, None): payload
            for job, payload in per_job(plan).items()
        }
        assert _store_rows(path, "jsonl") == reference

    def test_counters_only_plan_under_fleet(self, tmp_path, fleet_calls):
        """Counter jobs are shard members like any other: two of them
        are one kernel invocation."""
        plan = CampaignPlan(
            counter_jobs(
                "EP", threads=24, runs=2, counters=("PAPI_TOT_INS",)
            )
        )
        _, got = run_plan(tmp_path, "counters.jsonl", plan)
        assert fleet_calls == [len(plan)]
        assert got == per_job(plan)


class TestSingleJobPlan:
    def test_one_savings_job_skips_the_fleet_kernel(self, fleet_calls):
        """The shape of a served TMM pricing: one RRL-controlled job
        runs per job — a fleet of one member, not a shard —
        byte-for-byte the :func:`execute_job` payload."""
        (job,) = savings_jobs(
            "Lulesh", label="dynamic", runs=1, threads=24,
            controller="rrl", tuning_model=tmm_json("Lulesh"),
            instrumented=True,
        )
        results = CampaignEngine().run([job])
        assert fleet_calls == [1]
        assert json.dumps(results[job], sort_keys=True) == json.dumps(
            execute_job(job), sort_keys=True
        )


class TestFailureIsolation:
    """One failing member of a shard is quarantined alone: the shard's
    members re-run per job, and the other fifteen are persisted."""

    BAD = 5

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_one_bad_member_quarantined_then_healed(
        self, tmp_path, monkeypatch, backend
    ):
        plan = CampaignPlan(sweep_jobs("EP", threads=24)[:16])
        assert len(plan) == DEFAULT_FLEET_SHARD_SIZE
        bad_key = topology_job_key(plan.jobs[self.BAD], None)
        monkeypatch.setenv(
            FAULT_ENV,
            json.dumps([{"action": "raise", "mode": "sweep",
                         "index": self.BAD, "attempts": "all"}]),
        )
        path = str(tmp_path / f"isolate.{backend}")
        with ResultStore(path, backend=backend) as store:
            engine = CampaignEngine(store=store, retry_policy=FAST_POLICY)
            results = engine.run(plan, on_failure="quarantine")
            assert results.report.failed == 1
            assert results.report.executed == len(plan) - 1
            assert set(results.failures) == {bad_key}
            assert store.summary()["quarantined"] == 1
        reference = {
            topology_job_key(job, None): payload
            for job, payload in per_job(plan).items()
        }
        rows = _store_rows(path, backend)
        assert rows == {k: v for k, v in reference.items() if k != bad_key}

        monkeypatch.delenv(FAULT_ENV)
        with ResultStore(path, backend=backend) as store:
            engine = CampaignEngine(store=store)
            healed = engine.run(plan, retry_failed=True)
        assert healed.report.executed == 1
        assert healed.report.failed == 0
        assert _store_rows(path, backend) == reference



class TestShardFailure:
    """A failed shard is not a job failure: under the default
    ``on_failure="raise"`` its members re-run per job, and the tasks
    its failure left unstarted still run."""

    def _fault_env(self, monkeypatch, directive):
        monkeypatch.setenv(FAULT_ENV, json.dumps([directive]))

    def test_shard_fault_runs_every_job(
        self, tmp_path, monkeypatch, fleet_calls
    ):
        plan = CampaignPlan(sweep_jobs("EP", threads=24))
        assert len(plan) > DEFAULT_FLEET_SHARD_SIZE + 1
        self._fault_env(
            monkeypatch,
            {"action": "raise", "mode": "fleet", "index": 0, "attempts": "all"},
        )
        with ResultStore(str(tmp_path / "shard.jsonl")) as store:
            engine = CampaignEngine(store=store, retry_policy=FAST_POLICY)
            results = engine.run(plan)
            got = {job: results[job] for job in plan}
        calls = sorted(fleet_calls)  # before per_job adds its own
        assert results.report.failed == 0
        assert results.report.executed == len(plan)
        assert got == per_job(plan)
        # the failed shard's jobs re-ran one by one (fleets of one) and
        # the second shard still ran through the kernel
        assert calls == [1] * DEFAULT_FLEET_SHARD_SIZE + [
            len(plan) - DEFAULT_FLEET_SHARD_SIZE
        ]

    def test_member_failure_raises_per_job_accounting(
        self, tmp_path, monkeypatch
    ):
        plan = CampaignPlan(sweep_jobs("EP", threads=24))
        keys = {topology_job_key(job, None): job for job in plan}
        bad_key = topology_job_key(plan.jobs[5], None)
        self._fault_env(
            monkeypatch,
            {"action": "raise", "mode": "sweep", "index": 5, "attempts": "all"},
        )
        with ResultStore(str(tmp_path / "raise.jsonl")) as store:
            engine = CampaignEngine(
                store=store, retry_policy=FAST_POLICY
            )
            with pytest.raises(CampaignExecutionError) as info:
                engine.run(plan)
        err = info.value
        assert set(err.failures) == {bad_key}
        completed, not_run = set(err.completed), set(err.not_run)
        assert not completed & not_run
        assert completed | not_run | {bad_key} == set(keys)
        assert bad_key not in completed | not_run
        # The failed shard's members re-run first, so the bad member
        # stops the run before the second shard starts.
        later = plan.jobs[DEFAULT_FLEET_SHARD_SIZE:]
        assert {topology_job_key(job, None) for job in later} <= not_run
        assert completed == {topology_job_key(j, None) for j in plan.jobs[:5]}
        reference = per_job(CampaignPlan(tuple(keys[k] for k in completed)))
        assert {keys[k]: v for k, v in err.completed.items()} == reference


class TestFleetSharding:
    def test_shards_partition_in_order(self):
        jobs = sweep_jobs("EP", threads=24)
        shards = fleet_jobs(list(jobs))
        sizes = [len(s) for s in shards]
        assert sizes[:-1] == [DEFAULT_FLEET_SHARD_SIZE] * (len(sizes) - 1)
        assert 1 <= sizes[-1] <= DEFAULT_FLEET_SHARD_SIZE
        assert tuple(j for s in shards for j in s) == jobs

    def test_empty_shard_rejected(self):
        with pytest.raises(CampaignError):
            FleetShard(jobs=())


def _store_rows(path, backend):
    with ResultStore(path, backend=backend) as store:
        return {
            r["key"]: r["result"]
            for r in store.iter_records()
            if r["job"].get("mode") != "failure"
        }
