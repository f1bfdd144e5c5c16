"""Per-run overhead guards for the engine's shared store and job path.

CI's performance gates compare a fast arm with an in-repo reference
arm, so a slowdown in code both arms share — key hashing, store I/O,
registry builds — passes them all.  These tests pin the per-run counts
instead: a cold multi-shard run hashes each job's store key once (plus
the store's key/descriptor check), reads the store in batches, writes
one transaction per shard and builds each application once per
process.
"""

import math
from collections import Counter

import pytest

from repro import config
from repro.campaign import engine as engine_module
from repro.campaign import store as store_module
from repro.campaign.engine import CampaignEngine, topology_job_key
from repro.campaign.plan import DEFAULT_FLEET_SHARD_SIZE, plan_dataset_campaign
from repro.campaign.resilience import failure_descriptor
from repro.campaign.store import ResultStore, job_key
from repro.workloads import registry


def shard_count(plan) -> int:
    return math.ceil(len(plan) / DEFAULT_FLEET_SHARD_SIZE)


@pytest.fixture(scope="module")
def plan():
    plan = plan_dataset_campaign(
        ("EP", "Mcb"), thread_counts=(24,), node_id=0, seed=config.DEFAULT_SEED
    )
    assert shard_count(plan) >= 3
    return plan


def test_one_write_transaction_per_shard(tmp_path, plan):
    with ResultStore(tmp_path / "store.sqlite") as store:
        statements: list[str] = []
        store._backend._connect().set_trace_callback(statements.append)
        CampaignEngine(store=store).run(plan)
        begins = [s for s in statements if s.startswith("BEGIN")]
        assert len(begins) == shard_count(plan)
        assert len(store) == len(plan)


def test_each_key_hashed_once_per_run(monkeypatch, plan):
    result_keys = {topology_job_key(job, None) for job in plan}
    failure_keys = {job_key(failure_descriptor(job.descriptor())) for job in plan}
    hashed: Counter = Counter()

    def counting(descriptor):
        key = job_key(descriptor)
        hashed[key] += 1
        return key

    monkeypatch.setattr(store_module, "job_key", counting)
    monkeypatch.setattr(engine_module, "job_key", counting)
    CampaignEngine(store=ResultStore()).run(plan)
    # The run's own hash, plus the store's key/descriptor check on write.
    assert {hashed[key] for key in result_keys} == {2}
    assert {hashed[key] for key in failure_keys} == {1}
    assert set(hashed) == result_keys | failure_keys


def test_each_app_built_once_per_run(monkeypatch, plan):
    """Registry builds are memoised per process: a second run of the
    plan builds nothing."""
    built: Counter = Counter()
    build = registry.build

    def counting(name):
        built[name] += 1
        return build(name)

    monkeypatch.setattr(registry, "build", counting)
    registry.stock.cache_clear()
    CampaignEngine().run(plan)
    CampaignEngine().run(plan)
    assert built == {"EP": 1, "Mcb": 1}
