"""Smoke test: the benchmark harness reuses persisted campaign results.

``benchmarks/_common.py`` routes all simulations through a shared
engine backed by an on-disk store, so artefacts built in one bench
session are reused (zero new simulations) by the next.  The test
simulates two sessions by clearing the harness caches and rebuilding
the engine from the same store directory.
"""

import numpy as np
import pytest

import benchmarks._common as common
from repro.modeling.dataset import build_dataset
from repro.paper import run_paper
from repro.workloads import registry


@pytest.fixture
def harness_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(common.CACHE_DIR_ENV, str(tmp_path))
    common.campaign_engine.cache_clear()
    yield tmp_path
    common.campaign_engine.cache_clear()


def small_artefact():
    """A scaled-down stand-in for the paper dataset artefact (same code
    path: build_dataset through the harness engine + store)."""
    return build_dataset(
        ("EP",),
        thread_counts=(24,),
        cluster=common.cluster(),
        engine=common.campaign_engine(),
    )


def test_cache_dir_env_override(harness_cache):
    assert common.cache_dir() == harness_cache


@pytest.mark.parametrize(
    "backend, name",
    [("jsonl", "campaign-store.jsonl"), ("sqlite", "campaign-store.sqlite")],
)
def test_cache_backend_env_picks_store(harness_cache, monkeypatch, backend, name):
    monkeypatch.setenv(common.CACHE_BACKEND_ENV, backend)
    assert common.store_path() == harness_cache / name


def test_cache_backend_env_rejects_unknown_backend(harness_cache, monkeypatch):
    monkeypatch.setenv(common.CACHE_BACKEND_ENV, "segment")
    with pytest.raises(ValueError, match="must be one of"):
        common.store_path()
    assert list(harness_cache.iterdir()) == []


def test_artefacts_reused_across_two_invocations(harness_cache):
    # Session one builds and persists everything.
    first_engine = common.campaign_engine()
    first = small_artefact()
    assert first_engine.total_executed == 17  # 3 counter runs + 14 sweep rows
    # Fresh cache directories get the indexed SQLite backend.
    assert first_engine.store.backend == "sqlite"
    assert (harness_cache / "campaign-store.sqlite").exists()

    # Session two: fresh engine + store over the same directory.
    first_engine.store.close()
    common.campaign_engine.cache_clear()
    second_engine = common.campaign_engine()
    assert second_engine is not first_engine
    second = small_artefact()
    assert second_engine.total_executed == 0  # all 17 jobs came from disk
    assert second_engine.total_cached == 17
    assert np.array_equal(first.features, second.features)
    assert np.array_equal(first.targets, second.targets)


def test_paper_chain_persists_to_harness_store(harness_cache):
    """``run_paper`` on the harness engine persists every job (and the
    trained models) to the harness store: a second session recalls it
    all and simulates nothing."""
    first_engine = common.campaign_engine()
    run_paper(common.cluster(), engine=first_engine, benchmarks=("EP", "Mcb"))
    assert first_engine.total_executed > 0

    first_engine.store.close()
    common.campaign_engine.cache_clear()
    second_engine = common.campaign_engine()
    run_paper(common.cluster(), engine=second_engine, benchmarks=("EP", "Mcb"))
    assert second_engine.total_executed == 0
    assert second_engine.total_cached > 0


def test_old_schema_cache_entry_surfaces_clear_error(harness_cache):
    """A harness store entry written under an older schema must fail
    with an actionable CampaignError when an artefact build recalls it,
    never a raw KeyError inside dataset assembly."""
    import json

    from repro.campaign.engine import topology_job_key
    from repro.campaign.plan import counter_jobs
    from repro.campaign.store import STORE_VERSION
    from repro.errors import CampaignError

    job = counter_jobs(
        "EP",
        threads=24,
        counters=("PAPI_TOT_INS",),
        runs=1,
        node_id=0,
        seed=common.cluster().seed,
    )[0]
    record = {
        "key": topology_job_key(job, None),
        "store_version": STORE_VERSION - 1,
        "job": job.descriptor(),
        "result": {"totals": {"PAPI_TOT_INS": 1.0}, "phase_time_s": 1.0},
    }
    (harness_cache / "campaign-store.jsonl").write_text(json.dumps(record) + "\n")
    common.campaign_engine.cache_clear()
    from repro.modeling.dataset import measure_counter_rates

    with pytest.raises(CampaignError, match="schema version"):
        measure_counter_rates(
            registry.build("EP"),
            common.cluster(),
            threads=24,
            counters=("PAPI_TOT_INS",),
            runs=1,
            engine=common.campaign_engine(),
        )


def test_pre_v2_store_re_simulates_silently(harness_cache):
    """A genuine pre-STORE_VERSION-2 store (records without a
    ``store_version`` field, keys hashed under the old version) must be
    treated as a cold cache: the artefact build re-simulates and
    persists current-schema results next to the dead records, which stay
    counted as stale — never a crash, never a stale payload served."""
    import hashlib
    import json

    from repro.campaign.plan import sweep_jobs

    job = sweep_jobs("EP", threads=24, node_id=0, seed=common.cluster().seed)[0]

    def v1_key(descriptor):
        payload = json.dumps({"store_version": 1, **descriptor}, sort_keys=True)
        return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()

    record = {
        "key": v1_key(job.descriptor()),
        "job": job.descriptor(),
        "result": {
            "uncore_freqs_ghz": list(job.uncore_freqs_ghz),
            "node_energy_j": [1.0], "cpu_energy_j": [1.0], "time_s": [1.0],
        },
    }
    (harness_cache / "campaign-store.jsonl").write_text(json.dumps(record) + "\n")
    common.campaign_engine.cache_clear()
    engine = common.campaign_engine()
    assert engine.store.stale_records == 1
    artefact = small_artefact()
    assert artefact.features.shape[0] > 0
    assert engine.total_executed == 17  # everything re-simulated
    assert engine.total_cached == 0


def test_quarantined_cache_entry_surfaces_clear_error(harness_cache):
    """A quarantine record in the harness store (left by an earlier
    ``--on-failure quarantine`` run) must fail an artefact build up
    front with a CampaignError naming the job and the retry_failed
    escape hatch — never a raw KeyError inside dataset assembly."""
    from repro.campaign import FailureRecord, ResultStore, failure_descriptor, job_key
    from repro.campaign.engine import qualified_descriptor
    from repro.campaign.plan import sweep_jobs
    from repro.errors import CampaignError

    job = sweep_jobs("EP", threads=24, node_id=0, seed=common.cluster().seed)[0]
    descriptor = qualified_descriptor(job, None)
    record = FailureRecord(
        job_store_key=job_key(descriptor),
        app=job.app,
        mode=job.mode,
        error_type="InjectedFault",
        error_message="seeded by test",
        kind="deterministic",
        attempts=3,
    )
    fdesc = failure_descriptor(descriptor)
    with ResultStore(harness_cache / "campaign-store.jsonl") as store:
        store.put(job_key(fdesc), fdesc, record.payload())
    common.campaign_engine.cache_clear()
    with pytest.raises(CampaignError, match="quarantined") as excinfo:
        small_artefact()
    # The message names the failing job and the recovery path.
    assert "EP" in str(excinfo.value)
    assert "retry-failed" in str(excinfo.value) or "retry_failed" in str(
        excinfo.value
    )


def test_stale_model_cache_entry_surfaces_campaign_error(harness_cache):
    """A recalled trained-model record whose payload predates the
    current parameter layout must surface the documented CampaignError
    naming the store file — historically this crashed mid-benchmark
    with a raw KeyError inside the network rebuild."""
    import json

    import numpy as np
    import pytest

    from repro.campaign.store import STORE_VERSION, job_key
    from repro.errors import CampaignError
    from repro.modeling.model_cache import (
        dataset_digest,
        train_network_cached,
        training_descriptor,
    )
    from repro.modeling.training import TrainingConfig

    rng = np.random.default_rng(0)
    features, targets = rng.normal(size=(40, 5)), rng.normal(size=40)
    config = TrainingConfig(epochs=1)
    descriptor = training_descriptor(dataset_digest(features, targets), config)
    record = {
        "key": job_key(descriptor),
        "store_version": STORE_VERSION,
        "job": descriptor,
        # Top-level keys present, but the inner network layout is old.
        "result": {"network": {"legacy_weights": []}, "scaler": {}, "losses": []},
    }
    (harness_cache / "campaign-store.jsonl").write_text(json.dumps(record) + "\n")
    common.campaign_engine.cache_clear()
    store = common.campaign_engine().store
    with pytest.raises(CampaignError, match="older store schema"):
        train_network_cached(features, targets, config=config, store=store)
