"""Shared, cached prerequisites for the benchmark harness.

Several benches need the same expensive artefacts (the full training
dataset, the deployed model, per-benchmark DTA outcomes).  They are
built once per pytest session and cached here; the underlying
simulations additionally run through a shared
:class:`~repro.campaign.engine.CampaignEngine` backed by an on-disk
:class:`~repro.campaign.store.ResultStore`, so a *second* bench session
reuses the persisted results instead of re-simulating — only the
computation belonging to each table/figure is measured.

The store lives under ``benchmarks/.cache/`` by default; set
``REPRO_BENCH_CACHE_DIR`` to relocate it (tests use a temp dir),
``REPRO_BENCH_CACHE_BACKEND`` to pick the store backend
(``jsonl``/``sqlite``; default: an existing legacy JSONL
store is kept, fresh caches use indexed SQLite).  Cold-cache
sessions additionally benefit from the simulator's vectorized replay
fast path (see ``benchmarks/bench_sim_throughput.py`` for the measured
per-run speedup).  Trained models are cached in the same store
(content-addressed by dataset digest + hyper-parameters), so warm
sessions rebuild the deployed model without an ADAM step.  Bumping
:data:`~repro.campaign.store.STORE_VERSION` re-keys the cache, so a
store from an older release silently re-simulates (its dead records are
counted by ``repro-campaign status``; delete the file to reclaim the
space).  An entry that *is* recalled but does not match the current
result schema surfaces as a clear
:class:`~repro.errors.CampaignError` naming the store file to delete —
never as a raw ``KeyError`` inside dataset assembly.  The same holds
for quarantined jobs (persisted
:class:`~repro.campaign.resilience.FailureRecord` entries left by an
earlier ``--on-failure quarantine`` run): an artefact build whose plan
touches one fails up front with a CampaignError naming the job and
advising ``retry_failed=True`` / deleting the cache, instead of
crashing inside dataset assembly.

Training configuration mirrors Section V-B: the deployed model trains on
the 14 training benchmarks for ten epochs; the LOOCV study retrains with
five epochs per held-out benchmark.
"""

from __future__ import annotations

import atexit
import functools
import os
from pathlib import Path

from repro import config
from repro.api import ExecutionOptions
from repro.campaign.engine import CampaignEngine
from repro.campaign.store import ResultStore
from repro.hardware.cluster import Cluster
from repro.modeling.dataset import EnergyDataset, build_dataset
from repro.modeling.model_cache import train_network_cached
from repro.modeling.training import TrainedModel, TrainingConfig
from repro.ptf.framework import PeriscopeTuningFramework, TuningOutcome
from repro.ptf.static_tuning import StaticTuningResult, exhaustive_static_search
from repro.workloads import registry

#: Paper hyper-parameters (Section V-B).
LOOCV_EPOCHS = 5
DEPLOYED_EPOCHS = 10

#: Environment override for the on-disk campaign store location.
CACHE_DIR_ENV = "REPRO_BENCH_CACHE_DIR"

#: Environment override for the store backend (jsonl/sqlite).
CACHE_BACKEND_ENV = "REPRO_BENCH_CACHE_BACKEND"

#: Store filename per backend.
_STORE_NAMES = {
    "jsonl": "campaign-store.jsonl",
    "sqlite": "campaign-store.sqlite",
}


def cache_dir() -> Path:
    """Where the benchmark harness persists campaign results."""
    return Path(
        os.environ.get(CACHE_DIR_ENV, Path(__file__).parent / ".cache")
    )


def store_path() -> Path:
    """The harness store location, honouring the backend env var.

    Without an explicit ``$REPRO_BENCH_CACHE_BACKEND``, an existing
    legacy JSONL store keeps being used (warm caches stay warm); fresh
    cache directories get the indexed SQLite backend, whose cold-open
    cost stays flat as the store grows into the millions of records.
    """
    backend = os.environ.get(CACHE_BACKEND_ENV)
    if backend is None:
        legacy = cache_dir() / _STORE_NAMES["jsonl"]
        if legacy.exists():
            return legacy
        backend = "sqlite"
    if backend not in _STORE_NAMES:
        raise ValueError(
            f"{CACHE_BACKEND_ENV} must be one of {sorted(_STORE_NAMES)}, "
            f"got {backend!r}"
        )
    return cache_dir() / _STORE_NAMES[backend]


@functools.lru_cache(maxsize=1)
def campaign_engine() -> CampaignEngine:
    """The harness-wide engine over the persistent result store.

    The store is closed at interpreter exit so handles never dangle
    (`ResultStore` is also a context manager; the harness keeps one
    open per session instead).
    """
    store = ResultStore(
        store_path(), backend=os.environ.get(CACHE_BACKEND_ENV)
    )
    atexit.register(store.close)
    return CampaignEngine(store=store)


@functools.lru_cache(maxsize=1)
def cluster() -> Cluster:
    return Cluster(8, seed=config.DEFAULT_SEED)


@functools.lru_cache(maxsize=1)
def full_dataset() -> EnergyDataset:
    """All 19 benchmarks, full thread sweep (the Figure 5 dataset)."""
    return build_dataset(
        registry.benchmark_names(), cluster=cluster(), engine=campaign_engine()
    )


@functools.lru_cache(maxsize=1)
def training_dataset() -> EnergyDataset:
    """The 14 training benchmarks only (deployed-model training set)."""
    return full_dataset().subset(registry.training_benchmarks())


@functools.lru_cache(maxsize=1)
def deployed_model() -> TrainedModel:
    """The model shipped in the tuning plugin (Section V-B).

    The paper trains a single network for ten epochs; the seed is fixed
    for reproducibility.  Weights are cached in the harness store, so a
    warm session rebuilds the bit-identical model from disk.
    """
    ds = training_dataset()
    return train_network_cached(
        ds.features,
        ds.targets,
        config=TrainingConfig(epochs=DEPLOYED_EPOCHS, seed=0),
        store=campaign_engine().store,
    )


@functools.lru_cache(maxsize=8)
def tuned_outcome(benchmark: str) -> TuningOutcome:
    """Full design-time analysis for one evaluation benchmark."""
    framework = PeriscopeTuningFramework(cluster(), deployed_model())
    return framework.tune(benchmark)


@functools.lru_cache(maxsize=8)
def static_result(benchmark: str) -> StaticTuningResult:
    """Exhaustive static search on the full grid (Table V)."""
    return exhaustive_static_search(
        registry.build(benchmark),
        cluster(),
        options=ExecutionOptions(campaign=campaign_engine()),
    )
