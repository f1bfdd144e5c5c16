"""Shared, cached prerequisites for the benchmark harness.

Most benches read artefacts of the paper chain (the Figure 5 dataset,
the Table I selection, the deployed model, per-benchmark DTA outcomes,
Table V searches and Table VI rows).  :func:`paper` computes them with
one :func:`repro.paper.run_paper` call per pytest session, so a cold
session of a single bench runs the whole chain.  Its simulations and
trained models run through a shared
:class:`~repro.campaign.engine.CampaignEngine` backed by an on-disk
:class:`~repro.campaign.store.ResultStore`, so a *second* bench session
reuses the persisted results instead of re-simulating or retraining.

The store lives under ``benchmarks/.cache/`` by default; set
``REPRO_BENCH_CACHE_DIR`` to relocate it (tests use a temp dir),
``REPRO_BENCH_CACHE_BACKEND`` to pick the store backend
(``jsonl``/``sqlite``; default: an existing legacy JSONL
store is kept, fresh caches use indexed SQLite).  Bumping
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
"""

from __future__ import annotations

import atexit
import functools
import os
from pathlib import Path

from repro import config
from repro.campaign.engine import CampaignEngine
from repro.campaign.store import ResultStore
from repro.hardware.cluster import Cluster
from repro.paper import PaperResult, run_paper

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
def paper() -> PaperResult:
    """The whole paper chain on the harness cluster and store."""
    return run_paper(cluster(), engine=campaign_engine())
