"""Experiment-campaign engine with an on-disk result store.

A *campaign* is the cross-product of applications, operating points and
instrumentation modes that an experiment needs — the training-data
acquisition sweep of Section IV-A, the exhaustive static search of
Section V-D, or any ad-hoc grid.  This package splits such a campaign
into three orthogonal pieces:

:mod:`repro.campaign.plan`
    Declarative job descriptions (:class:`CampaignJob`) and planners
    that expand benchmark lists into full job grids
    (:class:`CampaignPlan`).
:mod:`repro.campaign.store`
    A content-addressed result store (:class:`ResultStore`): every job
    result is keyed by a hash of its full descriptor (app, operating
    point, node, seeds, mode), so repeated benches and LOOCV retraining
    hit the cache instead of re-simulating.  Storage is pluggable
    (:mod:`repro.campaign.backends`): the compatibility JSON-lines
    file or an indexed SQLite database (WAL, concurrent multi-process
    writers) — auto-detected from the store path, convertible with
    :func:`migrate_store`.
:mod:`repro.campaign.engine`
    The executor (:class:`CampaignEngine`): prices the uncached jobs of
    a plan in-process, in fleet-kernel shards.  Because every
    stochastic quantity in the simulator draws from a stream keyed by
    :func:`repro.util.rng.rng_for`, a job's payload is bit-identical
    however it is batched.

The three hot consumers — :func:`repro.modeling.dataset.build_dataset`,
:func:`repro.ptf.static_tuning.exhaustive_static_search` and the
benchmark harness (``benchmarks/_common.py``) — are built on top of this
package, and the ``repro-campaign`` CLI (see ``docs/cli.md``) exposes
plan/run/status subcommands for warming and inspecting stores.
"""

from repro.campaign.engine import (
    CampaignEngine,
    CampaignReport,
    CampaignResults,
    engine_for,
    execute_job,
    qualified_descriptor,
    run_app_jobs,
    topology_job_key,
)
from repro.campaign.resilience import (
    ON_FAILURE_POLICIES,
    FailureRecord,
    failure_descriptor,
)
from repro.campaign.plan import (
    CampaignJob,
    CampaignPlan,
    counter_jobs,
    plan_dataset_campaign,
    plan_static_campaign,
    static_operating_points,
    static_search_jobs,
    sweep_jobs,
    sweep_operating_points,
    thread_series,
)
from repro.campaign.backends import (
    BACKEND_KINDS,
    StoreBackend,
    detect_backend_kind,
    open_backend,
)
from repro.campaign.store import (
    STORE_VERSION,
    ResultStore,
    job_key,
    migrate_store,
)

__all__ = [
    "BACKEND_KINDS",
    "CampaignEngine",
    "CampaignJob",
    "CampaignPlan",
    "CampaignReport",
    "CampaignResults",
    "FailureRecord",
    "ON_FAILURE_POLICIES",
    "ResultStore",
    "STORE_VERSION",
    "StoreBackend",
    "failure_descriptor",
    "counter_jobs",
    "detect_backend_kind",
    "engine_for",
    "execute_job",
    "job_key",
    "migrate_store",
    "open_backend",
    "plan_dataset_campaign",
    "plan_static_campaign",
    "qualified_descriptor",
    "run_app_jobs",
    "topology_job_key",
    "static_operating_points",
    "static_search_jobs",
    "sweep_jobs",
    "sweep_operating_points",
    "thread_series",
]
