"""Campaign ``counters`` jobs against the recursive engine.

A counters job is a shard member like any other job: one
instrumented run at the calibration point, whose phase counter totals
are read from the member's priced run.  :func:`execute_job` prices a
lone job the same way, so a per-job reference cannot catch a counters
error; the recursive engine can.  Its reference runs on a fresh node
set to the calibration point, with a listener summing the phase
region's inclusive counters.
"""

import pytest

from repro.campaign.engine import CampaignEngine
from repro.campaign.plan import counter_jobs
from repro.counters.papi import TABLE1_COUNTERS, preset
from repro.hardware.node import ComputeNode
from repro.workloads import registry
from tests.oracles.engine import PhaseCounterCollector, recursive_run

#: The paper's Table I counters, plus one no preset defines.
COUNTERS = tuple(preset(c).name for c in TABLE1_COUNTERS) + ("NOT_A_COUNTER",)


def recursive_counters(job) -> tuple[dict[str, float], float]:
    """The job's phase counter totals and phase time on the recursive
    engine."""
    node = ComputeNode(job.node_id, seed=job.seed)
    node.set_frequencies(job.core_freq_ghz, job.uncore_freq_ghz)
    collector = PhaseCounterCollector(job.counters)
    recursive_run(
        node,
        registry.build(job.app),
        seed=job.seed,
        threads=job.threads,
        listeners=(collector,),
        collect_counters=True,
        run_key=job.run_key(),
    )
    return collector.totals, collector.phase_time


@pytest.fixture(scope="module")
def priced():
    """One counters job per registry benchmark, priced by the engine."""
    jobs = tuple(
        counter_jobs(
            name, threads=None, counters=COUNTERS, runs=2,
            node_id=1, seed=9,
        )[1]
        for name in registry.benchmark_names()
    )
    results = CampaignEngine().run(jobs)
    return {job.app: (job, results[job]) for job in jobs}


@pytest.mark.parametrize("app_name", registry.benchmark_names())
def test_shard_counters_match_recursive_engine(priced, app_name):
    job, payload = priced[app_name]
    totals, phase_time_s = recursive_counters(job)
    assert payload == {"totals": totals, "phase_time_s": phase_time_s}
    assert payload["totals"]["NOT_A_COUNTER"] == 0.0
    assert list(payload["totals"]) == list(COUNTERS)
