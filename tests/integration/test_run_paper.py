"""``repro.paper.run_paper`` against perfbench's own composition.

perfbench (``perfbench/paper.py``) composes the paper chain stage by
stage itself and hashes every artefact of a pass bit-exactly.  Its
``run_pass`` is the independent checker here: at two seeds, over a
reduced benchmark set at the epochs and runs of perfbench's full scale
(the paper's), the artefact digest of ``run_paper``'s result equals
that of ``run_pass``'s.  A second ``run_paper`` on the filled store
simulates nothing and gives the same digest.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from repro.campaign.engine import CampaignEngine
from repro.campaign.store import ResultStore
from repro.hardware.cluster import Cluster
from repro.paper import run_paper

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
BENCHMARKS = ("EP", "CG", "Mcb")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``paper`` module (its imports are top-level names)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("paper")
    finally:
        sys.path.remove(str(PERFBENCH))


def paper_digest(perfbench, result, engine) -> str:
    return perfbench.digest(
        perfbench.PassResult(
            **vars(result),
            jobs_executed=engine.total_executed,
            jobs_cached=engine.total_cached,
        )
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_run_paper_digest_equals_perfbench_pass(perfbench, tmp_path, seed):
    scale = dataclasses.replace(
        perfbench.FULL, benchmarks=BENCHMARKS, evaluation=("Mcb",)
    )
    checker = perfbench.run_pass(
        seed, tmp_path / "perfbench.sqlite", scale, perfbench.Tracer()
    )
    expected = perfbench.digest(checker)

    cluster = Cluster(8, seed=seed)
    with ResultStore(tmp_path / "paper.sqlite") as store:
        cold = CampaignEngine(store=store)
        result = run_paper(cluster, engine=cold, benchmarks=BENCHMARKS)
        assert paper_digest(perfbench, result, cold) == expected
        assert cold.total_executed == checker.jobs_executed

        warm = CampaignEngine(store=store)
        recalled = run_paper(cluster, engine=warm, benchmarks=BENCHMARKS)
        assert warm.total_executed == 0
        assert warm.total_cached == cold.total_executed + cold.total_cached
        assert paper_digest(perfbench, recalled, warm) == expected


def test_full_paper_pass_job_count(tmp_path):
    """The whole chain on an empty store: every plain run is a grid
    row, so the pass simulates 1,627 jobs, and a second pass none."""
    cluster = Cluster(8, seed=1)
    with ResultStore(tmp_path / "paper.sqlite") as store:
        cold = CampaignEngine(store=store)
        run_paper(cluster, engine=cold)
        assert (cold.total_executed, cold.total_cached) == (1627, 0)
        warm = CampaignEngine(store=store)
        run_paper(cluster, engine=warm)
        assert (warm.total_executed, warm.total_cached) == (0, 1627)
