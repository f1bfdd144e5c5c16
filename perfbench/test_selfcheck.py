"""Self-check of the benchmark at reduced scale (about a minute).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_selfcheck.py -q

Each workload runs briefly (the paper chain at ``--scale smoke``),
untraced and traced.  The checks: the last line is the result object
with every named metric and its unit, the output checks pass, and the
traced run writes trace-event JSON that Perfetto can load.  The guard
and the missing-program exit are checked too.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("paper-cold", "serve-mix")
SEED = 20190520


def _run(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report = _result(_run(["--workload", workload, "--seed", str(SEED),
                           "--seconds", "1", "--trace", "0",
                           "--scale", "smoke"]))
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] >= 1
    assert {k: v["unit"] for k, v in report["metrics"].items()} == metrics.END_TO_END
    assert all(v["value"] > 0 for v in report["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_trace_file(workload):
    trace_file = run.trace_path(workload, SEED)
    trace_file.unlink(missing_ok=True)
    report = _result(_run(["--workload", workload, "--seed", str(SEED),
                           "--seconds", "1", "--trace", "1",
                           "--scale", "smoke"]))
    assert report["correct"] and report["failed"] == 0
    assert {k: v["unit"] for k, v in report["metrics"].items()} == metrics.PER_LAYER
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] == "X"
        assert isinstance(event["name"], str)
        assert event["dur"] >= 0 and event["ts"] >= 0
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
    names = {event["name"] for event in events}
    if workload == "serve-mix":
        assert {"serve.request", "serve.answer_group"} <= names
        assert report["metrics"]["serve.execute_ms"]["value"] > 0
        assert report["metrics"]["serve.tail_ms"]["value"] > 0
    else:
        assert {"paper.pass", "modeling.loocv", "campaign.store_get"} <= names
        assert report["metrics"]["campaign.jobs_cached"]["value"] + \
            report["metrics"]["campaign.jobs_executed"]["value"] > 0


def test_refuses_fault_injection():
    env = dict(os.environ, REPRO_FAULT_INJECT="crash:stage=run")
    proc = _run(["--workload", "serve-mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "paper-cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
