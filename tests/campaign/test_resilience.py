"""The fault-tolerance layer: taxonomy, retries, quarantine, drain/resume.

Fast tests exercise the pure pieces (classification, deterministic
backoff, failure records, manifests, the serial retry loop) and the
engine's quarantine lifecycle in-process.  The ``chaos``-marked tests
(excluded from the default run, selected with ``pytest -m chaos``) send
real signals to CLI campaigns: a SIGTERM-drained campaign resumed
through the CLI is bit-identical to an uninterrupted one on every store
backend.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import config
from repro.campaign import (
    CampaignEngine,
    FailureRecord,
    ResultStore,
    ResumeManifest,
    RetryPolicy,
    failure_descriptor,
    job_key,
)
from repro.campaign.faultinject import (
    FAULT_ENV,
    FaultDirective,
    InjectedFault,
    InjectedTransientFault,
    active_schedule,
    maybe_fault,
)
from repro.campaign.plan import MODES, sweep_jobs
from repro.campaign.resilience import (
    backoff_s,
    classify,
    run_resilient_serial,
)
from repro.errors import CampaignError, CampaignExecutionError

FAST_POLICY = RetryPolicy(max_retries=2, backoff_base_s=0.001, backoff_cap_s=0.01)


# ---------------------------------------------------------------------------
# Taxonomy + backoff
# ---------------------------------------------------------------------------

class TestClassify:
    def test_transient_types(self):
        for exc in (OSError("disk hiccup"), EOFError()):
            assert classify(exc) == "transient"

    def test_deterministic_default(self):
        assert classify(ValueError("bad input")) == "deterministic"
        assert classify(InjectedFault("boom")) == "deterministic"

    def test_repro_transient_attribute_wins(self):
        assert classify(InjectedTransientFault("flaky")) == "transient"
        exc = RuntimeError("custom")
        exc.repro_transient = True
        assert classify(exc) == "transient"


class TestBackoff:
    def test_deterministic_per_token_and_attempt(self):
        policy = RetryPolicy()
        assert backoff_s("job-a", 1, policy) == backoff_s("job-a", 1, policy)
        assert backoff_s("job-a", 1, policy) != backoff_s("job-b", 1, policy)
        assert backoff_s("job-a", 1, policy) != backoff_s("job-a", 2, policy)

    def test_jitter_bounds_and_cap(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
        for attempt in range(1, 8):
            delay = backoff_s("k", attempt, policy)
            base = 0.1 * 2 ** (attempt - 1)
            assert delay <= 0.5
            assert delay >= min(0.5, base * 0.5)

    def test_policy_validation(self):
        with pytest.raises(CampaignError):
            RetryPolicy(max_retries=-1)


# ---------------------------------------------------------------------------
# Failure records
# ---------------------------------------------------------------------------

class TestFailureRecord:
    RECORD = FailureRecord(
        job_store_key="abc123",
        app="EP",
        mode="grid",
        error_type="InjectedFault",
        error_message="boom",
        kind="deterministic",
        attempts=3,
    )

    def test_payload_roundtrip(self):
        assert FailureRecord.from_payload(self.RECORD.payload()) == self.RECORD

    def test_malformed_payload_is_clear_error(self):
        with pytest.raises(CampaignError, match="malformed failure record"):
            FailureRecord.from_payload({"app": "EP"})

    def test_describe_names_job_and_error(self):
        text = self.RECORD.describe()
        assert "EP/grid" in text
        assert "InjectedFault" in text
        assert "3 attempt" in text

    def test_failure_key_never_collides_with_result_key(self):
        job = sweep_jobs("EP", threads=24, node_id=0, seed=config.DEFAULT_SEED)[0]
        descriptor = job.descriptor()
        fdesc = failure_descriptor(descriptor)
        assert fdesc["mode"] == "failure"
        assert job_key(fdesc) != job_key(descriptor)


# ---------------------------------------------------------------------------
# Fault-injection harness
# ---------------------------------------------------------------------------

class TestFaultInject:
    def test_inactive_when_env_unset(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        assert active_schedule() == ()
        maybe_fault(app="EP", index=0)  # no-op

    def test_inline_json_and_single_dict(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, '{"action": "raise", "index": 3}')
        (directive,) = active_schedule()
        assert directive.action == "raise"
        assert directive.index == 3
        assert directive.attempts == (0,)

    def test_schedule_file(self, monkeypatch, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text('[{"action": "delay", "delay_s": 0.0, "attempts": "all"}]')
        monkeypatch.setenv(FAULT_ENV, str(path))
        (directive,) = active_schedule()
        assert directive.action == "delay"
        assert directive.attempts is None  # "all"

    def test_unknown_action_rejected(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, '[{"action": "explode"}]')
        with pytest.raises(CampaignError, match="unknown fault action"):
            active_schedule()

    @pytest.mark.parametrize("mode", ["counters", "savings", "grid", "fleet"])
    def test_known_modes_parse(self, monkeypatch, mode):
        monkeypatch.setenv(FAULT_ENV, json.dumps({"action": "raise", "mode": mode}))
        (directive,) = active_schedule()
        assert directive.mode == mode

    @pytest.mark.parametrize("mode", ["sweep", "static", "bogus"])
    def test_unknown_mode_rejected(self, monkeypatch, mode):
        """A directive for a mode no job has would never fire."""
        monkeypatch.setenv(FAULT_ENV, json.dumps({"action": "raise", "mode": mode}))
        with pytest.raises(CampaignError, match="unknown fault mode") as excinfo:
            active_schedule()
        message = str(excinfo.value)
        assert repr(mode) in message
        assert all(known in message for known in MODES + ("fleet",))

    def test_unknown_error_rejected(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, '[{"action": "raise", "error": "flaky"}]')
        with pytest.raises(CampaignError, match="unknown fault error") as excinfo:
            active_schedule()
        assert "'deterministic', 'transient'" in str(excinfo.value)

    def test_matching_is_keyed_and_attempt_scoped(self):
        directive = FaultDirective(action="raise", app="EP", index=1, attempts=(0,))
        assert directive.matches("EP", "grid", 1, 0)
        assert not directive.matches("EP", "grid", 1, 1)  # retry passes
        assert not directive.matches("CG", "grid", 1, 0)

    def test_transient_vs_deterministic_raise(self, monkeypatch):
        monkeypatch.setenv(
            FAULT_ENV, '[{"action": "raise", "error": "transient"}]'
        )
        with pytest.raises(InjectedTransientFault):
            maybe_fault(app="EP", index=0)
        monkeypatch.setenv(FAULT_ENV, '[{"action": "raise"}]')
        with pytest.raises(InjectedFault) as excinfo:
            maybe_fault(app="EP", index=0)
        assert not isinstance(excinfo.value, InjectedTransientFault)


# ---------------------------------------------------------------------------
# Serial retry loop
# ---------------------------------------------------------------------------

class TestSerialLoop:
    def test_transient_failure_retried_to_success(self):
        calls = []

        def flaky(name, attempt):
            calls.append((name, attempt))
            if attempt == 0:
                raise InjectedTransientFault("first attempt dies")
            return f"{name}-ok"

        outcome = run_resilient_serial(["t1", "t2"], flaky, policy=FAST_POLICY)
        assert outcome.results == {"t1": "t1-ok", "t2": "t2-ok"}
        assert outcome.retried == 2
        assert not outcome.failures
        assert calls == [("t1", 0), ("t1", 1), ("t2", 0), ("t2", 1)]

    def test_deterministic_failure_fails_fast(self):
        def run(task, attempt):
            if task == "bad":
                raise ValueError("always broken")
            return 42

        outcome = run_resilient_serial(["bad", "good"], run, policy=FAST_POLICY)
        assert outcome.results == {"good": 42}
        failure = outcome.failures["bad"]
        assert failure.kind == "deterministic"
        assert failure.attempts == 1  # never retried
        assert outcome.retried == 0

    def test_retries_are_bounded(self):
        attempts = []

        def always_flaky(task, attempt):
            attempts.append(attempt)
            raise InjectedTransientFault("never succeeds")

        outcome = run_resilient_serial(["t"], always_flaky, policy=FAST_POLICY)
        assert attempts == [0, 1, 2]  # 1 + max_retries
        assert outcome.failures["t"].attempts == 3
        assert outcome.failures["t"].kind == "transient"


# ---------------------------------------------------------------------------
# Engine integration: quarantine lifecycle (serial, in-process faults)
# ---------------------------------------------------------------------------

class TestQuarantineLifecycle:
    JOBS = 3

    def _engine(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        return CampaignEngine(
            store=store, retry_policy=FAST_POLICY
        )

    def _plan(self):
        jobs = sweep_jobs("EP", threads=24, node_id=0, seed=config.DEFAULT_SEED)
        return jobs[: self.JOBS]

    def test_full_lifecycle(self, tmp_path, monkeypatch):
        # 1. A deterministically failing job is quarantined.
        monkeypatch.setenv(
            FAULT_ENV, '[{"action": "raise", "index": 0, "attempts": "all"}]'
        )
        engine = self._engine(tmp_path)
        results = engine.run(self._plan(), on_failure="quarantine")
        assert results.report.failed == 1
        assert results.report.executed == self.JOBS - 1
        assert len(results.failures) == 1

        # Looking up the failed job's payload is a clear error, not KeyError.
        (failed_key,) = results.failures
        with pytest.raises(CampaignError, match="retry"):
            results[failed_key]

        # The store summary surfaces the quarantine record.
        assert engine.store.summary()["quarantined"] == 1

        # 2. A re-run skips the quarantined job without burning retries.
        monkeypatch.delenv(FAULT_ENV)
        engine2 = self._engine(tmp_path)
        results2 = engine2.run(self._plan(), on_failure="quarantine")
        assert results2.report.quarantined == 1
        assert results2.report.executed == 0
        assert results2.report.cached == self.JOBS - 1

        # 3. The default raise policy refuses up front, naming the cure.
        with pytest.raises(CampaignExecutionError, match="retry"):
            self._engine(tmp_path).run(self._plan())

        # 4. retry_failed re-attempts and heals the job.
        engine3 = self._engine(tmp_path)
        results3 = engine3.run(self._plan(), retry_failed=True)
        assert results3.report.executed == 1
        assert results3.report.failed == 0

        # 5. Healed: the stale failure record no longer matters.
        engine4 = self._engine(tmp_path)
        results4 = engine4.run(self._plan())
        assert results4.report.cached == self.JOBS
        assert results4.report.executed == 0

    def test_skip_policy_persists_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            FAULT_ENV, '[{"action": "raise", "index": 0, "attempts": "all"}]'
        )
        engine = self._engine(tmp_path)
        results = engine.run(self._plan(), on_failure="skip")
        assert results.report.failed == 1
        assert engine.store.summary()["quarantined"] == 0

    def test_serial_partial_completion_in_raise(self, tmp_path, monkeypatch):
        """Satellite: the serial path reports partial completion in the
        raised error and leaves persisted work consistent."""
        monkeypatch.setenv(
            FAULT_ENV, '[{"action": "raise", "index": 1, "attempts": "all"}]'
        )
        engine = self._engine(tmp_path)
        with pytest.raises(CampaignExecutionError) as excinfo:
            engine.run(self._plan(), on_failure="raise")
        err = excinfo.value
        assert len(err.failures) == 1
        # raise policy stops submissions on the first definitive
        # failure: job 0 completed, job 1 failed, job 2 never ran.
        assert len(err.completed) == 1
        assert len(err.not_run) == 1
        assert isinstance(err.__cause__, InjectedFault)
        # Completed work is on disk and is reused by the next run.
        monkeypatch.delenv(FAULT_ENV)
        results = self._engine(tmp_path).run(self._plan())
        assert results.report.cached == 1
        assert results.report.executed == self.JOBS - 1


# ---------------------------------------------------------------------------
# Resume manifests
# ---------------------------------------------------------------------------

class TestResumeManifest:
    MANIFEST = ResumeManifest(
        store="/tmp/s.sqlite",
        planned=5,
        completed=("k1", "k2"),
        quarantined=("k3",),
        pending=("k4", "k5"),
        signal_name="SIGTERM",
    )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.resume.json"
        self.MANIFEST.save(path)
        assert ResumeManifest.load(path) == self.MANIFEST

    def test_missing_manifest_is_clear_error(self, tmp_path):
        with pytest.raises(CampaignError, match="nothing to resume"):
            ResumeManifest.load(tmp_path / "absent.json")

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.resume.json"
        payload = json.loads(
            json.dumps(
                {
                    "manifest_version": 999,
                    "store": None,
                    "planned": 0,
                    "completed": [],
                    "quarantined": [],
                    "pending": [],
                    "signal": "drain",
                }
            )
        )
        path.write_text(json.dumps(payload))
        with pytest.raises(CampaignError, match="version"):
            ResumeManifest.load(path)

    def test_corrupt_manifest_is_clear_error(self, tmp_path):
        path = tmp_path / "m.resume.json"
        path.write_text("{ not json")
        with pytest.raises(CampaignError, match="unreadable"):
            ResumeManifest.load(path)


# ---------------------------------------------------------------------------
# Chaos suite: real signals (pytest -m chaos)
# ---------------------------------------------------------------------------

BACKENDS = ("jsonl", "sqlite")


def _store_arg(tmp_path, backend):
    return str(tmp_path / f"store.{backend}")


def _payloads(store_path, backend):
    """key -> result payload for every non-failure record in a store."""
    with ResultStore(store_path, backend=backend) as store:
        return {
            r["key"]: r["result"]
            for r in store.iter_records()
            if r["job"].get("mode") != "failure"
        }


_CLI = "from repro.tools.cli import main_campaign; import sys; sys.exit(main_campaign(sys.argv[1:]))"


def _cli_env(extra=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FAULT_ENV, None)
    if extra:
        env.update(extra)
    return env


def _run_cli(args, env, **kw):
    return subprocess.run(
        [sys.executable, "-c", _CLI, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        **kw,
    )


@pytest.mark.chaos
class TestChaosDrainResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sigterm_drain_then_cli_resume_bit_identical(self, tmp_path, backend):
        """SIGTERM drains a running CLI campaign (exit 130 + manifest);
        ``--resume`` finishes it; the store ends bit-identical to an
        uninterrupted run of the same campaign."""
        flags = ["--benchmarks", "EP", "--threads", "24"]

        # Reference: uninterrupted run.
        ref_path = _store_arg(tmp_path / "ref", backend)
        r = _run_cli(
            ["run", "--store", ref_path, "--backend", backend, *flags],
            _cli_env(),
        )
        assert r.returncode == 0, r.stdout + r.stderr
        reference = _payloads(ref_path, backend)

        # Interrupted run: every job slowed so SIGTERM lands mid-flight.
        store_path = _store_arg(tmp_path, backend)
        manifest = Path(store_path + ".resume.json")
        env = _cli_env(
            {FAULT_ENV: '[{"action": "delay", "delay_s": 0.3, "attempts": "all"}]'}
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _CLI,
                "run",
                "--store",
                store_path,
                "--backend",
                backend,
                *flags,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        time.sleep(2.5)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 130, out
        assert "drained on SIGTERM" in out
        assert manifest.exists(), out
        payload = json.loads(manifest.read_text())
        assert payload["planned"] == 17
        assert 0 < len(payload["completed"]) < 17
        assert len(payload["pending"]) == 17 - len(payload["completed"])

        # Partial progress really is on disk.
        partial = _payloads(store_path, backend)
        assert set(partial) == set(payload["completed"])
        assert all(partial[k] == reference[k] for k in partial)

        # Resume (no faults) completes the campaign and cleans up.
        r = _run_cli(
            [
                "run",
                "--store",
                store_path,
                "--backend",
                backend,
                "--resume",
                *flags,
            ],
            _cli_env(),
        )
        assert r.returncode == 0, r.stdout + r.stderr
        assert "resuming:" in r.stdout
        assert not manifest.exists()

        # The headline guarantee: bit-identical to the uninterrupted run.
        assert _payloads(store_path, backend) == reference

    def test_resume_refuses_a_different_plan(self, tmp_path):
        store_path = str(tmp_path / "store.sqlite")
        manifest = ResumeManifest(
            store=store_path,
            planned=2,
            completed=("k1",),
            quarantined=(),
            pending=("k2",),
        )
        manifest.save(store_path + ".resume.json")
        r = _run_cli(
            [
                "run",
                "--store",
                store_path,
                "--resume",
                "--benchmarks",
                "EP",
                "--threads",
                "24",
            ],
            _cli_env(),
        )
        assert r.returncode == 2
        assert "different campaign" in r.stderr
