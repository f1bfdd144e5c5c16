"""The fault-tolerance layer: taxonomy, retries, quarantine, drain/resume.

Fast tests exercise the pure pieces (classification, deterministic
backoff, failure records), the engine's task loop (retries, fail-fast,
the retry bound), its quarantine lifecycle and in-process SIGINT/SIGTERM drains.  The
``chaos``-marked tests (excluded from the default run, selected with
``pytest -m chaos``) send real signals to CLI campaigns: a
SIGTERM-drained campaign finished by re-running the same command is
bit-identical to an uninterrupted one on every store backend.
"""

import json
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import config
from repro.campaign import (
    CampaignEngine,
    FailureRecord,
    ResultStore,
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
from repro.campaign.plan import MODES, plan_dataset_campaign, sweep_jobs
from repro.campaign import resilience
from repro.campaign.resilience import (
    DrainFlag,
    backoff_s,
    classify,
    graceful_drain,
)
from repro.campaign import engine as engine_module
from repro.errors import CampaignError, CampaignExecutionError, CampaignInterrupted
from repro.tools.cli import main_campaign


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
        assert backoff_s("job-a", 1) == backoff_s("job-a", 1)
        assert backoff_s("job-a", 1) != backoff_s("job-b", 1)
        assert backoff_s("job-a", 1) != backoff_s("job-a", 2)

    def test_jitter_bounds_and_cap(self, monkeypatch):
        monkeypatch.setattr(resilience, "BACKOFF_BASE_S", 0.1)
        monkeypatch.setattr(resilience, "BACKOFF_CAP_S", 0.5)
        for attempt in range(1, 8):
            delay = backoff_s("k", attempt)
            base = 0.1 * 2 ** (attempt - 1)
            assert delay <= 0.5
            assert delay >= min(0.5, base * 0.5)

    def test_policy_validation(self):
        with pytest.raises(CampaignError, match="max_retries must be >= 0"):
            CampaignEngine(max_retries=-1)


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
# The engine's task loop: retries under fault directives
# ---------------------------------------------------------------------------

class TestTaskLoop:
    """Retries as the engine runs them.  Two EP sweep rows are one
    two-key shard; one row is a one-key shard."""

    @staticmethod
    def _jobs(count):
        jobs = sweep_jobs("EP", threads=24, node_id=0, seed=config.DEFAULT_SEED)
        return jobs[:count]

    @staticmethod
    def _record_faults(monkeypatch):
        """The (job index, attempt) of every job-level fault check."""
        calls = []
        real = engine_module.maybe_fault

        def recording(**where):
            if where["mode"] != "fleet":
                calls.append((where["index"], where["attempt"]))
            real(**where)

        monkeypatch.setattr(engine_module, "maybe_fault", recording)
        return calls

    def test_transient_failure_retried_to_success(self, monkeypatch):
        monkeypatch.setenv(
            FAULT_ENV,
            '[{"action": "raise", "mode": "grid", "error": "transient", '
            '"index": 1, "attempts": [0]}]',
        )
        calls = self._record_faults(monkeypatch)
        jobs = self._jobs(2)
        results = CampaignEngine(max_retries=2).run(jobs)
        assert results.report.retried == 1
        assert results.report.executed == 2
        assert not results.failures
        # the shard re-ran whole at attempt 1
        assert calls == [(0, 0), (1, 0), (0, 1), (1, 1)]
        monkeypatch.undo()
        reference = CampaignEngine().run(jobs)
        assert [results[job] for job in jobs] == [reference[job] for job in jobs]

    def test_deterministic_failure_fails_fast(self, monkeypatch):
        monkeypatch.setenv(
            FAULT_ENV,
            '[{"action": "raise", "mode": "grid", "index": 0, "attempts": "all"}]',
        )
        calls = self._record_faults(monkeypatch)
        jobs = self._jobs(2)
        results = CampaignEngine(max_retries=2).run(jobs, on_failure="skip")
        assert results.report.executed == 1
        assert results.report.retried == 0
        failure = results.failure_for(jobs[0])
        assert failure.kind == "deterministic"
        assert failure.attempts == 1  # never retried
        assert results.failure_for(jobs[1]) is None
        # the shard failed once, then its jobs ran alone, once each
        assert calls == [(0, 0), (0, 0), (1, 0)]

    def test_retries_are_bounded(self, monkeypatch):
        monkeypatch.setenv(
            FAULT_ENV,
            '[{"action": "raise", "error": "transient", "attempts": "all"}]',
        )
        calls = self._record_faults(monkeypatch)
        (job,) = self._jobs(1)
        results = CampaignEngine(max_retries=2).run([job], on_failure="skip")
        assert calls == [(0, 0), (0, 1), (0, 2)]  # 1 + max_retries
        assert results.report.retried == 2
        failure = results.failure_for(job)
        assert failure.attempts == 3
        assert failure.kind == "transient"


# ---------------------------------------------------------------------------
# Engine integration: quarantine lifecycle (serial, in-process faults)
# ---------------------------------------------------------------------------

class TestQuarantineLifecycle:
    JOBS = 3

    def _engine(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        return CampaignEngine(
            store=store, max_retries=2
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
# Drain: the store is the only record a drained campaign leaves
# ---------------------------------------------------------------------------

class TestDrain:
    PLAN_ARGS = ["--benchmarks", "EP", "--threads", "24"]

    @staticmethod
    def _plan():
        plan = plan_dataset_campaign(
            ["EP"], thread_counts=(24,), node_id=0, seed=config.DEFAULT_SEED
        )
        assert len(plan) == 17  # a 16-job shard, then a 1-job shard
        return plan

    @staticmethod
    def _signal_in_first_shard(monkeypatch, *signums):
        """Raise ``signums`` in-process while the first shard is priced."""
        signalled = []

        def raise_once(**_where):
            if not signalled:
                # The engine's drain handler must be installed, or the
                # signal would end the test process.
                assert signal.getsignal(signal.SIGTERM) not in (
                    signal.SIG_DFL,
                    signal.SIG_IGN,
                )
                signalled.append(True)
                for signum in signums:
                    signal.raise_signal(signum)

        monkeypatch.setattr(engine_module, "maybe_fault", raise_once)

    def test_sigterm_drains_and_a_plain_rerun_finishes(self, tmp_path, monkeypatch):
        """SIGTERM during the first shard lets that shard finish and be
        persisted, then stops the run; running the same plan again
        recalls the shard from the store and prices only the rest."""
        plan = self._plan()
        reference = CampaignEngine().run(plan)
        keys = [engine_module.topology_job_key(job, None) for job in plan]

        self._signal_in_first_shard(monkeypatch, signal.SIGTERM)
        store_dir = tmp_path / "campaign"
        store_path = store_dir / "store.sqlite"
        with ResultStore(store_path) as store:
            with pytest.raises(CampaignInterrupted) as excinfo:
                CampaignEngine(store=store).run(plan)
        err = excinfo.value
        assert (err.completed, err.planned, err.signal_name) == (16, 17, "SIGTERM")
        assert "re-run the same command" in str(err)

        stored = _payloads(store_path, "sqlite")
        assert set(stored) == set(keys[:16])
        assert all(stored[key] == reference[key] for key in stored)

        monkeypatch.undo()
        with ResultStore(store_path) as store:
            results = CampaignEngine(store=store).run(plan)
        assert results.report.cached == 16
        assert results.report.executed == 1
        assert {key: results[key] for key in keys} == {
            key: reference[key] for key in keys
        }
        assert _payloads(store_path, "sqlite") == {
            key: reference[key] for key in keys
        }
        own = {store_path.name + suffix for suffix in ("", "-wal", "-shm")}
        assert {path.name for path in store_dir.iterdir()} <= own

    def test_second_signal_aborts_the_running_shard(self, tmp_path, monkeypatch):
        """A second signal stops at once: the shard it lands in is not
        persisted and no drain is reported."""
        self._signal_in_first_shard(monkeypatch, signal.SIGTERM, signal.SIGINT)
        store_path = tmp_path / "store.sqlite"
        with ResultStore(store_path) as store:
            with pytest.raises(KeyboardInterrupt):
                CampaignEngine(store=store).run(self._plan())
        assert _payloads(store_path, "sqlite") == {}

    def test_drain_restores_the_previous_signal_handlers(self, monkeypatch):
        before = {
            sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)
        }
        self._signal_in_first_shard(monkeypatch, signal.SIGTERM)
        with pytest.raises(CampaignInterrupted):
            CampaignEngine().run(self._plan())
        assert {sig: signal.getsignal(sig) for sig in before} == before

    def test_off_the_main_thread_no_handler_is_installed(self):
        """Signal handlers can only be set on the main thread; a run on a
        worker thread (as the serve layer's are) leaves them alone."""
        before = signal.getsignal(signal.SIGTERM)
        seen = []

        def enter():
            with graceful_drain(DrainFlag()) as drain:
                seen.append((signal.getsignal(signal.SIGTERM), drain.requested))

        worker = threading.Thread(target=enter)
        worker.start()
        worker.join(timeout=10)
        assert seen == [(before, False)]

    def test_cli_sigint_drain_exits_130_and_the_same_command_finishes(
        self, tmp_path, monkeypatch, capsys
    ):
        """``repro-campaign run`` maps a drain to exit 130 and prints the
        command that finishes it; that command recalls the drained jobs."""
        store_path = str(tmp_path / "store.sqlite")
        command = ["run", "--store", store_path, "--backend", "sqlite",
                   *self.PLAN_ARGS]
        self._signal_in_first_shard(monkeypatch, signal.SIGINT)
        assert main_campaign(command) == 130
        err = capsys.readouterr().err
        assert "drained on SIGINT: 16 of 17 job(s) completed and persisted" in err
        assert f"repro-campaign {shlex.join(command)}" in err

        monkeypatch.undo()
        assert main_campaign(command) == 0
        out = capsys.readouterr().out
        assert "cache hits:      16\n" in out
        assert "new simulations: 1\n" in out
        plan = self._plan()
        reference = CampaignEngine().run(plan)
        keys = [engine_module.topology_job_key(job, None) for job in plan]
        assert _payloads(store_path, "sqlite") == {
            key: reference[key] for key in keys
        }


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
        """SIGTERM drains a running CLI campaign (exit 130, partial
        results in the store); re-running the same command finishes it;
        the store ends bit-identical to an uninterrupted run of the same
        campaign, and no file but the store records the drain."""
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
        command = ["run", "--store", store_path, "--backend", backend, *flags]
        env = _cli_env(
            {FAULT_ENV: '[{"action": "delay", "delay_s": 0.3, "attempts": "all"}]'}
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _CLI, *command],
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
        assert f"repro-campaign {shlex.join(command)}" in out
        assert not manifest.exists(), out

        # Partial progress really is on disk.
        partial = _payloads(store_path, backend)
        assert 0 < len(partial) < 17
        assert all(partial[k] == reference[k] for k in partial)

        # The same command (no faults) completes the campaign, recalling
        # the drained run's jobs from the store.
        r = _run_cli(command, _cli_env())
        assert r.returncode == 0, r.stdout + r.stderr
        assert f"cache hits:      {len(partial)}\n" in r.stdout
        assert not manifest.exists()

        # The headline guarantee: bit-identical to the uninterrupted run.
        assert _payloads(store_path, backend) == reference
