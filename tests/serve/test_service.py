"""Request-lifecycle tests: dedup, coalescing, quarantine, drain.

The service is asyncio-native; each test spins its own loop via
``asyncio.run`` (no pytest-asyncio in the container) and drives
:meth:`TuningService.handle` directly — transport-free, exactly like
the throughput benchmark.
"""

import asyncio
import json
import threading
import time
from collections import Counter

import pytest

from repro import api
from repro.campaign import engine as engine_module
from repro.campaign import store as store_module
from repro.campaign.engine import qualified_descriptor, topology_job_key
from repro.campaign.resilience import FailureRecord, failure_descriptor
from repro.campaign.store import ResultStore, job_key
from repro.errors import CampaignError
from repro.execution.simulator import OperatingPoint
from repro.readex.tuning_model import TuningModel
from repro.serve import batcher as batching
from repro.serve.schema import WIRE_VERSION
from repro.serve.service import TuningService
from repro.workloads import registry

EP = {"version": WIRE_VERSION, "benchmark": "EP", "stride": 7}

#: A one-scenario tuning model for EP: a request carrying it also
#: plans the RRL-controlled ``dynamic`` run.
TMM = TuningModel.from_best_configs(
    "EP", "phase", {"phase": OperatingPoint(2.4, 2.0, 24)}
).to_json()


def run(coro):
    return asyncio.run(coro)


def grid_jobs_of(request):
    """The grid row jobs a default-cluster service plans for ``request``."""
    return request.resolved().grid_spec().jobs()


def failure_record_for(service, request, *, message="boom", row=0):
    """A persisted FailureRecord for grid row ``row`` of ``request``."""
    jobs = grid_jobs_of(request)
    topology = service.engine.topology
    descriptor = failure_descriptor(qualified_descriptor(jobs[row], topology))
    record = FailureRecord(
        job_store_key=topology_job_key(jobs[row], topology),
        app=request.benchmark,
        mode="grid",
        error_type="InjectedFault",
        error_message=message,
        kind="deterministic",
        attempts=1,
    )
    service.engine.store.put(job_key(descriptor), descriptor, record.payload())


def hold_executor(monkeypatch) -> threading.Event:
    """Hold every executed group until the returned event is set.

    The gate times out, so a failing test cannot hang its executor.
    """
    gate = threading.Event()
    real = batching.answer_group

    def gated(requests, options=None):
        gate.wait(timeout=10.0)
        return real(requests, options)

    monkeypatch.setattr(batching, "answer_group", gated)
    return gate


class TestLifecycle:
    def test_coalesced_responses_bit_identical_to_offline(self):
        async def scenario():
            service = TuningService(max_batch=8)
            payloads = [
                dict(EP, objective=objective)
                for objective in ("energy", "edp", "ed2p")
            ]
            responses = await asyncio.gather(
                *(service.handle(p) for p in payloads)
            )
            await service.aclose()
            return service, payloads, responses

        service, payloads, responses = run(scenario())
        assert service.batcher.coalesced == 2
        assert service.batcher.groups_fired == 1
        for payload, response in zip(payloads, responses):
            assert response["status"] == "ok"
            assert response["meta"] == {"cached": False, "coalesced": 2}
            offline = api.tune(
                api.TuningRequest(
                    "EP", stride=7, objective=payload["objective"]
                )
            )
            assert response["result"] == offline.payload()

    def test_cross_benchmark_requests_coalesce_into_one_group(self):
        """The service's default fleet coalescing merges requests for
        *different* benchmarks into one group — one fleet-kernel pass —
        with responses bit-identical to their offline answers."""
        async def scenario():
            service = TuningService(max_batch=8)
            payloads = [
                dict(EP),
                {"version": WIRE_VERSION, "benchmark": "FT", "stride": 7},
            ]
            responses = await asyncio.gather(
                *(service.handle(p) for p in payloads)
            )
            await service.aclose()
            return service, responses

        service, responses = run(scenario())
        assert service.batcher.coalesced == 1
        assert service.batcher.groups_fired == 1
        for benchmark, response in zip(("EP", "FT"), responses):
            assert response["status"] == "ok"
            offline = api.tune(api.TuningRequest(benchmark, stride=7))
            assert response["result"] == offline.payload()

    def test_responses_are_json_serialisable(self):
        async def scenario():
            service = TuningService()
            response = await service.handle(dict(EP))
            await service.aclose()
            return response

        response = run(scenario())
        assert json.loads(json.dumps(response)) == response

    def test_exact_duplicates_join_inflight_future(self):
        async def scenario():
            service = TuningService(max_batch=1)
            responses = await asyncio.gather(
                *(service.handle(dict(EP)) for _ in range(3))
            )
            await service.aclose()
            return service, responses

        service, responses = run(scenario())
        assert responses[0] == responses[1] == responses[2]
        assert service.metrics.inflight_joins == 2
        # one sweep total: duplicates joined, they were not re-admitted
        assert service.batcher.admitted == 1

    def test_unbatched_admission_never_coalesces(self):
        async def scenario():
            service = TuningService(max_batch=1)
            payloads = [
                dict(EP, objective=o) for o in ("energy", "edp", "ed2p")
            ]
            responses = await asyncio.gather(
                *(service.handle(p) for p in payloads)
            )
            await service.aclose()
            return service, responses

        service, responses = run(scenario())
        assert all(r["status"] == "ok" for r in responses)
        assert service.batcher.coalesced == 0
        assert service.batcher.groups_fired == 3

    def test_schema_and_value_errors_map_to_codes(self):
        async def scenario():
            service = TuningService()
            bad_shape = await service.handle({"benchmark": "EP"})
            bad_value = await service.handle(
                {"version": WIRE_VERSION, "benchmark": "NoSuch"}
            )
            await service.aclose()
            return bad_shape, bad_value

        bad_shape, bad_value = run(scenario())
        assert bad_shape["error"]["code"] == "bad-request"
        assert bad_value["error"]["code"] == "bad-value"


class TestStoreDedup:
    def test_second_request_is_a_cached_hit(self):
        async def scenario():
            service = TuningService(store=ResultStore())
            first = await service.handle(dict(EP))
            executed = service.engine.total_executed
            second = await service.handle(dict(EP))
            await service.aclose()
            return service, first, executed, second

        service, first, executed, second = run(scenario())
        assert first["meta"]["cached"] is False
        assert second["meta"]["cached"] is True
        assert second["result"] == first["result"]
        assert service.metrics.cached_hits == 1
        # the cached path never touched the engine
        assert service.engine.total_executed == executed

    def test_results_shadow_stale_failure_records(self):
        """Regression: a FailureRecord left over from a run that later
        succeeded must not quarantine a request whose full answer is in
        the store — result lookups win, as in CampaignEngine.run."""

        async def scenario():
            service = TuningService(store=ResultStore())
            first = await service.handle(dict(EP))
            failure_record_for(service, api.TuningRequest("EP", stride=7))
            stale = await service.handle(dict(EP))
            await service.aclose()
            return first, stale

        first, stale = run(scenario())
        assert first["status"] == "ok"
        assert stale["status"] == "ok", stale
        assert stale["meta"]["cached"] is True
        assert stale["result"] == first["result"]

    def test_failure_record_without_result_quarantines(self):
        async def scenario():
            service = TuningService(store=ResultStore())
            failure_record_for(service, api.TuningRequest("EP", stride=7))
            executed_before = service.engine.total_executed
            response = await service.handle(dict(EP))
            await service.aclose()
            return service, executed_before, response

        service, executed_before, response = run(scenario())
        assert response["status"] == "error"
        assert response["error"]["code"] == "quarantined"
        assert "boom" in response["error"]["message"]
        assert service.engine.total_executed == executed_before
        assert service.metrics.quarantined == 1

    def test_later_quarantined_row_answers_without_executing(self):
        """Regression: the store fast path checks every missing row's
        failure record, not only the first missing row's, so a request
        whose last row is quarantined (and whose other rows are clean
        misses) is refused before anything is queued or priced."""

        async def scenario():
            service = TuningService(store=ResultStore())
            request = api.TuningRequest("EP", stride=7)
            rows = len(grid_jobs_of(request))
            failure_record_for(service, request, row=rows - 1)
            response = await service.handle(dict(EP))
            await service.aclose()
            return service, rows, response

        service, rows, response = run(scenario())
        assert rows > 1
        assert response["error"]["code"] == "quarantined"
        assert service.engine.total_executed == 0
        assert service.metrics.quarantined == 1

    def test_retry_failed_service_executes_quarantined_jobs(self):
        async def scenario():
            store = ResultStore()
            refusing = TuningService(store=store)
            failure_record_for(refusing, api.TuningRequest("EP", stride=7))
            refused = await refusing.handle(dict(EP))
            await refusing.aclose()
            retrying = TuningService(store=store, retry_failed=True)
            answered = await retrying.handle(dict(EP))
            await retrying.aclose()
            return refused, answered

        refused, answered = run(scenario())
        assert refused["error"]["code"] == "quarantined"
        assert answered["status"] == "ok"
        offline = api.tune(api.TuningRequest("EP", stride=7))
        assert answered["result"] == offline.payload()


    def test_stored_tmm_request_is_a_cached_hit(self):
        """A TMM request whose grid rows and dynamic run are both stored
        is answered from the store: nothing executes."""

        async def scenario():
            service = TuningService(store=ResultStore())
            first = await service.handle(dict(EP, tmm=TMM))
            before = (service.engine.total_executed, service.metrics.cached_hits)
            second = await service.handle(dict(EP, tmm=TMM))
            await service.aclose()
            return service, first, before, second

        service, first, (executed, hits), second = run(scenario())
        assert first["meta"]["cached"] is False
        assert second["meta"]["cached"] is True
        assert second["result"] == first["result"]
        assert second["result"]["dynamic"] is not None
        assert service.engine.total_executed == executed
        assert service.metrics.cached_hits == hits + 1

    def test_request_behind_a_held_group_recalls_its_rows(
        self, tmp_path, monkeypatch
    ):
        """EP/edp misses the store while EP/energy's group is held, so
        it executes as a second group.  That group's engine run recalls
        the rows the first group wrote: the grid is priced once."""
        gate = hold_executor(monkeypatch)
        payload = {"version": WIRE_VERSION, "benchmark": "EP"}

        async def scenario():
            service = TuningService(store=ResultStore(tmp_path / "store.sqlite"))
            energy = asyncio.create_task(service.handle(dict(payload)))
            await asyncio.sleep(0.02)  # its group fired and is held
            edp = asyncio.create_task(
                service.handle(dict(payload, objective="edp"))
            )
            await asyncio.sleep(0.02)
            held = (service.batcher.pending, service.batcher.groups_fired)
            gate.set()
            responses = await asyncio.gather(energy, edp)
            await service.aclose()
            return service, held, responses

        service, held, responses = run(scenario())
        assert held == (1, 1)
        assert service.batcher.groups_fired == 2
        for response in responses:
            assert response["status"] == "ok"
            assert response["meta"]["cached"] is False
        assert service.metrics.cached_hits == 0
        assert len(grid_jobs_of(api.TuningRequest("EP"))) == 14
        assert service.engine.total_executed == 14


class TestFaultsAndDrain:
    def test_injected_fault_surfaces_as_quarantined_and_persists(
        self, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            json.dumps(
                [
                    {
                        "action": "raise",
                        "mode": "grid",
                        "app": "CG",
                        "attempts": "all",
                    }
                ]
            ),
        )

        async def scenario():
            service = TuningService(store=ResultStore())
            payload = {"version": WIRE_VERSION, "benchmark": "CG", "stride": 7}
            first = await service.handle(payload)
            executed = service.engine.total_executed
            second = await service.handle(payload)
            await service.aclose()
            return service, first, executed, second

        service, first, executed, second = run(scenario())
        assert first["error"]["code"] == "quarantined"
        assert second["error"]["code"] == "quarantined"
        # the persisted FailureRecord answered the duplicate; no re-run
        assert service.engine.total_executed == executed
        assert service.metrics.quarantined == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_storeless_fault_is_an_execution_error(self, workers, monkeypatch):
        """Without a store a definitive failure persists no record, so
        it answers ``execution-error``, never ``quarantined``."""
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            json.dumps([{"action": "raise", "app": "CG", "attempts": "all"}]),
        )

        async def scenario():
            service = TuningService(workers=workers)
            response = await service.handle(dict(EP, benchmark="CG"))
            await service.aclose()
            return service, response

        service, response = run(scenario())
        assert service.workers == workers
        assert response["error"]["code"] == "execution-error"
        assert "CG" in response["error"]["message"]
        assert service.metrics.quarantined == 0

    def test_drain_answers_pending_and_refuses_new(self, monkeypatch):
        gate = hold_executor(monkeypatch)

        async def scenario():
            # a busy executor holds the second group open; only drain
            # flushes it
            service = TuningService(max_batch=100)
            running = asyncio.create_task(service.handle(dict(EP)))
            await asyncio.sleep(0.02)
            pending = asyncio.create_task(
                service.handle(dict(EP, benchmark="Mcb"))
            )
            await asyncio.sleep(0.02)
            held = service.batcher.pending
            draining = asyncio.create_task(service.drain())
            await asyncio.sleep(0)
            flushed = service.batcher.pending
            gate.set()
            await draining
            answered = await pending
            await running
            refused = await service.handle(dict(EP))
            await service.aclose()
            return held, flushed, answered, refused

        held, flushed, answered, refused = run(scenario())
        assert (held, flushed) == (1, 0)
        assert answered["status"] == "ok"
        offline = api.tune(api.TuningRequest("Mcb", stride=7))
        assert answered["result"] == offline.payload()
        assert refused["error"]["code"] == "draining"

    def test_drain_flushes_a_group_held_behind_a_busy_executor(
        self, monkeypatch
    ):
        """Drain fires the pending group at once and returns as soon as
        the executor frees, bounded well inside the drain deadline."""
        gate = hold_executor(monkeypatch)

        async def scenario():
            service = TuningService(max_batch=100)
            running = asyncio.create_task(service.handle(dict(EP)))
            await asyncio.sleep(0.02)
            pending = asyncio.create_task(
                service.handle(dict(EP, benchmark="Mcb"))
            )
            await asyncio.sleep(0.02)
            began = time.monotonic()
            asyncio.get_running_loop().call_later(0.1, gate.set)
            await service.drain()
            elapsed = time.monotonic() - began
            answered = await pending
            await running
            await service.aclose()
            return elapsed, answered, service.metrics.drain_cancelled

        elapsed, answered, cancelled = run(scenario())
        assert elapsed < 5.0
        assert answered["status"] == "ok"
        assert cancelled == 0


class TestWorkConservingAdmission:
    """When a group fires: on the next loop tick while an execution slot
    is free, when a running group finishes while none is — never on a
    timer."""

    def test_lone_request_on_an_idle_service_fires_on_the_next_tick(self):
        async def scenario():
            service = TuningService(max_batch=100)
            task = asyncio.create_task(service.handle(dict(EP)))
            await asyncio.sleep(0)  # the request is admitted
            admitted = (service.batcher.pending, service.batcher.groups_fired)
            await asyncio.sleep(0)  # one tick later it has fired
            fired = (service.batcher.pending, service.batcher.groups_fired)
            answer = await task
            await service.aclose()
            return admitted, fired, answer

        admitted, fired, answer = run(scenario())
        assert admitted == (1, 0)
        assert fired == (0, 1)
        assert answer["status"] == "ok"
        assert answer["meta"] == {"cached": False, "coalesced": 0}
        offline = api.tune(api.TuningRequest("EP", stride=7))
        assert answer["result"] == offline.payload()

    def test_same_tick_requests_form_one_group(self):
        async def scenario():
            service = TuningService(max_batch=100)
            tasks = [
                asyncio.create_task(service.handle(dict(EP, benchmark=name)))
                for name in ("EP", "Mcb", "FT")
            ]
            await asyncio.sleep(0)
            admitted = service.batcher.pending
            answers = await asyncio.gather(*tasks)
            await service.aclose()
            return admitted, answers, service.batcher

        admitted, answers, batcher = run(scenario())
        assert admitted == 3
        assert batcher.groups_fired == 1 and batcher.coalesced == 2
        for name, answer in zip(("EP", "Mcb", "FT"), answers):
            assert answer["meta"] == {"cached": False, "coalesced": 2}
            offline = api.tune(api.TuningRequest(name, stride=7))
            assert answer["result"] == offline.payload()

    def test_requests_admitted_while_a_group_executes_form_one_next_group(
        self, monkeypatch
    ):
        gate = hold_executor(monkeypatch)

        async def scenario():
            service = TuningService(max_batch=100)
            first = asyncio.create_task(service.handle(dict(EP)))
            await asyncio.sleep(0.02)
            followers = []
            for name in ("Mcb", "FT", "Lulesh"):  # one per tick, spread out
                followers.append(
                    asyncio.create_task(
                        service.handle(dict(EP, benchmark=name))
                    )
                )
                await asyncio.sleep(0.02)
            held = (service.batcher.pending, service.batcher.groups_fired)
            gate.set()
            answers = await asyncio.gather(first, *followers)
            await service.aclose()
            return held, answers, service.batcher

        held, answers, batcher = run(scenario())
        assert held == (3, 1)
        assert batcher.groups_fired == 2 and batcher.coalesced == 2
        assert answers[0]["meta"]["coalesced"] == 0
        for name, answer in zip(("EP", "Mcb", "FT", "Lulesh"), answers):
            assert answer["status"] == "ok"
            offline = api.tune(api.TuningRequest(name, stride=7))
            assert answer["result"] == offline.payload()
        assert [a["meta"]["coalesced"] for a in answers[1:]] == [2, 2, 2]

    def test_full_group_fires_while_every_slot_is_busy(self, monkeypatch):
        """Reaching ``max_batch`` flushes at once: a full group does not
        wait for the busy executor to free a slot."""
        gate = hold_executor(monkeypatch)

        async def scenario():
            service = TuningService(max_batch=2)
            first = asyncio.create_task(service.handle(dict(EP)))
            await asyncio.sleep(0.02)
            followers = []
            for name in ("Mcb", "FT"):
                followers.append(
                    asyncio.create_task(
                        service.handle(dict(EP, benchmark=name))
                    )
                )
                await asyncio.sleep(0.02)
            held = (
                service.batcher.pending,
                service.batcher.groups_fired,
                service._fire_handle,
            )
            gate.set()
            answers = await asyncio.gather(first, *followers)
            await service.aclose()
            return held, answers, service.batcher.groups_fired

        held, answers, fired = run(scenario())
        assert held == (0, 2, None)
        assert [a["status"] for a in answers] == ["ok", "ok", "ok"]
        assert fired == 2


class TestAdmissionValidation:
    """Regression: a request with a value only execution rejects used to
    join a group and fail it, so every request coalesced with it got its
    ``execution-error``.  It is now refused alone, at admission."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("node_id", -1, "no such node"),
            ("threads", 1000, "invalid thread count"),
            ("tmm", "x", "malformed tuning model"),
        ],
    )
    def test_bad_value_is_refused_without_failing_its_batch_mate(
        self, field, value, message
    ):
        async def scenario():
            service = TuningService()
            good, bad = await asyncio.gather(
                service.handle(dict(EP)),
                service.handle(dict(EP, benchmark="Mcb", **{field: value})),
            )
            await service.aclose()
            return good, bad, service.batcher

        good, bad, batcher = run(scenario())
        assert bad["status"] == "error"
        assert bad["error"]["code"] == "bad-value"
        assert message in bad["error"]["message"]
        assert good["status"] == "ok"
        offline = api.tune(api.TuningRequest("EP", stride=7))
        assert good["result"] == offline.payload()
        assert batcher.admitted == 1


class TestAdmissionBuildsNothing:
    def test_warm_service_builds_no_application(self, monkeypatch):
        """After one warm request, admission resolves threads on the
        registry's one stock build: hits, misses, explicit threads and
        a bad thread count make no ``registry.build`` call."""
        built: Counter = Counter()
        build = registry.build

        def counting(name):
            built[name] += 1
            return build(name)

        payloads = [
            dict(EP),                                   # hit
            dict(EP, seed=3),                           # miss
            dict(EP, seed=3, objective="edp"),          # hit
            dict(EP, threads=12, seed=4),               # miss
            dict(EP, threads=1000),                     # refused
            dict(EP, stride=9),                         # miss
            dict(EP),                                   # hit
        ]

        async def scenario():
            service = TuningService(store=ResultStore())
            warm = await service.handle(dict(EP))
            monkeypatch.setattr(registry, "build", counting)
            responses = [await service.handle(p) for p in payloads]
            await service.aclose()
            return service, warm, responses

        service, warm, responses = run(scenario())
        assert warm["status"] == "ok"
        assert [r["status"] for r in responses] == ["ok"] * 4 + ["error"] + ["ok"] * 2
        assert service.metrics.cached_hits == 3
        assert built == {}


class TestKeysHashedOncePerRequest:
    """The serve twin of ``tests/campaign/test_engine_overhead.py::
    test_each_key_hashed_once_per_run``: a fresh request's store lookup
    and the engine run that executes it hash each key once between
    them, on a SQLite store."""

    @pytest.fixture
    def hashed(self, monkeypatch) -> Counter:
        counts: Counter = Counter()

        def counting(descriptor):
            key = job_key(descriptor)
            counts[key] += 1
            return key

        monkeypatch.setattr(store_module, "job_key", counting)
        monkeypatch.setattr(engine_module, "job_key", counting)
        return counts

    def test_fresh_then_stored_request(self, tmp_path, hashed):
        payload = {"version": WIRE_VERSION, "benchmark": "EP"}
        jobs = grid_jobs_of(api.TuningRequest("EP"))
        result_keys = {job_key(job.descriptor()) for job in jobs}
        failure_keys = {job_key(failure_descriptor(job.descriptor())) for job in jobs}
        path = tmp_path / "store.sqlite"

        async def serve():
            with ResultStore(path) as store:
                service = TuningService(store=store)
                response = await service.handle(dict(payload))
                await service.aclose()
            return service, response

        service, response = run(serve())
        assert response["meta"]["cached"] is False
        assert len(jobs) == 14
        # The recall's hash, plus the store's key/descriptor check on write.
        assert {hashed[key] for key in result_keys} == {2}
        assert {hashed[key] for key in failure_keys} == {1}
        assert set(hashed) == result_keys | failure_keys

        hashed.clear()
        service, response = run(serve())
        assert response["meta"]["cached"] is True
        assert {hashed[key] for key in result_keys} == {1}
        assert set(hashed) == result_keys

    def test_fresh_then_stored_tmm_request(self, tmp_path, hashed):
        """The same bounds when the plan also holds the dynamic run."""
        payload = {"version": WIRE_VERSION, "benchmark": "EP", "tmm": TMM}
        jobs = api.TuningRequest("EP", tmm=TMM).resolved().jobs()
        result_keys = {job_key(job.descriptor()) for job in jobs}
        failure_keys = {job_key(failure_descriptor(job.descriptor())) for job in jobs}
        path = tmp_path / "store.sqlite"

        async def serve():
            with ResultStore(path) as store:
                service = TuningService(store=store)
                response = await service.handle(dict(payload))
                await service.aclose()
            return response

        response = run(serve())
        assert response["meta"]["cached"] is False
        assert len(jobs) == 15 and jobs[-1].label == "dynamic"
        assert {hashed[key] for key in result_keys} == {2}
        assert {hashed[key] for key in failure_keys} == {1}
        assert set(hashed) == result_keys | failure_keys

        hashed.clear()
        response = run(serve())
        assert response["meta"]["cached"] is True
        assert {hashed[key] for key in result_keys} == {1}
        assert set(hashed) == result_keys


class TestExecutionFailureIsolation:
    """Regression: one member failing in execution (for a reason
    admission cannot see) used to fail its whole coalesced group.  A
    failed group of several requests is now re-dispatched one request
    at a time, so only the request that fails alone keeps its error."""

    FAULT = [{"action": "raise", "app": "Mcb", "attempts": "all"}]

    def solo_mcb_error(self, tmp_path):
        async def scenario():
            service = TuningService(store=ResultStore(tmp_path / "solo.sqlite"))
            response = await service.handle(dict(EP, benchmark="Mcb"))
            await service.aclose()
            return response

        return run(scenario())["error"]["code"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_member_does_not_fail_its_batch_mates(
        self, workers, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", json.dumps(self.FAULT))
        # With two slots the group splits by grid key round-robin, so
        # EP and Mcb (first and third grids) still share one part.
        names = ["EP", "FT", "Mcb"] if workers > 1 else ["EP", "Mcb"]

        async def scenario():
            service = TuningService(
                store=ResultStore(tmp_path / "group.sqlite"), workers=workers
            )
            responses = await asyncio.gather(
                *(service.handle(dict(EP, benchmark=n)) for n in names)
            )
            await service.aclose()
            return service, dict(zip(names, responses))

        service, responses = run(scenario())
        assert service.workers == workers
        assert service.batcher.coalesced == len(names) - 1
        for name in names[:-1]:
            assert responses[name]["status"] == "ok", responses[name]
            offline = api.tune(api.TuningRequest(name, stride=7))
            assert responses[name]["result"] == offline.payload()
        mcb = responses["Mcb"]
        assert mcb["status"] == "error"
        assert mcb["error"]["code"] == self.solo_mcb_error(tmp_path)
        assert "Mcb" in mcb["error"]["message"]
        quarantined = mcb["error"]["code"] == "quarantined"
        assert service.metrics.quarantined == int(quarantined)

    @staticmethod
    def failing_executor(monkeypatch, exc_type, gate=None):
        """Make every executed group raise ``exc_type``; returns the
        benchmarks of each executed group, in order."""
        calls = []

        def failing(requests, options=None):
            calls.append([request.benchmark for request in requests])
            if gate is not None:
                gate.wait(timeout=10.0)
            raise exc_type("boom")

        monkeypatch.setattr(batching, "answer_group", failing)
        return calls

    def test_shared_cause_failure_answers_the_group_at_once(self, monkeypatch):
        """An ``internal`` failure is no member's doing: no solo retry."""
        calls = self.failing_executor(monkeypatch, RuntimeError)

        async def scenario():
            service = TuningService()
            responses = await asyncio.gather(
                *(service.handle(dict(EP, benchmark=n)) for n in ("EP", "Mcb"))
            )
            await service.aclose()
            return responses

        responses = run(scenario())
        assert calls == [["EP", "Mcb"]]
        assert [r["error"]["code"] for r in responses] == ["internal"] * 2

    def test_group_failing_after_the_drain_deadline_is_not_retried(
        self, monkeypatch
    ):
        """A group still running when the drain deadline fires and then
        failing answers every member with its error: a solo retry would
        register after the deadline's cancellation sweep and hold the
        drain for one more execution per member."""
        gate = threading.Event()
        calls = self.failing_executor(monkeypatch, CampaignError, gate)

        async def scenario():
            service = TuningService()
            handles = [
                asyncio.create_task(service.handle(dict(EP, benchmark=n)))
                for n in ("EP", "Mcb")
            ]
            await asyncio.sleep(0.02)  # the group is running, held
            asyncio.get_running_loop().call_later(0.2, gate.set)
            await service.drain(deadline_s=0.05)
            responses = await asyncio.gather(*handles)
            await service.aclose()
            return service, responses

        service, responses = run(scenario())
        assert calls == [["EP", "Mcb"]]
        codes = [r["error"]["code"] for r in responses]
        assert codes == ["execution-error"] * 2
        assert service.metrics.drain_cancelled == 0
