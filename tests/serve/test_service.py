"""Request-lifecycle tests: dedup, coalescing, quarantine, drain.

The service is asyncio-native; each test spins its own loop via
``asyncio.run`` (no pytest-asyncio in the container) and drives
:meth:`TuningService.handle` directly — transport-free, exactly like
the throughput benchmark.
"""

import asyncio
import json
import time

import pytest

from repro import api
from repro.campaign.engine import qualified_descriptor, topology_job_key
from repro.campaign.resilience import FailureRecord, failure_descriptor
from repro.campaign.store import ResultStore, job_key
from repro.errors import SchemaError
from repro.serve.schema import WIRE_VERSION
from repro.serve.service import TuningService

EP = {"version": WIRE_VERSION, "benchmark": "EP", "stride": 7}


def run(coro):
    return asyncio.run(coro)


def failure_record_for(service, request, *, message="boom"):
    """A persisted FailureRecord for the first grid row of ``request``."""
    jobs, _, _ = service._grid_jobs(request.resolved())
    topology = service.engine.topology
    descriptor = failure_descriptor(qualified_descriptor(jobs[0], topology))
    record = FailureRecord(
        job_store_key=topology_job_key(jobs[0], topology),
        app=request.benchmark,
        mode="grid",
        error_type="InjectedFault",
        error_message=message,
        kind="deterministic",
        attempts=1,
    )
    service.engine.store.put(job_key(descriptor), descriptor, record.payload())


class TestLifecycle:
    def test_coalesced_responses_bit_identical_to_offline(self):
        async def scenario():
            service = TuningService(max_batch=8, max_wait_s=0.05)
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
            service = TuningService(max_batch=8, max_wait_s=0.05)
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
            service = TuningService(max_wait_s=0.0)
            response = await service.handle(dict(EP))
            await service.aclose()
            return response

        response = run(scenario())
        assert json.loads(json.dumps(response)) == response

    def test_exact_duplicates_join_inflight_future(self):
        async def scenario():
            service = TuningService(max_batch=1, max_wait_s=0.0)
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
            service = TuningService(admission="unbatched")
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
            service = TuningService(max_wait_s=0.0)
            bad_shape = await service.handle({"benchmark": "EP"})
            bad_value = await service.handle(
                {"version": WIRE_VERSION, "benchmark": "NoSuch"}
            )
            await service.aclose()
            return bad_shape, bad_value

        bad_shape, bad_value = run(scenario())
        assert bad_shape["error"]["code"] == "bad-request"
        assert bad_value["error"]["code"] == "bad-value"

    def test_unknown_admission_mode_rejected(self):
        with pytest.raises(SchemaError, match="admission"):
            TuningService(admission="sometimes")


class TestStoreDedup:
    def test_second_request_is_a_cached_hit(self):
        async def scenario():
            service = TuningService(store=ResultStore(), max_wait_s=0.0)
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
            service = TuningService(store=ResultStore(), max_wait_s=0.0)
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
            service = TuningService(store=ResultStore(), max_wait_s=0.0)
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

    def test_retry_failed_service_executes_quarantined_jobs(self):
        async def scenario():
            store = ResultStore()
            refusing = TuningService(store=store, max_wait_s=0.0)
            failure_record_for(refusing, api.TuningRequest("EP", stride=7))
            refused = await refusing.handle(dict(EP))
            await refusing.aclose()
            retrying = TuningService(
                store=store, retry_failed=True, max_wait_s=0.0
            )
            answered = await retrying.handle(dict(EP))
            await retrying.aclose()
            return refused, answered

        refused, answered = run(scenario())
        assert refused["error"]["code"] == "quarantined"
        assert answered["status"] == "ok"
        offline = api.tune(api.TuningRequest("EP", stride=7))
        assert answered["result"] == offline.payload()


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
            service = TuningService(store=ResultStore(), max_wait_s=0.0)
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

    def test_drain_answers_pending_and_refuses_new(self):
        async def scenario():
            # a window so long only drain can flush the group
            service = TuningService(max_batch=100, max_wait_s=60.0)
            pending = asyncio.create_task(service.handle(dict(EP)))
            await asyncio.sleep(0.02)
            await service.drain()
            answered = await pending
            refused = await service.handle(dict(EP))
            await service.aclose()
            return answered, refused

        answered, refused = run(scenario())
        assert answered["status"] == "ok"
        offline = api.tune(api.TuningRequest("EP", stride=7))
        assert answered["result"] == offline.payload()
        assert refused["error"]["code"] == "draining"

    def test_full_group_fires_before_its_window(self):
        """Reaching ``max_batch`` flushes at once and cancels the
        window timer, so a 60 s window delays nobody."""

        async def scenario():
            service = TuningService(max_batch=2, max_wait_s=60.0)
            began = time.monotonic()
            answers = await asyncio.gather(
                service.handle(dict(EP)),
                service.handle(dict(EP, benchmark="Mcb")),
            )
            elapsed = time.monotonic() - began
            timer = service._timer
            await service.aclose()
            return elapsed, answers, timer, service.batcher.groups_fired

        elapsed, answers, timer, fired = run(scenario())
        assert elapsed < 5.0
        assert [a["status"] for a in answers] == ["ok", "ok"]
        assert fired == 1
        assert timer is None

    def test_admission_window_fires_a_partial_group(self):
        """A group below ``max_batch`` flushes when its window closes;
        a follower admitted inside the window joins it and does not
        move it."""

        async def scenario():
            service = TuningService(max_batch=100, max_wait_s=1.0)
            first = asyncio.create_task(service.handle(dict(EP)))
            await asyncio.sleep(0.3)
            follower = asyncio.create_task(
                service.handle(dict(EP, benchmark="Mcb"))
            )
            await asyncio.sleep(0.3)
            waiting = service.batcher.pending
            answers = await asyncio.gather(first, follower)
            await service.aclose()
            return waiting, answers, service.batcher

        waiting, answers, batcher = run(scenario())
        assert waiting == 2
        assert [a["status"] for a in answers] == ["ok", "ok"]
        assert batcher.groups_fired == 1 and batcher.coalesced == 1

    def test_drain_does_not_wait_out_the_admission_window(self):
        """Regression: drain flushed the pending group but then also
        waited for its admission timer, so it returned only after the
        whole ``max_wait_s`` window (and tripped the drain deadline)."""

        async def scenario():
            service = TuningService(max_batch=100, max_wait_s=60.0)
            pending = asyncio.create_task(service.handle(dict(EP)))
            await asyncio.sleep(0.02)
            began = time.monotonic()
            await service.drain()
            elapsed = time.monotonic() - began
            answered = await pending
            await service.aclose()
            return elapsed, answered, service.metrics.drain_cancelled

        elapsed, answered, cancelled = run(scenario())
        assert elapsed < 5.0
        assert answered["status"] == "ok"
        assert cancelled == 0
