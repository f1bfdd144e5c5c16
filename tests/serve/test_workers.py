"""Worker-pool tests: parallel dispatch, dedup, fallback, drain, crashes.

Everything here must hold on a single-core machine: concurrency is
asserted *structurally* (a fault-injected delay pins one group to one
worker while a later-submitted group overtakes it — impossible on the
serial executor, deterministic on the pool because the delayed worker
is sleeping), never via wall-clock speedups.
"""

import asyncio
import json
import os
import signal
import threading

import pytest

from repro import api
from repro.campaign.engine import topology_job_key
from repro.campaign.store import ResultStore
from repro.serve import batcher as batching
from repro.serve import workers as pooling
from repro.serve.schema import WIRE_VERSION, request_payload
from repro.serve.service import TuningService


def run(coro):
    return asyncio.run(coro)


def payload_for(benchmark, *, objective="energy", seed=42, stride=7):
    return {
        "version": WIRE_VERSION,
        "benchmark": benchmark,
        "objective": objective,
        "seed": seed,
        "stride": stride,
    }


def store_snapshot(service, requests):
    """Every stored grid row of ``requests``, keyed, as canonical JSON."""
    store = service.engine.store
    snapshot = {}
    for request in requests:
        jobs, _, _ = service._grid_jobs(request.resolved())
        for job in jobs:
            key = topology_job_key(job, service.engine.topology)
            snapshot[key] = json.dumps(store.get(key), sort_keys=True)
    return snapshot


async def drive(service, payloads):
    responses = await asyncio.gather(
        *(service.handle(p) for p in payloads)
    )
    metrics = service.metrics_payload()
    await service.aclose()
    return responses, metrics


class TestPooledBitIdentity:
    def test_pooled_responses_and_store_match_serial(self, tmp_path):
        payloads = [
            payload_for("EP"),
            payload_for("EP", objective="edp"),
            payload_for("FT", seed=43),
            payload_for("Lulesh", objective="ed2p", seed=43),
        ]
        requests = [
            api.TuningRequest(
                p["benchmark"],
                objective=p["objective"],
                seed=p["seed"],
                stride=p["stride"],
            )
            for p in payloads
        ]

        async def scenario(store_path, workers):
            service = TuningService(
                store=ResultStore(store_path),
                max_batch=16,
                workers=workers,
                warm=("EP",),
            )
            responses, metrics = await drive(service, payloads)
            return service, responses, metrics

        serial_service, serial, _ = run(
            scenario(tmp_path / "serial.sqlite", 1)
        )
        pooled_service, pooled, metrics = run(
            scenario(tmp_path / "pooled.sqlite", 2)
        )
        assert pooled_service.workers == 2
        assert pooled_service.pool_fallback is None
        for p, s, request in zip(pooled, serial, requests):
            assert p["status"] == "ok", p
            assert p["result"] == s["result"]
            assert p["result"] == api.tune(request).payload()
        # store keys and payloads are byte-identical across modes
        assert store_snapshot(
            pooled_service, requests
        ) == store_snapshot(serial_service, requests)
        # the pool really executed (and reports its gauges)
        pool = metrics["worker_pool"]
        assert pool["workers"] == 2
        assert pool["groups_executed"] >= 1
        assert sum(pool["groups_per_worker"].values()) == (
            pool["groups_executed"]
        )

    def test_storeless_pool_answers_bit_identically(self):
        async def scenario():
            service = TuningService(workers=2)
            return await drive(
                service, [payload_for("EP"), payload_for("FT", seed=43)]
            )

        responses, metrics = run(scenario())
        assert [r["status"] for r in responses] == ["ok", "ok"]
        assert responses[0]["result"] == api.tune(
            api.TuningRequest("EP", stride=7, seed=42)
        ).payload()
        assert metrics["worker_pool"]["workers"] == 2


class TestConcurrentDedup:
    def test_identical_racing_requests_execute_once(self, tmp_path):
        payload = payload_for("EP")

        async def scenario():
            service = TuningService(
                store=ResultStore(tmp_path / "dedup.sqlite"),
                workers=2,
            )
            responses = await asyncio.gather(
                *(service.handle(dict(payload)) for _ in range(6))
            )
            metrics = service.metrics_payload()
            await service.aclose()
            return responses, metrics

        responses, metrics = run(scenario())
        bodies = {json.dumps(r, sort_keys=True) for r in responses}
        assert len(bodies) == 1  # every racer got the same envelope
        assert responses[0]["status"] == "ok"
        # one admission, five in-flight joins, one group on the pool
        assert metrics["admitted"] == 1
        assert metrics["inflight_joins"] == 5
        assert metrics["worker_pool"]["groups_executed"] == 1


class TestStructuralConcurrency:
    def test_later_group_overtakes_a_stalled_worker(
        self, tmp_path, monkeypatch
    ):
        # Pin EP's fleet shard to a 2.5 s in-worker delay.  On the
        # serial executor FT (submitted second) could never finish
        # first; on the pool it must, because EP only occupies one of
        # the two workers.
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            json.dumps(
                [
                    {
                        "action": "delay",
                        "app": "EP",
                        "mode": "fleet",
                        "delay_s": 2.5,
                        "attempts": "all",
                    }
                ]
            ),
        )

        async def scenario():
            service = TuningService(
                store=ResultStore(tmp_path / "overtake.sqlite"),
                workers=2,
            )
            slow = asyncio.ensure_future(
                service.handle(payload_for("EP"))
            )
            await asyncio.sleep(0.2)  # EP's group is dispatched first
            fast = asyncio.ensure_future(
                service.handle(payload_for("FT", seed=43))
            )
            done, pending = await asyncio.wait(
                {slow, fast}, return_when=asyncio.FIRST_COMPLETED
            )
            first_done = done.pop()
            responses = await asyncio.gather(slow, fast)
            await service.aclose()
            return first_done is fast, responses

        fast_won, responses = run(scenario())
        assert fast_won, "FT should complete while EP is still delayed"
        assert [r["status"] for r in responses] == ["ok", "ok"]
        assert responses[0]["result"] == api.tune(
            api.TuningRequest("EP", stride=7, seed=42)
        ).payload()


class TestWorkConservingPool:
    def test_two_groups_run_concurrently_and_a_third_waits_for_a_slot(
        self, tmp_path, monkeypatch
    ):
        # EP and FT each hold their worker for 0.8 s in-worker.  With
        # two workers the second group fires while the first still
        # runs; once both slots are busy, later requests accumulate
        # into one group that fires when a slot frees.
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            json.dumps(
                [
                    {
                        "action": "delay",
                        "app": app,
                        "mode": "fleet",
                        "delay_s": 0.8,
                        "attempts": "all",
                    }
                    for app in ("EP", "FT")
                ]
            ),
        )

        async def scenario():
            service = TuningService(
                store=ResultStore(tmp_path / "slots.sqlite"), workers=2
            )
            batcher = service.batcher
            tasks = [asyncio.ensure_future(service.handle(payload_for("EP")))]
            await asyncio.sleep(0.2)
            tasks.append(
                asyncio.ensure_future(
                    service.handle(payload_for("FT", seed=43))
                )
            )
            await asyncio.sleep(0.2)
            both_running = (batcher.groups_fired, len(service._group_tasks))
            for name in ("Lulesh", "Mcb"):
                tasks.append(
                    asyncio.ensure_future(service.handle(payload_for(name)))
                )
                await asyncio.sleep(0.05)
            waiting = (batcher.pending, batcher.groups_fired)
            responses = await asyncio.gather(*tasks)
            metrics = service.metrics_payload()
            await service.aclose()
            return both_running, waiting, responses, metrics

        both_running, waiting, responses, metrics = run(scenario())
        assert both_running == (2, 2)
        assert waiting == (2, 2)
        assert metrics["groups_fired"] == 3 and metrics["coalesced"] == 1
        assert len(metrics["worker_pool"]["groups_per_worker"]) == 2
        for (name, seed), response in zip(
            [("EP", 42), ("FT", 43), ("Lulesh", 42), ("Mcb", 42)], responses
        ):
            assert response["status"] == "ok", response
            assert response["result"] == api.tune(
                api.TuningRequest(name, stride=7, seed=seed)
            ).payload()


class TestFallback:
    def test_jsonl_store_falls_back_to_serial(self, tmp_path):
        async def scenario():
            service = TuningService(
                store=ResultStore(tmp_path / "fb.jsonl"),
                workers=4,
            )
            fallback = (service.workers, service.pool_fallback)
            responses, metrics = await drive(
                service, [payload_for("EP")]
            )
            return fallback, responses, metrics

        (workers, reason), responses, metrics = run(scenario())
        assert workers == 1
        assert "concurrent writers" in reason
        assert responses[0]["status"] == "ok"
        assert responses[0]["result"] == api.tune(
            api.TuningRequest("EP", stride=7, seed=42)
        ).payload()
        pool = metrics["worker_pool"]
        assert pool["workers"] == 1
        assert pool["fallback"] == reason
        assert pool["groups_per_worker"] == {"in-process": 1}

    def test_in_memory_store_falls_back(self):
        reason = pooling.pool_supported(ResultStore())
        assert reason is not None and "in-memory" in reason


class TestDrainDeadline:
    def test_deadline_cancels_queued_group_with_draining_error(
        self, monkeypatch
    ):
        real = batching.answer_group

        def slow_answer_group(requests, options=None):
            import time

            time.sleep(0.8)
            return real(requests, options)

        monkeypatch.setattr(batching, "answer_group", slow_answer_group)

        async def scenario():
            # max_batch=1 -> two groups; the serial executor starts
            # the first and queues the second behind it.
            service = TuningService(max_batch=1)
            first = asyncio.ensure_future(
                service.handle(payload_for("EP"))
            )
            second = asyncio.ensure_future(
                service.handle(payload_for("EP", seed=43))
            )
            await asyncio.sleep(0.2)  # both groups fired, first running
            await service.drain(deadline_s=0.2)
            responses = await asyncio.gather(first, second)
            metrics = service.metrics_payload()
            await service.aclose()
            return responses, metrics

        (first, second), metrics = run(scenario())
        assert first["status"] == "ok"
        assert second["status"] == "error"
        assert second["error"]["code"] == "draining"
        assert "drain deadline" in second["error"]["message"]
        assert metrics["drain_cancelled"] == 1

    def test_default_drain_finishes_everything(self, monkeypatch):
        gate = threading.Event()
        real = batching.answer_group

        def held_answer_group(requests, options=None):
            gate.wait(timeout=10.0)
            return real(requests, options)

        monkeypatch.setattr(batching, "answer_group", held_answer_group)

        async def scenario():
            # the first group holds the executor, so the second waits
            # in the batcher until drain flushes it
            service = TuningService(max_batch=100)
            running = asyncio.ensure_future(
                service.handle(payload_for("EP"))
            )
            await asyncio.sleep(0.05)
            pending = asyncio.ensure_future(
                service.handle(payload_for("EP", seed=43))
            )
            await asyncio.sleep(0.05)
            held = service.batcher.pending
            asyncio.get_running_loop().call_later(0.1, gate.set)
            await service.drain()  # default deadline, nothing cancelled
            responses = await asyncio.gather(running, pending)
            await service.aclose()
            return held, responses, service.metrics.drain_cancelled

        held, responses, cancelled = run(scenario())
        assert held == 1
        assert [r["status"] for r in responses] == ["ok", "ok"]
        assert cancelled == 0


class TestSplitGroup:
    def _group(self, requests):
        return [request.resolved() for request in requests]

    def test_split_preserves_requests_and_grid_key_cohesion(self):
        requests = [
            api.TuningRequest("EP", stride=7),
            api.TuningRequest("EP", objective="edp", stride=7),
            api.TuningRequest("FT", stride=7, seed=43),
            api.TuningRequest("Lulesh", stride=7, seed=44),
        ]
        group = self._group(requests)
        parts = batching.split_group(group, 2)
        assert len(parts) == 2
        flattened = [r for part in parts for r in part]
        assert sorted(
            (r.benchmark, r.objective) for r in flattened
        ) == sorted((r.benchmark, r.objective) for r in group)
        # requests sharing a grid key stay in one part
        for part in parts:
            keys = [r.grid_key() for r in part]
            for key in keys:
                others = [
                    p for p in parts if p is not part and
                    key in [r.grid_key() for r in p]
                ]
                assert not others

    def test_split_noop_for_small_groups_or_one_part(self):
        requests = [api.TuningRequest("EP", stride=7)]
        group = self._group(requests)
        assert batching.split_group(group, 4) == [group]
        group2 = self._group(
            [
                api.TuningRequest("EP", stride=7),
                api.TuningRequest("FT", stride=7),
            ]
        )
        assert batching.split_group(group2, 1) == [group2]


class TestWarm:
    def test_warm_process_is_idempotent(self):
        pooling.warm_process(("EP",))
        assert "EP" in pooling._WARMED
        pooling.warm_process(("EP",))  # no error, no re-warm


@pytest.mark.chaos
class TestWorkerCrash:
    def test_sigkilled_worker_mid_group_retries_bit_identically(
        self, tmp_path, monkeypatch
    ):
        # Hold EP's shard in an in-worker delay long enough to SIGKILL
        # the whole pool mid-group; the service must respawn, re-run the
        # group, and still answer bit-identically (re-execution cannot
        # change an answer: noise streams are keyed, not process-bound).
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            json.dumps(
                [
                    {
                        "action": "delay",
                        "app": "EP",
                        "mode": "fleet",
                        "delay_s": 2.0,
                        "attempts": "all",
                    }
                ]
            ),
        )

        async def scenario():
            service = TuningService(
                store=ResultStore(tmp_path / "crash.sqlite"),
                workers=2,
            )
            pending = asyncio.ensure_future(
                service.handle(payload_for("EP"))
            )
            await asyncio.sleep(0.6)  # group is on a worker, delayed
            for pid in list(service._pool._executor._processes):
                os.kill(pid, signal.SIGKILL)
            response = await pending
            generation = service._pool.generation
            await service.aclose()
            return response, generation

        response, generation = run(scenario())
        assert generation >= 1, "the pool should have respawned"
        assert response["status"] == "ok"
        assert response["result"] == api.tune(
            api.TuningRequest("EP", stride=7, seed=42)
        ).payload()


def test_request_payload_roundtrip_matches_wire():
    request = api.TuningRequest("EP", stride=7)
    assert request_payload(request)["benchmark"] == "EP"
