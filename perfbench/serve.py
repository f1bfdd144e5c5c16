"""The serve-mix workload: open-loop Poisson arrivals into a TuningService.

The load generator runs in the service's own asyncio loop and calls
``TuningService.handle`` directly (no sockets).  Requests are issued on
an absolute schedule — each is due at ``start + due_s`` whatever
happened before it — and each latency is timed from its due time, so a
stall charges every request that queued behind it.  How late the
generator itself issued a request is reported separately.

The schedule comes from the workload seed alone: each request's
benchmark, objective, grid seed and arrival time are drawn from it.
About half of the requests ask for a grid asked for before — 30% come
back for a grid answered at least a second earlier (store hits) and 15%
arrive at the same instant as a fresh request for the same grid
(coalescing) — and a quarter of each kind carry a tuning model (TMM)
whose dynamic run the service prices.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from metrics import WorkloadResult, median, store_bytes, tail, wrapped_layers
from tracing import Tracer, instrument
from repro import api, config
from repro.campaign.store import ResultStore
from repro.execution.simulator import OperatingPoint
from repro.readex.tuning_model import TuningModel
from repro.serve.schema import WIRE_VERSION, parse_request
from repro.serve.service import TuningService
from repro.workloads import registry

#: The benchmarks the service is asked to tune: the paper's five.
BENCHMARKS: tuple[str, ...] = registry.TEST_BENCHMARKS
OBJECTIVES: tuple[str, ...] = ("energy", "edp", "ed2p")

#: Offered load, requests per second.  Saturated, this mix completes
#: 28-30 req/s on a 2-core x86-64 VM with Python 3.11 (groups grow to
#: ``max_batch`` when a queue builds).  At 14 req/s the tail swung by
#: more than 2x between seeds; at 10 req/s the single executor thread
#: is about 40% busy and queueing no longer dominates the tail.
RATE_RPS = 10.0
#: Share of requests carrying a TMM to price.
TMM_SHARE = 0.25
#: Distinct TMMs per benchmark (a repeated one is a store hit too).
TMM_VARIANTS = 3
#: Share of requests that arrive as a same-instant companion of a fresh
#: request for the same grid (coalescing).
BURST_SHARE = 0.15
#: Share of requests that come back for a grid answered at least
#: ``REVISIT_GAP_S`` earlier (store hits unless they carry a TMM).
#: With these shares the median request is a fresh one, well clear of
#: the boundary between the fast (hit) and slow (executed) latencies.
REVISIT_SHARE = 0.3
REVISIT_GAP_S = 1.0
#: Responses checked against offline ``api.tune`` after the window.
CHECK_SAMPLE = 8


@dataclass(frozen=True)
class Arrival:
    rid: int
    due_s: float
    payload: dict[str, Any]


@dataclass
class Outcome:
    arrival: Arrival
    sent_s: float
    done_s: float
    response: dict[str, Any] = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        return self.done_s - self.arrival.due_s

    @property
    def lag_s(self) -> float:
        return self.sent_s - self.arrival.due_s

    @property
    def ok(self) -> bool:
        return self.response.get("status") == "ok"


def tmm_json(benchmark: str, variant: int) -> str:
    """A deterministic candidate TMM over the phase's first regions."""
    app = registry.build(benchmark)
    cfs, ucfs = config.CORE_FREQUENCIES_GHZ, config.UNCORE_FREQUENCIES_GHZ
    best = {
        app.phase.name: OperatingPoint(
            cfs[-1 - variant], ucfs[len(ucfs) // 2], config.DEFAULT_OPENMP_THREADS
        )
    }
    for i, region in enumerate(app.phase.children[:3]):
        best[region.name] = OperatingPoint(
            cfs[-1 - (i + variant) % 4],
            ucfs[(i + 2 * variant) % len(ucfs)],
            config.DEFAULT_OPENMP_THREADS,
        )
    return TuningModel.from_best_configs(benchmark, app.phase.name, best).to_json()


def schedule(seed: int, seconds: float, stream: str) -> list[Arrival]:
    """The seeded open-loop arrival schedule for one window.

    Every seed gets the same composition — exactly ``RATE_RPS * seconds``
    requests, the same number of fresh grids, companions, revisits and
    TMM carriers of each kind, benchmarks balanced — and the seed
    decides which request is which and when it arrives (a Poisson
    process conditioned on its count).  So seeds vary the inputs
    without varying how much of each kind of work a window holds.
    """
    rng = random.Random(f"serve-mix/{stream}/{seed}")
    requests = max(3, round(RATE_RPS * seconds))
    n_companions = round(BURST_SHARE * requests)
    instants = sorted(
        rng.uniform(0.0, seconds) for _ in range(requests - n_companions)
    )
    # Revisits come after the first `gap` of the window, so there is
    # always a grid answered long enough before to come back to.
    gap = min(REVISIT_GAP_S, seconds / 4)
    late = [i for i, t in enumerate(instants) if t >= instants[0] + gap]
    revisits = set(
        rng.sample(late, min(len(late), round(REVISIT_SHARE * requests)))
    )
    fresh = [i for i in range(len(instants)) if i not in revisits]
    companions = set(rng.sample(fresh, min(len(fresh), n_companions)))
    grid_seeds = [
        rng.randrange(2**31) for _ in range(math.ceil(len(fresh) / len(BENCHMARKS)))
    ]

    def carriers(kind) -> set:
        kind = sorted(kind)
        return set(rng.sample(kind, round(TMM_SHARE * len(kind))))

    tmm_at = carriers(fresh) | carriers(revisits)
    companion_tmm = carriers(companions)
    first_seen: list[tuple[float, int]] = []  # (due, grid) of fresh requests
    arrivals: list[Arrival] = []

    def add(due: float, grid: int, tmm: bool) -> None:
        benchmark = BENCHMARKS[grid % len(BENCHMARKS)]
        payload = {
            "version": WIRE_VERSION,
            "benchmark": benchmark,
            "objective": rng.choice(OBJECTIVES),
            "seed": grid_seeds[grid // len(BENCHMARKS)],
        }
        if tmm:
            payload["tmm"] = tmm_json(benchmark, rng.randrange(TMM_VARIANTS))
        arrivals.append(Arrival(len(arrivals), due, payload))

    for i, due in enumerate(instants):
        if i in revisits:
            answered = [g for t, g in first_seen if t <= due - gap]
            add(due, rng.choice(answered), i in tmm_at)
            continue
        grid = len(first_seen)
        first_seen.append((due, grid))
        add(due, grid, i in tmm_at)
        if i in companions:
            add(due, grid, i in companion_tmm)
    return arrivals


def warmup_payloads() -> list[dict[str, Any]]:
    """Requests outside any schedule's grid pool: one plain and one TMM
    request per benchmark, on seeds no schedule draws."""
    payloads = []
    for i, benchmark in enumerate(BENCHMARKS):
        base = {
            "version": WIRE_VERSION,
            "benchmark": benchmark,
            "seed": 2**31 + i,
        }
        payloads.append(dict(base, objective="energy"))
        payloads.append(dict(base, objective="edp", tmm=tmm_json(benchmark, 0)))
    return payloads


class ServeMix:
    """One service on a fresh SQLite store, warmed up, ready for windows."""

    def __init__(self, workdir: Path):
        self.store_path = workdir / "serve.sqlite"
        self.store = ResultStore(self.store_path)
        self.service = TuningService(store=self.store)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._warm_up(warmup_payloads()))

    async def _warm_up(self, payloads: list[dict[str, Any]]) -> None:
        """Each warm-up request alone, then all of them together (a
        coalesced group, then store hits)."""
        responses = [await self.service.handle(p) for p in payloads]
        responses += await asyncio.gather(
            *(self.service.handle(p) for p in payloads)
        )
        for response in responses:
            if response.get("status") != "ok":
                raise RuntimeError(f"warm-up request failed: {response}")

    def run_window(self, arrivals: list[Arrival]) -> tuple[list[Outcome], dict]:
        """Drive one open-loop window; returns outcomes and window stats."""
        return self.loop.run_until_complete(self._drive(arrivals))

    async def _drive(self, arrivals: list[Arrival]):
        outcomes: list[Outcome] = []
        start_ns = time.perf_counter_ns()
        start = start_ns / 1e9

        async def one(arrival: Arrival, sent: float) -> None:
            response = await self.service.handle(arrival.payload)
            outcomes.append(
                Outcome(arrival, sent - start, time.perf_counter() - start, response)
            )

        tasks = []
        for arrival in arrivals:
            delay = start + arrival.due_s - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(arrival, time.perf_counter())))
        issued = time.perf_counter() - start
        backlog = sum(not t.done() for t in tasks)
        await asyncio.gather(*tasks)
        window = time.perf_counter() - start
        outcomes.sort(key=lambda o: o.arrival.rid)
        return outcomes, {
            "start_ns": start_ns,
            "window_s": window,
            "issued_s": issued,
            "final_backlog": backlog,
        }

    def close(self) -> None:
        """Drain and close, after every response has arrived."""
        try:
            self.loop.run_until_complete(self.service.aclose())
        finally:
            self.loop.close()
            self.store.close()


def check_sample(outcomes: list[Outcome], seed: int) -> tuple[int, int]:
    """Compare a seeded sample of responses with offline ``api.tune``.

    Returns (checked, mismatched); a non-ok response is a mismatch.
    """
    rng = random.Random(f"serve-check/{seed}")
    sample = rng.sample(outcomes, min(CHECK_SAMPLE, len(outcomes)))
    bad = 0
    for outcome in sample:
        expected = api.tune(parse_request(outcome.arrival.payload)).payload()
        if not outcome.ok or outcome.response["result"] != expected:
            bad += 1
    return len(sample), bad


def _counters(mix: ServeMix) -> dict[str, float]:
    payload = mix.service.metrics_payload()
    engine = mix.service.engine
    return {
        "requests": payload["requests"],
        "cached_hits": payload["cached_hits"],
        "inflight_joins": payload["inflight_joins"],
        "errors": payload["errors"],
        "admitted": payload["admitted"],
        "groups_fired": payload["groups_fired"],
        "executed": engine.total_executed,
        "cached": engine.total_cached,
    }


def _serve_layers(
    mix: ServeMix, before: dict, outcomes: list[Outcome], stats: dict,
    tracer: Tracer,
) -> dict[str, float]:
    after = _counters(mix)
    delta = {k: after[k] - before[k] for k in after}
    groups: dict[int, list] = {}
    for span in tracer.named("serve.answer_group"):
        for rid in span.args.get("rids", ()):
            groups.setdefault(rid, []).append(span)
    origin = stats["start_ns"]
    execute, wait = [], []
    for o in outcomes:
        due = origin + int(o.arrival.due_s * 1e9)
        done = origin + int(o.done_s * 1e9)
        mine = [g for g in groups.get(o.arrival.rid, ())
                if g.start_ns >= due and g.end_ns <= done]
        if mine:
            execute.append(mine[-1].seconds)
            wait.append(o.latency_s - mine[-1].seconds)
    layers = {
        "serve.hit_ratio": delta["cached_hits"] / max(1, delta["requests"]),
        "serve.requests_per_group":
            delta["admitted"] / max(1, delta["groups_fired"]),
        "serve.inflight_joins": delta["inflight_joins"],
        "serve.errors": delta["errors"],
        "serve.execute_ms": median(execute) * 1e3,
        "serve.wait_ms": median(wait) * 1e3,
        "serve.generator_lag_ms": median([o.lag_s for o in outcomes]) * 1e3,
        "serve.final_backlog": stats["final_backlog"],
        "campaign.jobs_executed": delta["executed"],
        "campaign.jobs_cached": delta["cached"],
        "campaign.hit_ratio":
            delta["cached"] / max(1, delta["cached"] + delta["executed"]),
        "campaign.store_bytes": store_bytes(mix.store_path),
    }
    layers.update(wrapped_layers(tracer, 1))
    return layers


def _window_latencies(outcomes: list[Outcome], window_s: float) -> list[float]:
    """Latencies with every failed request at the whole window: a failed
    or refused request misses every latency limit."""
    return [o.latency_s if o.ok else window_s for o in outcomes]


def _run_window(
    mix: ServeMix, arrivals: list[Arrival], label: str, result: WorkloadResult
) -> tuple[list[Outcome], dict, list[float]]:
    """Drive one window; note what it offered and its tail."""
    outcomes, stats = mix.run_window(arrivals)
    latencies = _window_latencies(outcomes, stats["window_s"])
    value, percentile, beyond = tail(latencies)
    result.notes.append(
        f"{label} window: {len(arrivals)} requests at {RATE_RPS:g} req/s open "
        f"loop, issued over {stats['issued_s']:.2f} s, final backlog "
        f"{stats['final_backlog']}, generator lag p50 "
        f"{median([o.lag_s for o in outcomes]) * 1e3:.2f} ms max "
        f"{max(o.lag_s for o in outcomes) * 1e3:.2f} ms, "
        f"tail p{percentile:.1f} {value * 1e3:.1f} ms ({beyond} beyond)"
    )
    result.attempted += len(outcomes)
    result.failed += sum(not o.ok for o in outcomes)
    return outcomes, stats, latencies


def serve_workload(
    seed: int, seconds: float, workdir: Path, traced: bool
) -> tuple[WorkloadResult, Tracer | None]:
    """Set up one service, drive it open loop, close it, check a sample.

    An untraced run drives one window of ``seconds``.  A traced run
    drives two windows of ``seconds / 2`` on the same service, untraced
    then traced, so the tracing overhead is their p50 difference; the
    per-layer numbers come from the traced one.  The service is closed
    only after every response has arrived, outside the timed windows.
    """
    result = WorkloadResult()
    began = time.perf_counter()
    mix = ServeMix(workdir)
    result.setup_s.append(time.perf_counter() - began)
    tracer = Tracer() if traced else None
    try:
        window_s = seconds / 2 if traced else seconds
        outcomes, stats, latencies = _run_window(
            mix, schedule(seed, window_s, "timed"), "timed", result
        )
        result.latencies_s = latencies
        result.window_s = stats["window_s"]
        result.ok = sum(o.ok for o in outcomes)
        if traced:
            arrivals = schedule(seed, window_s, "traced")
            rids: dict = {}
            for a in arrivals:
                rids.setdefault(parse_request(a.payload).resolved(), []).append(a.rid)

            def describe(requests, options=None):
                return {"rids": [r for q in requests for r in rids.get(q, ())]}

            before = _counters(mix)
            instrument(tracer, describe)
            try:
                traced_outcomes, stats, traced_latencies = _run_window(
                    mix, arrivals, "traced", result
                )
            finally:
                tracer.close()
            origin = stats["start_ns"]
            for o in traced_outcomes:
                tracer.record(
                    "serve.request",
                    origin + int(o.arrival.due_s * 1e9),
                    origin + int(o.done_s * 1e9),
                    rid=o.arrival.rid,
                    status=o.response.get("status"),
                )
            result.layers = _serve_layers(mix, before, traced_outcomes, stats, tracer)
            result.layers["serve.tail_ms"] = tail(latencies)[0] * 1e3
            result.layers["trace.overhead_p50_ms"] = (
                median(traced_latencies) - median(latencies)
            ) * 1e3
            outcomes += traced_outcomes
    finally:
        mix.close()

    checked, mismatched = check_sample(outcomes, seed)
    result.attempted += checked
    result.failed += mismatched
    if mismatched:
        result.notes.append(
            f"FAILED check: {mismatched} of {checked} sampled responses "
            "differ from offline api.tune"
        )
    return result, tracer
