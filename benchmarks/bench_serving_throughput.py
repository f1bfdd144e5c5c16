"""Serving throughput: cross-request batching vs one-sweep-per-request.

A closed-loop load generator drives :class:`repro.serve.service.
TuningService.handle` directly (transport-free — the HTTP shell is
covered by the CI serving smoke) with the workload the serving layer
exists for: per round, a pool of clients tunes the *same* benchmark
grid — a few asking for different objectives, the rest pricing their
own candidate tuning model (TMM) against it.  All of those requests
share one grid key, so the batched service measures the CF x UCF grid
once per round and answers every client from it, while the unbatched
control arm pays one full sweep per distinct request.

Reported per arm: sustained requests/second and p50/p95/p99 response
latency; the aggregate carries the batched/unbatched throughput ratio
(machine-comparable, gated in CI against the committed baseline at
``benchmarks/baselines/serving-throughput.json``), the coalescing
counter, and a bit-equality flag — every batched response must equal
its unbatched twin, which in turn equals offline ``repro.api.tune``.

A **light-load** arm follows: one client sends its requests one at a
time, each a fresh grid, to a batched and to an unbatched service.
Nothing can coalesce, so batching must cost nothing: the gated flag
``no_admission_delay`` holds when the batched p50 is at most
``LIGHT_LOAD_P50_BOUND`` times the unbatched p50.  An admission timer
that makes a lone request wait for batch-mates fails it.  One such p50
covers a dozen requests of a few milliseconds, so a single scheduler
hiccup can move it past the bound: the pair of arms is measured
``LIGHT_LOAD_REPETITIONS`` times, alternating which arm runs first, and
the flag gates the median of the per-repetition ratios.

An ungated **fresh-request** entry closes the report
(``fresh_request_ms``): the median cost of ``FRESH_REQUESTS`` lone
requests for cold grids on a warm service over a SQLite store, each
admitted as :meth:`TuningService.handle` admits it, looked up in the
store (a miss) and answered by ``answer_group``, with the median of each
component alongside: admission, the store miss, the fleet kernel (split
into its keyed noise — seed digests and lognormal draws, the floor the
golden digests fix — and the rest), the store write, and the rest of
``answer_group``.  ``fresh_tmm_request_ms`` has the same components for
fresh requests that also carry a tuning model, whose dynamic run the
same engine run prices.

``--workers N`` switches to the **scaling** benchmark instead: each
client tunes its *own* grid (distinct seeds — no coalescing between
clients, so every request is an independent group) against a fresh
SQLite store, and the same load is replayed at a curve of worker-pool
widths up to N.  The gated metric is ``aggregate.efficiency`` —
parallel speedup normalised by ``min(workers, cores)`` — because the
raw speedup is a property of the machine: on the single-core
containers this repo develops in, a 4-worker pool *cannot* beat one
in-process thread on wall clock (the committed baseline records
exactly that machine context in ``cores``), while on a multi-core CI
runner the same workload shows the real multiple.  Efficiency is
portable across both; broken parallelism drops it on any machine with
cores to spare.  ``parallel_speedup`` is reported ungated alongside.
Bit-equality is gated in both modes.

Runs standalone with JSON output (the CI perf-smoke step uploads the
artifact)::

    python benchmarks/bench_serving_throughput.py --clients 8 --rounds 3 \
        --json serving-throughput.json
    python benchmarks/bench_serving_throughput.py --workers 4 --rounds 2 \
        --json serving-scaling.json

or under pytest alongside the other benches.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import config
from repro.campaign.store import ResultStore
from repro.execution import fleet_replay
from repro.execution.simulator import OperatingPoint
from repro.readex.tuning_model import TuningModel
from repro.serve.batcher import answer_group
from repro.serve.schema import WIRE_VERSION, check_admissible, parse_request
from repro.serve.service import TuningService

DEFAULT_CLIENTS = 8
DEFAULT_ROUNDS = 3
DEFAULT_BENCHMARK = "EP"
DEFAULT_STRIDE = 1

OBJECTIVES = ("energy", "edp", "ed2p")

#: The light-load gate: batched p50 over unbatched p50 stays at or
#: under this when no request has a batch-mate.
LIGHT_LOAD_P50_BOUND = 1.25

#: Light-load repetitions; odd, so the median is one measured ratio.
LIGHT_LOAD_REPETITIONS = 5

#: Lone cold-grid requests timed for ``fresh_request_ms``; odd, so each
#: median is one measured request.
FRESH_REQUESTS = 25


def client_tmm(index: int) -> str:
    """A distinct candidate TMM per client (one tuned region each)."""
    model = TuningModel.from_best_configs(
        DEFAULT_BENCHMARK,
        "phase",
        {
            f"candidate-{index}": OperatingPoint(
                core_freq_ghz=config.CORE_FREQUENCIES_GHZ[
                    index % len(config.CORE_FREQUENCIES_GHZ)
                ],
                uncore_freq_ghz=config.UNCORE_FREQUENCIES_GHZ[
                    index % len(config.UNCORE_FREQUENCIES_GHZ)
                ],
                threads=config.DEFAULT_OPENMP_THREADS,
            )
        },
    )
    return model.to_json()


def phase_tmm(benchmark: str) -> str:
    """The TMM the fresh TMM requests carry: the benchmark's phase
    region at 2.4 | 2.0 GHz."""
    point = OperatingPoint(2.4, 2.0, config.DEFAULT_OPENMP_THREADS)
    return TuningModel.from_best_configs(
        benchmark, "phase", {"phase": point}
    ).to_json()


def round_requests(
    clients: int, round_index: int, benchmark: str, stride: int
) -> list[dict]:
    """One round's request mix: distinct identities, one grid key.

    The first three clients ask for the three objectives; the rest each
    price their own TMM.  ``seed=round_index`` makes every round a
    fresh grid (nothing carries over between rounds), so sustained
    throughput is measured, not a warm cache.
    """
    requests = []
    for client in range(clients):
        payload = {
            "version": WIRE_VERSION,
            "benchmark": benchmark,
            "stride": stride,
            "seed": round_index,
            "objective": OBJECTIVES[client % len(OBJECTIVES)],
        }
        if client >= len(OBJECTIVES):
            payload["tmm"] = client_tmm(client)
        requests.append(payload)
    return requests


async def _drive(service: TuningService, rounds: list[list[dict]]) -> dict:
    latencies: list[float] = []
    responses: list[dict] = []
    start = time.perf_counter()
    for round_payloads in rounds:
        async def timed(payload: dict) -> dict:
            began = time.perf_counter()
            response = await service.handle(payload)
            latencies.append(time.perf_counter() - began)
            return response

        responses.extend(
            await asyncio.gather(*(timed(p) for p in round_payloads))
        )
    elapsed = time.perf_counter() - start
    worker_pool = service.metrics_payload()["worker_pool"]
    await service.aclose()
    ordered = sorted(latencies)

    def quantile(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return {
        "responses": responses,
        "requests": len(latencies),
        "elapsed_s": elapsed,
        "rps": len(latencies) / elapsed,
        "p50_ms": quantile(0.50) * 1e3,
        "p95_ms": quantile(0.95) * 1e3,
        "p99_ms": quantile(0.99) * 1e3,
        "coalesced": service.batcher.coalesced,
        "groups_fired": service.batcher.groups_fired,
        "worker_pool": worker_pool,
    }


def measure_arm(admission: str, rounds: list[list[dict]]) -> dict:
    """Drive one arm: ``"batched"`` coalesces up to 64 requests per
    group, ``"unbatched"`` (the control) fires every request alone."""
    service = TuningService(max_batch=64 if admission == "batched" else 1)
    return asyncio.run(_drive(service, rounds))


def light_load_requests(
    count: int, first_seed: int, benchmark: str, stride: int
) -> list[list[dict]]:
    """One client, one request in flight: every round is one request.

    Each request tunes a fresh grid (its own seed), so both arms pay a
    cold measurement per request and nothing is answered from cache.
    """
    return [
        [
            {
                "version": WIRE_VERSION,
                "benchmark": benchmark,
                "stride": stride,
                "seed": first_seed + index,
                "objective": OBJECTIVES[index % len(OBJECTIVES)],
            }
        ]
        for index in range(count)
    ]


def measure_light_load(
    requests: int, benchmark: str, stride: int
) -> list[tuple[dict, dict]]:
    """``LIGHT_LOAD_REPETITIONS`` (batched, unbatched) light-load pairs.

    Which arm runs first alternates between repetitions, so neither
    always meets the warmer (or the busier) machine.  Every arm of every
    repetition gets its own seeds, which keeps all grids cold.
    """
    pairs = []
    for repetition in range(LIGHT_LOAD_REPETITIONS):
        order = ("batched", "unbatched")
        if repetition % 2:
            order = order[::-1]
        arms = {}
        for admission in order:
            first_seed = 20_000 + (2 * repetition + len(arms)) * requests
            arms[admission] = measure_arm(
                admission,
                light_load_requests(requests, first_seed, benchmark, stride),
            )
        pairs.append((arms["batched"], arms["unbatched"]))
    return pairs


def measure_fresh_requests(
    count: int, benchmark: str, stride: int, tmm: str | None = None
) -> dict:
    """Median milliseconds of one fresh request, whole and by component.

    A warm service over a fresh SQLite store takes ``count`` requests,
    each for its own cold grid (its own seed) and carrying ``tmm``, one
    at a time after one warm-up request.  Each is admitted as
    ``TuningService.handle`` does (parse, resolve,
    :func:`~repro.serve.schema.check_admissible`), looked up in the
    store as the service's store fast path does (its planned jobs, then
    their failure records: a miss), and answered by
    ``answer_group``, the execution a lone request's group gets.  Inside
    that, the fleet kernel, its keyed noise and the store write are
    timed by wrapping ``fleet_replay.fleet_run``,
    ``fleet_replay._draw_noise`` and the store's ``put_many``.
    """
    spent: collections.Counter = collections.Counter()

    def timed(name, function):
        def wrapper(*args, **kwargs):
            began = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - began

        return wrapper

    samples: dict[str, list[float]] = collections.defaultdict(list)
    fleet_run = fleet_replay.fleet_run
    draw_noise = fleet_replay._draw_noise
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "fresh.sqlite")
        service = TuningService(store=store)
        engine = service.engine
        store.put_many = timed("store_write", store.put_many)
        fleet_replay.fleet_run = timed("fleet_kernel", fleet_run)
        fleet_replay._draw_noise = timed("noise", draw_noise)
        try:
            for index in range(count + 1):
                spent.clear()
                began = time.perf_counter()
                request = parse_request(
                    {
                        "version": WIRE_VERSION,
                        "benchmark": benchmark,
                        "stride": stride,
                        "seed": 30_000 + index,
                        "tmm": tmm,
                    }
                ).resolved()
                check_admissible(
                    request, service.options.resolve_cluster(request.seed)
                )
                admitted = time.perf_counter()
                keys = engine.job_keys(request.jobs())
                _, _, pending = engine.recall(keys)
                looked_up = time.perf_counter()
                assert len(pending) == len(keys), "a fresh grid hit the store"
                answer_group([request], service.options)
                answered = time.perf_counter()
                if index == 0:
                    continue  # warm-up
                samples["admission_ms"].append(admitted - began)
                samples["store_miss_ms"].append(looked_up - admitted)
                for name in ("fleet_kernel", "noise", "store_write"):
                    samples[f"{name}_ms"].append(spent[name])
                samples["fleet_other_ms"].append(
                    spent["fleet_kernel"] - spent["noise"]
                )
                samples["answer_other_ms"].append(
                    answered - looked_up - spent["fleet_kernel"] - spent["store_write"]
                )
                samples["median_ms"].append(answered - began)
        finally:
            fleet_replay.fleet_run = fleet_run
            fleet_replay._draw_noise = draw_noise
            asyncio.run(service.aclose())
            store.close()
    report: dict = {
        "requests": count, "app": benchmark, "stride": stride, "tmm": tmm is not None
    }
    report.update(
        {name: statistics.median(values) * 1e3 for name, values in samples.items()}
    )
    return report


def run_benchmark(
    clients: int = DEFAULT_CLIENTS,
    rounds: int = DEFAULT_ROUNDS,
    benchmark: str = DEFAULT_BENCHMARK,
    stride: int = DEFAULT_STRIDE,
) -> dict:
    load = [
        round_requests(clients, r, benchmark, stride) for r in range(rounds)
    ]
    # warm-up round outside the measurement: registry builds, the
    # effective-frequency table, the RNG fast-path tables and first-call
    # imports (same for both arms)
    measure_arm("batched", [round_requests(clients, 10_000, benchmark, stride)])

    batched = measure_arm("batched", load)
    unbatched = measure_arm("unbatched", load)

    identical = all(
        b.get("result") == u.get("result")
        and b.get("status") == u.get("status") == "ok"
        for b, u in zip(batched.pop("responses"), unbatched.pop("responses"))
    )

    light = measure_light_load(clients * rounds, benchmark, stride)
    light_ratios = [
        batched_arm["p50_ms"] / unbatched_arm["p50_ms"]
        for batched_arm, unbatched_arm in light
    ]
    light_ratio = statistics.median(light_ratios)
    light_ok = all(
        response.get("status") == "ok"
        for pair in light
        for arm in pair
        for response in arm.pop("responses")
    )
    # The reported light-load arms are the repetition at the median.
    light_batched, light_unbatched = light[light_ratios.index(light_ratio)]
    aggregate = {
        "speedup": batched["rps"] / unbatched["rps"],
        "responses_identical": identical and light_ok,
        "coalesced": batched["coalesced"],
        "coalescing_engaged": batched["coalesced"] > 0,
        "light_load_p50_ratio": light_ratio,
        "light_load_p50_ratios": light_ratios,
        "no_admission_delay": light_ratio <= LIGHT_LOAD_P50_BOUND,
    }
    return {
        "benchmark": "serving_throughput",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "app": benchmark,
        "clients": clients,
        "rounds": rounds,
        "stride": stride,
        "batched": batched,
        "unbatched": unbatched,
        "light_batched": light_batched,
        "light_unbatched": light_unbatched,
        "aggregate": aggregate,
        "fresh_request_ms": measure_fresh_requests(
            FRESH_REQUESTS, benchmark, stride
        ),
        "fresh_tmm_request_ms": measure_fresh_requests(
            FRESH_REQUESTS, benchmark, stride, tmm=phase_tmm(benchmark)
        ),
    }


# ---------------------------------------------------------------------------
# scaling mode (--workers N): independent grids across a worker curve
# ---------------------------------------------------------------------------

def scaling_round_requests(
    clients: int, round_index: int, benchmark: str, stride: int
) -> list[dict]:
    """One scaling round: every client tunes its *own* grid.

    Distinct seeds give distinct grid keys, so no two requests share a
    measurement.  The round still coalesces into one group, which the
    worker pool splits by grid key; the only way to go faster is to
    execute those parts concurrently.  This is the workload the
    batching benchmark deliberately excludes, and vice versa.
    """
    return [
        {
            "version": WIRE_VERSION,
            "benchmark": benchmark,
            "stride": stride,
            "seed": 1_000 + round_index * clients + client,
            "objective": OBJECTIVES[client % len(OBJECTIVES)],
        }
        for client in range(clients)
    ]


def measure_scaling_arm(
    workers: int, rounds: list[list[dict]], benchmark: str
) -> dict:
    """One pool width, fresh SQLite store, same load as every arm."""
    with tempfile.TemporaryDirectory(prefix="serving-scaling-") as tmp:
        service = TuningService(
            store=ResultStore(Path(tmp) / "scaling.sqlite"),
            max_batch=64,
            workers=workers,
            warm=(benchmark,),
        )
        assert service.pool_fallback is None, service.pool_fallback
        result = asyncio.run(_drive(service, rounds))
    result["workers"] = workers
    return result


def workers_curve(max_workers: int) -> list[int]:
    """1, 2, 4, ... up to (and always including) ``max_workers``."""
    curve = [1]
    while curve[-1] * 2 < max_workers:
        curve.append(curve[-1] * 2)
    if max_workers > 1:
        curve.append(max_workers)
    return curve


def run_scaling_benchmark(
    max_workers: int,
    clients: int = DEFAULT_CLIENTS,
    rounds: int = DEFAULT_ROUNDS,
    benchmark: str = DEFAULT_BENCHMARK,
    stride: int = DEFAULT_STRIDE,
) -> dict:
    load = [
        scaling_round_requests(clients, r, benchmark, stride)
        for r in range(rounds)
    ]
    # warm-up outside the measurement (registry caches, schedule
    # compilation — the per-arm pools additionally warm at fork)
    measure_scaling_arm(
        1, [scaling_round_requests(clients, 10_000, benchmark, stride)],
        benchmark,
    )
    arms = [
        measure_scaling_arm(workers, load, benchmark)
        for workers in workers_curve(max_workers)
    ]
    reference = arms[0].pop("responses")
    identical = all(r.get("status") == "ok" for r in reference)
    for arm in arms[1:]:
        identical = identical and all(
            a.get("result") == r.get("result")
            and a.get("status") == r.get("status") == "ok"
            for a, r in zip(arm.pop("responses"), reference)
        )
    cores = os.cpu_count() or 1
    speedup = arms[-1]["rps"] / arms[0]["rps"]
    aggregate = {
        "max_workers": max_workers,
        "cores": cores,
        # raw machine-bound multiple (reported, not gated) ...
        "parallel_speedup": speedup,
        # ... and the portable gated metric: speedup per usable core.
        "efficiency": speedup / min(max_workers, cores),
        "responses_identical": identical,
    }
    return {
        "benchmark": "serving_scaling",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": cores,
        "app": benchmark,
        "clients": clients,
        "rounds": rounds,
        "stride": stride,
        "arms": arms,
        "aggregate": aggregate,
    }


def render_scaling(report: dict) -> str:
    lines = [
        f"{'workers':<8} {'req':>5} {'req/s':>8} {'p50':>9} {'p95':>9} "
        f"{'pids':>5}",
    ]
    for arm in report["arms"]:
        pids = len(arm["worker_pool"].get("groups_per_worker", {}))
        lines.append(
            f"{arm['workers']:<8} {arm['requests']:>5} {arm['rps']:>8.1f} "
            f"{arm['p50_ms']:>7.1f}ms {arm['p95_ms']:>7.1f}ms {pids:>5}"
        )
    a = report["aggregate"]
    lines.append(
        f"{'aggregate':<8} speedup {a['parallel_speedup']:.2f}x on "
        f"{a['cores']} core(s)  efficiency {a['efficiency']:.2f}  "
        f"identical {a['responses_identical']}"
    )
    return "\n".join(lines)


def render(report: dict) -> str:
    lines = [
        f"{'arm':<16} {'req':>5} {'req/s':>8} {'p50':>9} {'p99':>9} "
        f"{'sweeps':>7}",
    ]
    for arm in ("batched", "unbatched", "light_batched", "light_unbatched"):
        r = report[arm]
        lines.append(
            f"{arm:<16} {r['requests']:>5} {r['rps']:>8.1f} "
            f"{r['p50_ms']:>7.1f}ms {r['p99_ms']:>7.1f}ms "
            f"{r['groups_fired']:>7}"
        )
    a = report["aggregate"]
    lines.append(
        f"{'aggregate':<16} speedup {a['speedup']:.1f}x  "
        f"coalesced {a['coalesced']}  "
        f"identical {a['responses_identical']}  "
        f"light p50 ratio {a['light_load_p50_ratio']:.2f} (median of "
        f"{len(a['light_load_p50_ratios'])}) "
        f"(no admission delay {a['no_admission_delay']})"
    )
    for label, entry in (
        ("fresh request", "fresh_request_ms"),
        ("fresh TMM req.", "fresh_tmm_request_ms"),
    ):
        f = report[entry]
        lines.append(
            f"{label:<16} median {f['median_ms']:.2f} ms of "
            f"{f['requests']}: admission {f['admission_ms']:.2f}, store miss "
            f"{f['store_miss_ms']:.2f}, fleet kernel {f['fleet_kernel_ms']:.2f} "
            f"(noise {f['noise_ms']:.2f}, rest {f['fleet_other_ms']:.2f}), "
            f"store write {f['store_write_ms']:.2f}, other "
            f"{f['answer_other_ms']:.2f} ms"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry point (runs with the bench harness)
# ---------------------------------------------------------------------------

def test_serving_throughput(benchmark):
    report = benchmark.pedantic(
        lambda: run_benchmark(clients=6, rounds=2),
        rounds=1,
        iterations=1,
    )
    rendered = render(report)
    print()
    print(rendered)
    aggregate = report["aggregate"]
    # The two timing-based asserts carry the measurement, so a failure
    # under load is diagnosable from the assertion alone.
    measured = (
        f"speedup={aggregate['speedup']:.3f}, "
        f"light_load_p50_ratio={aggregate['light_load_p50_ratio']:.3f} "
        f"(median of {aggregate['light_load_p50_ratios']})\n"
        f"{rendered}"
    )
    assert aggregate["responses_identical"]
    assert aggregate["coalesced"] > 0
    assert aggregate["no_admission_delay"], measured
    # Smoke-level floor only; the committed-baseline ratio gate is the
    # real guard against regressions.
    assert aggregate["speedup"] > 2, measured


def test_serving_scaling(benchmark):
    report = benchmark.pedantic(
        lambda: run_scaling_benchmark(2, clients=4, rounds=1),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_scaling(report))
    # Bit-equality is machine-independent; the speedup is not (a
    # single-core container cannot show one), so it is gated only via
    # the committed-baseline efficiency ratio.
    assert report["aggregate"]["responses_identical"]
    assert report["aggregate"]["efficiency"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--app", default=DEFAULT_BENCHMARK)
    parser.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run the worker-pool scaling benchmark up to N workers "
             "instead of the batching benchmark",
    )
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full report as JSON")
    args = parser.parse_args(argv)
    if args.workers > 1:
        report = run_scaling_benchmark(
            args.workers, args.clients, args.rounds, args.app, args.stride
        )
        print(render_scaling(report))
    else:
        report = run_benchmark(
            args.clients, args.rounds, args.app, args.stride
        )
        print(render(report))
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
