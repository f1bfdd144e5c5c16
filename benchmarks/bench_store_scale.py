"""Result-store scale: the SQLite backend vs JSONL at a million records.

Populates one store per backend (jsonl, sqlite) with N
synthetic campaign records and measures the two costs that dominate
store use at scale:

* **cold open** — constructing a ``ResultStore`` over the existing
  store and answering one membership probe.  The JSONL tier parses the
  whole file; SQLite opens in (near-)constant time.
* **recall-by-key** — a *fresh* store instance answering K random
  ``get()`` calls, i.e. what a new campaign/serving process pays to
  recall a handful of results.  This is measured with warm OS page
  caches (every store is written then immediately re-read), so the
  ratio isolates store architecture from disk speed: JSONL must still
  scan everything before the first hit, SQLite touches an index and K
  records.
* **batched recall** (``recall_many_s``, reported, not gated) — a
  fresh store instance answering the same K keys in one ``get_many``,
  which is how the campaign engine recalls a plan.

Reported speedups are ratios of JSONL cost over SQLite cost measured
in the same process, so they are comparable across machines and gated
in CI (``store_scale`` kind in ``scripts/check_perf_regression.py``).
CI runs a reduced 10^5-record smoke configuration against its own
baseline; the committed 10^6 baseline documents the at-scale claim.

Runs standalone with JSON output::

    python benchmarks/bench_store_scale.py --records 1000000 \
        --json store-scale.json

or under pytest alongside the other benches (a small configuration that
sanity-checks backend equivalence on the same synthetic load).
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

from repro.campaign.store import ResultStore, job_key

#: Default synthetic-store size (the ROADMAP's 10^6-record target).
DEFAULT_RECORDS = 1_000_000

#: Keys recalled per fresh-open recall measurement.
DEFAULT_LOOKUPS = 64

#: Synthetic app axis (keeps summary() breakdowns non-trivial).
APPS = 512

BACKENDS = ("jsonl", "sqlite")


def synthetic_item(i: int) -> tuple[str, dict, dict]:
    """One deterministic (key, descriptor, result) triple."""
    descriptor = {"mode": "synthetic", "app": f"app-{i % APPS}", "i": i}
    result = {
        "node_energy_j": 1000.0 + (i % 7919) * 0.125,
        "cpu_energy_j": 600.0 + (i % 6101) * 0.0625,
        "time_s": 1.0 + (i % 997) * 0.001953125,
    }
    return job_key(descriptor), descriptor, result


def populate(path: Path, backend: str, records: int, chunk: int = 50_000) -> float:
    """Bulk-load a fresh store; returns wall seconds."""
    start = time.perf_counter()
    with ResultStore(path, backend=backend) as store:
        for lo in range(0, records, chunk):
            store.put_many(
                [synthetic_item(i) for i in range(lo, min(lo + chunk, records))]
            )
    return time.perf_counter() - start


def store_size_bytes(path: Path) -> int:
    total = path.stat().st_size
    wal = path.with_name(path.name + "-wal")  # sqlite sidecar files
    if wal.exists():
        total += wal.stat().st_size
    return total


def measure_cold_open(path: Path, probe_key: str, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        with ResultStore(path) as store:
            assert probe_key in store
        best = min(best, time.perf_counter() - start)
    return best


def measure_recall(path: Path, keys: list[str], repeats: int) -> float:
    """Fresh-open + K gets (the cost a new process pays to recall)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        with ResultStore(path) as store:
            for key in keys:
                if store.get(key) is None:
                    raise AssertionError(f"lost record {key} in {path}")
        best = min(best, time.perf_counter() - start)
    return best


def measure_recall_many(path: Path, keys: list[str], repeats: int) -> float:
    """Fresh-open + one K-key ``get_many`` (how the engine recalls)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        with ResultStore(path) as store:
            if len(store.get_many(keys)) != len(set(keys)):
                raise AssertionError(f"lost records in {path}")
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(
    workdir: Path,
    records: int = DEFAULT_RECORDS,
    lookups: int = DEFAULT_LOOKUPS,
    repeats: int = 2,
) -> dict:
    rng = random.Random(20190520)
    sample = [synthetic_item(rng.randrange(records)) for _ in range(lookups)]
    sample_keys = [key for key, _, _ in sample]
    probe_key = sample_keys[0]

    report_backends: dict[str, dict] = {}
    payloads: dict[str, list] = {}
    for backend in BACKENDS:
        path = workdir / f"store.{backend}"
        path.unlink(missing_ok=True)
        populate_s = populate(path, backend, records)
        cold_open_s = measure_cold_open(path, probe_key, repeats)
        recall_s = measure_recall(path, sample_keys, repeats)
        recall_many_s = measure_recall_many(path, sample_keys, repeats)
        with ResultStore(path) as store:
            payloads[backend] = [store.get(key) for key in sample_keys]
        report_backends[backend] = {
            "populate_s": populate_s,
            "size_bytes": store_size_bytes(path),
            "cold_open_s": cold_open_s,
            "recall_s": recall_s,
            "recall_us_per_key": recall_s / lookups * 1e6,
            "recall_many_s": recall_many_s,
        }

    expected = [result for _, _, result in sample]
    identical = all(payloads[backend] == expected for backend in BACKENDS)
    jsonl, sqlite = report_backends["jsonl"], report_backends["sqlite"]
    sqlite["cold_open_speedup"] = jsonl["cold_open_s"] / sqlite["cold_open_s"]
    sqlite["recall_speedup"] = jsonl["recall_s"] / sqlite["recall_s"]

    return {
        "benchmark": "store_scale",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "records": records,
        "lookups": lookups,
        "repeats": repeats,
        "backends": report_backends,
        "payloads_identical": identical,
    }


def render(report: dict) -> str:
    lines = [
        f"{report['records']} records, {report['lookups']} recalls per open",
        f"{'backend':<9} {'size':>9} {'populate':>9} {'cold open':>10} "
        f"{'recall':>10} {'get_many':>10} {'open-speedup':>13} "
        f"{'recall-speedup':>15}",
    ]
    for backend in BACKENDS:
        entry = report["backends"][backend]
        open_speedup = (
            f"{entry['cold_open_speedup']:>12.1f}x"
            if "cold_open_speedup" in entry
            else f"{'—':>13}"
        )
        recall_speedup = (
            f"{entry['recall_speedup']:>14.1f}x"
            if "recall_speedup" in entry
            else f"{'—':>15}"
        )
        lines.append(
            f"{backend:<9} {entry['size_bytes'] / 1e6:>7.1f}MB "
            f"{entry['populate_s']:>8.2f}s {entry['cold_open_s'] * 1e3:>8.1f}ms "
            f"{entry['recall_s'] * 1e3:>8.1f}ms "
            f"{entry['recall_many_s'] * 1e3:>8.1f}ms {open_speedup} {recall_speedup}"
        )
    lines.append(f"payloads identical: {report['payloads_identical']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry point (runs with the bench harness)
# ---------------------------------------------------------------------------

def test_store_scale(benchmark, tmp_path):
    report = benchmark.pedantic(
        lambda: run_benchmark(tmp_path, records=5_000, repeats=1),
        rounds=1,
        iterations=1,
    )
    print()
    print(render(report))
    # Smoke-level guarantees only: at toy sizes the constant factors
    # dominate, so the at-scale ratios are asserted by the committed
    # baseline + CI gate, not here.  Equivalence must hold at any size.
    assert report["payloads_identical"] is True
    assert report["backends"]["sqlite"]["recall_speedup"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=DEFAULT_RECORDS)
    parser.add_argument("--lookups", type=int, default=DEFAULT_LOOKUPS)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="where the synthetic stores are written (default: a temp dir)",
    )
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full report as JSON")
    args = parser.parse_args(argv)

    import tempfile

    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
        report = run_benchmark(
            args.workdir, args.records, args.lookups, args.repeats
        )
    else:
        with tempfile.TemporaryDirectory(prefix="bench-store-scale-") as tmp:
            report = run_benchmark(
                Path(tmp), args.records, args.lookups, args.repeats
            )
    print(render(report))
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
