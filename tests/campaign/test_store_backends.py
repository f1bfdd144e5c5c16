"""Property-based equivalence of the pluggable store backends.

Every backend (jsonl, sqlite — plus the in-memory reference)
must expose *identical* observable ``ResultStore`` semantics: the same
gets, membership, lengths, summaries, stale accounting, version-mismatch
errors and stale-healing behaviour for any sequence of operations.  The
hypothesis suite drives all backends with the same randomly generated
operation sequence and compares them against the in-memory model after
every step; the deterministic tests below pin the semantics the rest of
the codebase relies on, once per backend.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.backends import (
    BACKEND_KINDS,
    SQLITE_KEYS_PER_QUERY,
    detect_backend_kind,
)
from repro.campaign.store import STORE_VERSION, ResultStore, job_key
from repro.errors import CampaignError

DISK_BACKENDS = tuple(BACKEND_KINDS)  # ("jsonl", "sqlite")


_SUFFIXES = {"jsonl": ".jsonl", "sqlite": ".sqlite"}


def store_for(tmp_path, backend: str, name: str = "store") -> ResultStore:
    path = tmp_path / f"{name}-{backend}{_SUFFIXES[backend]}"
    return ResultStore(path, backend=backend)


def descriptor(i: int) -> dict:
    return {"mode": "synthetic", "app": f"app-{i % 5}", "i": i}


def result(i: int, generation: int = 0) -> dict:
    return {"node_energy_j": float(i) + generation * 0.5, "time_s": 1.0 + i}


# ---------------------------------------------------------------------------
# Hypothesis: all backends behave like the in-memory model
# ---------------------------------------------------------------------------

# An operation is (op, item-index, generation); small index pools force
# key collisions so the no-op-on-existing path is exercised constantly.
operations = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "contains"]),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=30,
)


@settings(max_examples=25, deadline=None)
@given(ops=operations)
def test_backends_equivalent_under_random_operations(tmp_path_factory, ops):
    tmp_path = tmp_path_factory.mktemp("equiv")
    model = ResultStore()  # in-memory reference
    stores = {b: store_for(tmp_path, b) for b in DISK_BACKENDS}
    try:
        for op, i, generation in ops:
            key = job_key(descriptor(i))
            if op == "put":
                model.put(key, descriptor(i), result(i, generation))
                for store in stores.values():
                    store.put(key, descriptor(i), result(i, generation))
            elif op == "get":
                expected = model.get(key)
                for backend, store in stores.items():
                    assert store.get(key) == expected, backend
            else:
                expected = key in model
                for backend, store in stores.items():
                    assert (key in store) == expected, backend
        # Terminal state: identical length, membership and summaries.
        model_summary = model.summary()
        for backend, store in stores.items():
            assert len(store) == len(model), backend
            summary = store.summary()
            for field in ("results", "stale", "apps", "modes"):
                assert summary[field] == model_summary[field], backend
            recs = sorted(store.iter_records(), key=lambda r: r["key"])
            model_recs = sorted(model.iter_records(), key=lambda r: r["key"])
            assert recs == model_recs, backend
        # And the state survives a close + reopen on every disk tier.
        for backend, store in stores.items():
            path = store.path
            store.close()
            with ResultStore(path) as reopened:
                assert reopened.backend == backend
                assert len(reopened) == len(model)
                for i in range(10):
                    key = job_key(descriptor(i))
                    assert reopened.get(key) == model.get(key), backend
    finally:
        for store in stores.values():
            store.close()


@settings(max_examples=15, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8
    )
)
def test_floats_round_trip_exactly_on_every_backend(tmp_path_factory, values):
    tmp_path = tmp_path_factory.mktemp("floats")
    for backend in DISK_BACKENDS:
        with store_for(tmp_path, backend) as store:
            desc = {"mode": "synthetic", "app": "fp", "i": 0}
            key = job_key(desc)
            store.put(key, desc, {"series": values})
            recalled = store.get(key)["series"]
            assert recalled == values
            assert [repr(v) for v in recalled] == [repr(v) for v in values]


# ---------------------------------------------------------------------------
# Deterministic semantics, once per backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", DISK_BACKENDS)
class TestPerBackendSemantics:
    def test_version_mismatch_raises_campaign_error(self, tmp_path, backend):
        with store_for(tmp_path, backend) as store:
            desc = descriptor(0)
            key = job_key(desc)
            store._backend.put_records(
                [
                    {
                        "key": key,
                        "store_version": STORE_VERSION - 1,
                        "job": desc,
                        "result": result(0),
                    }
                ]
            )
            store.refresh()
            assert store.stale_records == 1
            with pytest.raises(CampaignError, match="schema version"):
                store.get(key)

    def test_put_heals_stale_record(self, tmp_path, backend):
        with store_for(tmp_path, backend) as store:
            desc = descriptor(1)
            key = job_key(desc)
            store._backend.put_records(
                [
                    {
                        "key": key,
                        "store_version": STORE_VERSION - 1,
                        "job": desc,
                        "result": result(1),
                    }
                ]
            )
            store.refresh()
            assert store.stale_records == 1
            store.put(key, desc, result(1, generation=9))
            assert store.get(key) == result(1, generation=9)
            assert store.stale_records == 0
            path = store.path
        with ResultStore(path) as reopened:  # healing is durable
            assert reopened.get(key) == result(1, generation=9)
            assert reopened.stale_records == 0

    def test_put_is_noop_for_existing_current_record(self, tmp_path, backend):
        with store_for(tmp_path, backend) as store:
            desc = descriptor(2)
            key = job_key(desc)
            store.put(key, desc, result(2, generation=0))
            store.put(key, desc, result(2, generation=1))  # ignored
            assert store.get(key) == result(2, generation=0)
            assert len(store) == 1

    def test_key_descriptor_mismatch_rejected(self, tmp_path, backend):
        with store_for(tmp_path, backend) as store:
            with pytest.raises(CampaignError, match="does not match"):
                store.put("0" * 32, descriptor(3), result(3))

    def test_put_many_round_trips(self, tmp_path, backend):
        items = [
            (job_key(descriptor(i)), descriptor(i), result(i)) for i in range(7)
        ]
        with store_for(tmp_path, backend) as store:
            store.put_many(items)
            path = store.path
            assert len(store) == 7
        with ResultStore(path) as reopened:
            for key, _, payload in items:
                assert reopened.get(key) == payload

    def test_compact_drops_stale_keeps_current(self, tmp_path, backend):
        with store_for(tmp_path, backend) as store:
            stale_desc = descriptor(4)
            stale_key = job_key(stale_desc)
            store._backend.put_records(
                [
                    {
                        "key": stale_key,
                        "store_version": STORE_VERSION - 1,
                        "job": stale_desc,
                        "result": result(4),
                    }
                ]
            )
            store.refresh()
            other = descriptor(5)
            store.put(job_key(other), other, result(5))
            assert store.stale_records == 1
            stats = store.compact()
            assert stats["dropped"] >= 1
            assert store.get(stale_key) is None  # dead record reclaimed
            assert store.get(job_key(other)) == result(5)
            assert store.stale_records == 0
            assert store.verify() == []
            path = store.path
        with ResultStore(path) as reopened:
            assert len(reopened) == 1
            assert reopened.stale_records == 0

    def test_summary_names_backend(self, tmp_path, backend):
        with store_for(tmp_path, backend) as store:
            assert store.summary()["backend"] == backend


# ---------------------------------------------------------------------------
# Batched reads and shard writes, once per backend
# ---------------------------------------------------------------------------


def any_store(tmp_path, backend: str) -> ResultStore:
    return ResultStore() if backend == "memory" else store_for(tmp_path, backend)


def stale_record(i: int) -> dict:
    return {
        "key": job_key(descriptor(i)),
        "store_version": STORE_VERSION - 1,
        "job": descriptor(i),
        "result": result(i),
    }


@pytest.mark.parametrize("backend", ("memory",) + DISK_BACKENDS)
class TestBatchedContract:
    def test_mixed_batch_matches_per_key_gets(self, tmp_path, backend):
        with any_store(tmp_path, backend) as store:
            for i in range(0, 10, 2):
                store.put(job_key(descriptor(i)), descriptor(i), result(i))
            keys = [job_key(descriptor(i)) for i in (3, 0, 4, 4, 9, 8)]
            got = store.get_many(keys)
            assert got == {k: store.get(k) for k in keys if store.get(k) is not None}
            assert set(got) == {keys[1], keys[2], keys[5]}

    def test_stale_record_raises_as_get_does(self, tmp_path, backend):
        with any_store(tmp_path, backend) as store:
            store.put(job_key(descriptor(0)), descriptor(0), result(0))
            store._backend.put_records([stale_record(1)])
            store.refresh()
            keys = [job_key(descriptor(i)) for i in (0, 1, 2)]
            with pytest.raises(CampaignError) as single:
                store.get(keys[1])
            with pytest.raises(CampaignError) as batch:
                store.get_many(keys)
            assert str(batch.value) == str(single.value)

    def test_batch_beyond_sqlite_chunk_size(self, tmp_path, backend):
        n = SQLITE_KEYS_PER_QUERY + 250
        items = [(job_key(descriptor(i)), descriptor(i), result(i)) for i in range(n)]
        with any_store(tmp_path, backend) as store:
            store.put_many(items[::2])
            keys = [key for key, _, _ in items]
            got = store.get_many(keys)
            assert got == {key: payload for key, _, payload in items[::2]}
            assert len(keys) > SQLITE_KEYS_PER_QUERY

    def test_shard_write_leaves_current_record_untouched(self, tmp_path, backend):
        with any_store(tmp_path, backend) as store:
            key0 = job_key(descriptor(0))
            store.put(key0, descriptor(0), result(0, generation=0))
            store.put_many(
                [
                    (job_key(descriptor(i)), descriptor(i), result(i, generation=1))
                    for i in range(3)
                ]
            )
            assert store.get(key0) == result(0, generation=0)
            for i in (1, 2):
                assert store.get(job_key(descriptor(i))) == result(i, generation=1)
            assert len(store) == 3
            path = store.path
        if path is not None:
            with ResultStore(path) as reopened:
                assert reopened.get(key0) == result(0, generation=0)

    def test_shard_write_heals_other_version_record(self, tmp_path, backend):
        with any_store(tmp_path, backend) as store:
            store._backend.put_records([stale_record(1)])
            store.refresh()
            assert store.stale_records == 1
            store.put_many(
                [
                    (job_key(descriptor(i)), descriptor(i), result(i, generation=9))
                    for i in range(3)
                ]
            )
            assert store.stale_records == 0
            got = store.get_many([job_key(descriptor(i)) for i in range(3)])
            assert list(got.values()) == [result(i, generation=9) for i in range(3)]

    def test_shard_write_checks_every_new_key(self, tmp_path, backend):
        with any_store(tmp_path, backend) as store:
            good = (job_key(descriptor(0)), descriptor(0), result(0))
            with pytest.raises(CampaignError, match="does not match"):
                store.put_many([good, ("0" * 32, descriptor(1), result(1))])


# ---------------------------------------------------------------------------
# Backend auto-detection
# ---------------------------------------------------------------------------


class TestDetection:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("store.jsonl", "jsonl"),
            ("store.ndjson", "jsonl"),
            ("store.sqlite", "sqlite"),
            ("store.sqlite3", "sqlite"),
            ("store.db", "sqlite"),
            ("store", "jsonl"),
            ("store.cache", "jsonl"),
        ],
    )
    def test_kind_from_fresh_path(self, tmp_path, name, expected):
        assert detect_backend_kind(tmp_path / name) == expected

    def test_suffixless_fresh_path_opens_as_jsonl(self, tmp_path):
        target = tmp_path / "store"
        desc = descriptor(7)
        with ResultStore(target) as store:
            assert store.backend == "jsonl"
            store.put(job_key(desc), desc, result(7))
        assert target.is_file()
        with ResultStore(target) as reopened:
            assert reopened.backend == "jsonl"
            assert reopened.get(job_key(desc)) == result(7)

    @pytest.mark.parametrize("backend", (None,) + DISK_BACKENDS)
    @pytest.mark.parametrize("name", ("store-directory", "store.sqlite"))
    def test_existing_directory_is_refused(self, tmp_path, name, backend):
        target = tmp_path / name
        target.mkdir()
        with pytest.raises(CampaignError, match="is a directory") as excinfo:
            ResultStore(target, backend=backend)
        assert str(target) in str(excinfo.value)
        assert list(target.iterdir()) == []

    def test_existing_sqlite_file_sniffed_by_magic(self, tmp_path):
        target = tmp_path / "store.cache"
        with ResultStore(target, backend="sqlite") as store:
            desc = descriptor(6)
            store.put(job_key(desc), desc, result(6))
        assert detect_backend_kind(target) == "sqlite"
        with ResultStore(target) as reopened:  # sniffed, not suffix-matched
            assert reopened.backend == "sqlite"
            assert reopened.get(job_key(descriptor(6))) == result(6)

    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_existing_suffixless_file_sniffed(self, tmp_path, backend):
        target = tmp_path / "store"
        desc = descriptor(9)
        with ResultStore(target, backend=backend) as store:
            store.put(job_key(desc), desc, result(9))
        assert detect_backend_kind(target) == backend
        with ResultStore(target) as reopened:
            assert reopened.backend == backend
            assert reopened.get(job_key(desc)) == result(9)

    def test_unknown_backend_name_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="unknown store backend"):
            ResultStore(tmp_path / "x.jsonl", backend="parquet")

    def test_reopen_without_backend_arg_round_trips(self, tmp_path):
        for backend in DISK_BACKENDS:
            desc = descriptor(8)
            key = job_key(desc)
            with store_for(tmp_path, backend) as store:
                store.put(key, desc, result(8))
                path = store.path
            with ResultStore(path) as reopened:
                assert reopened.backend == backend
                assert reopened.get(key) == result(8)


def test_jsonl_layout_unchanged_on_disk(tmp_path):
    """The jsonl tier must stay byte-compatible with the seed layout
    (one sorted-key JSON object per line) so old stores keep working."""
    path = tmp_path / "store.jsonl"
    desc = descriptor(0)
    key = job_key(desc)
    with ResultStore(path) as store:
        store.put(key, desc, result(0))
    line = path.read_text().strip()
    assert json.loads(line) == {
        "key": key,
        "store_version": STORE_VERSION,
        "job": desc,
        "result": result(0),
    }
    assert line == json.dumps(json.loads(line), sort_keys=True)
