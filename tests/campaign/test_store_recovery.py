"""Crash-recovery and corruption behaviour of the store backends.

The contract: damaged bytes — a truncated JSONL tail after a
crash, a torn SQLite WAL or an overwritten database page — **load as
misses, never as crashes**, and
``repro-campaign store verify`` reports exactly what is damaged.  A
damaged entry is then healed by the next ``put`` of its key (or, for an
unreadable database, surfaced as a clear write-time CampaignError).
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.store import ResultStore, job_key
from repro.errors import CampaignError


def descriptor(i: int) -> dict:
    return {"mode": "synthetic", "app": f"app-{i % 3}", "i": i}


def result(i: int) -> dict:
    return {"node_energy_j": float(i), "time_s": 1.0 + i}


def fill(store: ResultStore, n: int) -> list[str]:
    keys = []
    for i in range(n):
        key = job_key(descriptor(i))
        store.put(key, descriptor(i), result(i))
        keys.append(key)
    return keys


# ---------------------------------------------------------------------------
# JSONL: torn tail after a crashed append
# ---------------------------------------------------------------------------


class TestJsonlRecovery:
    def test_truncated_tail_loads_as_miss(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            keys = fill(store, 5)
        # Crash mid-append: chop the file inside the final record.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 30])

        with ResultStore(path) as store:
            assert len(store) == 4
            for key in keys[:4]:
                assert store.get(key) is not None
            assert store.get(keys[4]) is None  # miss, not a crash
            issues = store.verify()
            assert len(issues) == 1
            assert issues[0]["file"] == str(path)
            assert issues[0]["where"] == "line 5"
            assert "unparseable" in issues[0]["problem"]
            # The next put of the lost key heals the store.
            store.put(keys[4], descriptor(4), result(4))
            assert store.get(keys[4]) == result(4)

        with ResultStore(path) as reopened:
            assert len(reopened) == 5
            # verify still flags the dead half-line until compaction...
            assert len(reopened.verify()) == 1
            reopened.compact()
            assert reopened.verify() == []

    def test_garbage_line_in_middle_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            keys = fill(store, 3)
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json at all")
        lines.insert(3, json.dumps({"unrelated": True}))  # not a record
        path.write_text("\n".join(lines) + "\n")

        with ResultStore(path) as store:
            assert len(store) == 3
            for i, key in enumerate(keys):
                assert store.get(key) == result(i)
            problems = sorted(i["problem"] for i in store.verify())
            assert len(problems) == 2
            assert any("unparseable" in p for p in problems)
            assert any("not a store record" in p for p in problems)


# ---------------------------------------------------------------------------
# SQLite: torn WAL, overwritten pages, non-database bytes
# ---------------------------------------------------------------------------


class TestSqliteRecovery:
    def test_torn_wal_drops_uncommitted_not_committed(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path, backend="sqlite") as store:
            keys = fill(store, 5)
        wal = tmp_path / "store.sqlite-wal"
        # A torn WAL tail (crash mid-commit): garble it if the close
        # checkpointed it away, recreate a bogus one.
        wal.write_bytes(b"\x00garbage" * 16)

        with ResultStore(path) as store:
            # SQLite discards the unusable WAL; committed rows survive.
            assert [store.get(k) for k in keys] == [result(i) for i in range(5)]
            assert store.verify() == []

    def test_overwritten_database_is_all_misses_and_verify_reports(
        self, tmp_path
    ):
        path = tmp_path / "store.sqlite"
        with ResultStore(path, backend="sqlite") as store:
            keys = fill(store, 3)
        for sidecar in (path.with_name(path.name + s) for s in ("-wal", "-shm")):
            if sidecar.exists():
                sidecar.unlink()
        path.write_bytes(b"this is not a database at all\n" * 10)

        with ResultStore(path, backend="sqlite") as store:
            for key in keys:
                assert store.get(key) is None  # misses, no exception
            assert key not in store
            assert len(store) == 0
            issues = store.verify()
            assert len(issues) == 1
            assert issues[0]["file"] == str(path)
            assert "unreadable database" in issues[0]["problem"]
            # Writing into an unreadable database must be loud, though:
            # silently dropping fresh results would masquerade as cache
            # misses forever.
            with pytest.raises(CampaignError, match="cannot write"):
                store.put(keys[0], descriptor(0), result(0))

    def test_corrupt_record_payload_reported_by_key(self, tmp_path):
        import sqlite3

        path = tmp_path / "store.sqlite"
        with ResultStore(path, backend="sqlite") as store:
            keys = fill(store, 2)
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE records SET record = ? WHERE key = ?",
            ("{torn json", keys[0]),
        )
        conn.commit()
        conn.close()

        with ResultStore(path) as store:
            assert store.get(keys[0]) is None  # miss, not a crash
            assert keys[0] not in store  # a miss for membership too
            assert store.get(keys[1]) == result(1)
            issues = store.verify()
            assert len(issues) == 1
            assert issues[0]["where"] == f"key {keys[0]}"
            # The next put heals the damaged entry in place.
            store.put(keys[0], descriptor(0), result(0))
            assert store.get(keys[0]) == result(0)
            assert store.verify() == []


# ---------------------------------------------------------------------------
# Both backends: a damaged record counts as a miss
# ---------------------------------------------------------------------------


def _damage(path, backend: str, key: str, text: str) -> None:
    """Overwrite ``key``'s stored record with ``text``."""
    if backend == "jsonl":
        lines = path.read_text().splitlines()
        lines = [text if json.loads(line)["key"] == key else line for line in lines]
        path.write_text("".join(line + "\n" for line in lines))
        return
    import sqlite3

    conn = sqlite3.connect(path)
    conn.execute("UPDATE records SET record = ? WHERE key = ?", (text, key))
    conn.commit()
    conn.close()


class TestCountAgreesWithMembership:
    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    @pytest.mark.parametrize(
        "text",
        ["{torn json", "[1, 2]", '{"key": 7, "result": {}}',
         '{"key": "k", "result": "not a dict"}'],
        ids=["torn", "array", "int-key", "scalar-result"],
    )
    def test_len_counts_only_readable_records(self, tmp_path, backend, text):
        path = tmp_path / f"store.{backend}"
        with ResultStore(path, backend=backend) as store:
            keys = fill(store, 2)
        _damage(path, backend, keys[0], text)

        with ResultStore(path, backend=backend) as store:
            assert keys[0] not in store
            assert len(store) == sum(key in store for key in keys) == 1
            assert len(list(store.iter_records())) == 1
