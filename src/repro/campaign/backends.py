"""Pluggable storage backends for the campaign result store.

The :class:`~repro.campaign.store.ResultStore` front end owns the
*semantics* of the cache — content-addressed keys, schema-version
checking, put-heals-stale, last-wins — while a backend owns the *bytes*.
Three on-disk layouts (plus an in-memory one) implement the same record
contract:

``jsonl``
    The compatibility tier: one append-only JSON-lines file, eagerly
    loaded whole into memory on open.  Cheap for thousands of records,
    linear cold-open cost for millions.
``sqlite``
    A single SQLite database in WAL mode with a ``(key, store_version)``
    primary key.  Opens in constant time, answers ``get`` through the
    index, and takes concurrent multi-process writers (healing is a
    single upsert+delete transaction per put).
``segment``
    A directory of N append-only segment files, records bucketed by key
    prefix, each segment carrying a sidecar offset index
    (``seg-K.idx.json``).  Segments load lazily — a ``get`` touches one
    sidecar and one line of one file — and sidecars are advisory: a
    missing, garbled or out-of-date sidecar is healed by rescanning the
    segment, so crashed writers never lose committed lines.

Every backend stores whole *records* — ``{"key", "store_version",
"job", "result"}`` dicts, serialised as sorted-key JSON — and exposes
the effective (last-wins) record per key, including records written
under another schema version (the front end decides whether those are
servable).  Damaged bytes load as misses, never as crashes;
:meth:`verify` reports exactly what is damaged.

Backend selection is automatic from the store path (see
:func:`detect_backend_kind`): ``*.jsonl`` → jsonl, ``*.sqlite``/``*.db``
→ sqlite, a directory or suffix-less path → segment.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import zlib
from pathlib import Path
from typing import Any, Iterator, Protocol

from repro.errors import CampaignError

#: Bump on any change to simulator physics or payload layout.
#: v2: records carry ``store_version``; the store also holds trained-model
#: parameter payloads (``mode: "train-model"``) next to simulation results.
STORE_VERSION = 2

#: Backend names accepted by :func:`open_backend` and the CLI.
BACKEND_KINDS: tuple[str, ...] = ("jsonl", "sqlite", "segment")

_SQLITE_MAGIC = b"SQLite format 3\x00"
#: Keys bound in one ``IN (...)`` lookup: SQLite builds before 3.32
#: cap a statement at 999 host parameters.
SQLITE_KEYS_PER_QUERY = 999
_SQLITE_SUFFIXES = {".sqlite", ".sqlite3", ".db"}
_JSONL_SUFFIXES = {".jsonl", ".json", ".ndjson"}

#: Segment-backend layout: bucket count, file naming, manifest.
DEFAULT_SEGMENTS = 16
MANIFEST_NAME = "segment-store.json"
MANIFEST_FORMAT = "repro-segment-store"
_SEGMENT_FILE_RE = re.compile(r"^seg-(\d+)\.jsonl$")
_SEGMENT_SIDECAR_RE = re.compile(r"^seg-(\d+)\.idx\.json$")


def _tail_missing_newline(path: Path) -> bool:
    """Whether ``path`` ends mid-line (a torn tail after a crash)."""
    try:
        with path.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"
    except OSError:  # missing or empty file: nothing to separate from
        return False


def record_is_wellformed(record: Any) -> bool:
    """Whether a parsed line/row has the minimal record shape."""
    return (
        isinstance(record, dict)
        and isinstance(record.get("key"), str)
        and isinstance(record.get("result"), dict)
    )


def _records_of(
    records: dict[str, dict[str, Any]], keys: list[str]
) -> dict[str, dict[str, Any]]:
    """The entries of an in-memory index for the ``keys`` it holds."""
    return {key: records[key] for key in keys if key in records}


def _parse_row(line: str) -> dict[str, Any] | None:
    """A stored record line, or ``None`` when it is damaged (a miss,
    never a crash)."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if record_is_wellformed(record) else None


def encode_record(record: dict[str, Any]) -> str:
    """Canonical serialisation shared by every backend (sorted-key JSON,
    floats via shortest-repr — payloads round-trip bit-identically)."""
    return json.dumps(record, sort_keys=True)


class StoreBackend(Protocol):
    """The byte-level contract behind :class:`ResultStore`.

    ``get_record`` returns the *effective* record for a key — the
    last-wins survivor, whatever its schema version — or ``None``;
    ``get_records`` maps each of many keys that has one to it, in one
    read where the layout allows.
    ``put_record`` makes its argument the effective record for its key
    (healing any other-version record).  ``iter_records`` streams every
    effective record; ``stale_count`` counts keys whose effective record
    carries another schema version.  ``flush`` persists any index state,
    ``release`` additionally drops open handles (safe before forking),
    ``refresh`` picks up records appended by other processes.
    """

    kind: str
    supports_concurrent_writers: bool
    path: Path | None

    def get_record(self, key: str) -> dict[str, Any] | None: ...
    def get_records(self, keys: list[str]) -> dict[str, dict[str, Any]]: ...
    def put_record(self, record: dict[str, Any]) -> None: ...
    def put_records(self, records: list[dict[str, Any]]) -> None: ...
    def iter_records(self) -> Iterator[dict[str, Any]]: ...
    def contains(self, key: str) -> bool: ...
    def count(self) -> int: ...
    def stale_count(self) -> int: ...
    def verify(self) -> list[dict[str, Any]]: ...
    def compact(self) -> dict[str, int]: ...
    def flush(self) -> None: ...
    def release(self) -> None: ...
    def refresh(self) -> None: ...
    def close(self) -> None: ...


# ---------------------------------------------------------------------------
# In-memory backend (path=None)
# ---------------------------------------------------------------------------

class MemoryBackend:
    """Dict-backed store for ``ResultStore(None)`` and tests."""

    kind = "memory"
    supports_concurrent_writers = False
    path: Path | None = None

    def __init__(self) -> None:
        self._records: dict[str, dict[str, Any]] = {}

    def get_record(self, key: str) -> dict[str, Any] | None:
        return self._records.get(key)

    def get_records(self, keys: list[str]) -> dict[str, dict[str, Any]]:
        return _records_of(self._records, keys)

    def put_record(self, record: dict[str, Any]) -> None:
        self._records[record["key"]] = record

    def put_records(self, records: list[dict[str, Any]]) -> None:
        for record in records:
            self.put_record(record)

    def iter_records(self) -> Iterator[dict[str, Any]]:
        yield from list(self._records.values())

    def contains(self, key: str) -> bool:
        return key in self._records

    def count(self) -> int:
        return len(self._records)

    def stale_count(self) -> int:
        return sum(
            1
            for r in self._records.values()
            if r.get("store_version") != STORE_VERSION
        )

    def verify(self) -> list[dict[str, Any]]:
        return []

    def compact(self) -> dict[str, int]:
        before = len(self._records)
        self._records = {
            k: r
            for k, r in self._records.items()
            if r.get("store_version") == STORE_VERSION
        }
        return {"kept": len(self._records), "dropped": before - len(self._records)}

    def flush(self) -> None:
        pass

    def release(self) -> None:
        pass

    def refresh(self) -> None:
        pass

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# JSON-lines backend (the compatibility tier)
# ---------------------------------------------------------------------------

class JsonlBackend:
    """Append-only JSON lines, eagerly loaded whole into memory.

    Unparseable lines (e.g. a truncated tail after a crash) are skipped
    on load; the next ``put`` of that key simply rewrites the record.
    Writes open/append/close per call, so no file handle outlives the
    write — interpreter-exit paths cannot leak one.
    """

    kind = "jsonl"
    supports_concurrent_writers = False

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records: dict[str, dict[str, Any]] = {}
        self._loaded_bytes = 0
        if self.path.exists():
            self._scan()

    # -- loading -------------------------------------------------------
    def _scan(self) -> None:
        """Parse records from ``_loaded_bytes`` to EOF (last-wins)."""
        with self.path.open("rb") as fh:
            fh.seek(self._loaded_bytes)
            data = fh.read()
        self._loaded_bytes += len(data)
        for raw in data.splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except ValueError:
                continue  # truncated/corrupt line: treat as a miss
            if record_is_wellformed(record):
                self._records[record["key"]] = record

    # -- record contract -----------------------------------------------
    def get_record(self, key: str) -> dict[str, Any] | None:
        return self._records.get(key)

    def get_records(self, keys: list[str]) -> dict[str, dict[str, Any]]:
        return _records_of(self._records, keys)

    def put_record(self, record: dict[str, Any]) -> None:
        self._records[record["key"]] = record
        self._write_lines([encode_record(record)])

    def put_records(self, records: list[dict[str, Any]]) -> None:
        lines = []
        for record in records:
            self._records[record["key"]] = record
            lines.append(encode_record(record))
        self._write_lines(lines)

    def _write_lines(self, lines: list[str]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        if _tail_missing_newline(self.path):
            # A torn tail (crash mid-append) has no trailing newline;
            # appending directly would glue the new record onto the
            # half-line and lose both.
            payload = b"\n" + payload
        with self.path.open("ab") as fh:
            fh.write(payload)
        self._loaded_bytes += len(payload)

    def iter_records(self) -> Iterator[dict[str, Any]]:
        yield from list(self._records.values())

    def contains(self, key: str) -> bool:
        return key in self._records

    def count(self) -> int:
        return len(self._records)

    def stale_count(self) -> int:
        return sum(
            1
            for r in self._records.values()
            if r.get("store_version") != STORE_VERSION
        )

    # -- maintenance ---------------------------------------------------
    def verify(self) -> list[dict[str, Any]]:
        issues: list[dict[str, Any]] = []
        if not self.path.exists():
            return issues
        with self.path.open("rb") as fh:
            for number, raw in enumerate(fh, start=1):
                stripped = raw.strip()
                if not stripped:
                    continue
                try:
                    record = json.loads(stripped)
                except ValueError:
                    issues.append(
                        {
                            "file": str(self.path),
                            "where": f"line {number}",
                            "problem": "unparseable JSON (truncated or corrupt)",
                        }
                    )
                    continue
                if not record_is_wellformed(record):
                    issues.append(
                        {
                            "file": str(self.path),
                            "where": f"line {number}",
                            "problem": "not a store record (missing key/result)",
                        }
                    )
        return issues

    def compact(self) -> dict[str, int]:
        """Rewrite the file keeping one current-version line per key."""
        kept = {
            k: r
            for k, r in self._records.items()
            if r.get("store_version") == STORE_VERSION
        }
        dropped = self._physical_lines() - len(kept)
        tmp = self.path.with_name(self.path.name + ".compact-tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8") as fh:
            for record in kept.values():
                fh.write(encode_record(record) + "\n")
        os.replace(tmp, self.path)
        self._records = kept
        self._loaded_bytes = self.path.stat().st_size
        return {"kept": len(kept), "dropped": max(0, dropped)}

    def _physical_lines(self) -> int:
        if not self.path.exists():
            return 0
        with self.path.open("rb") as fh:
            return sum(1 for raw in fh if raw.strip())

    def flush(self) -> None:
        pass

    def release(self) -> None:
        pass

    def refresh(self) -> None:
        if not self.path.exists():
            return
        size = self.path.stat().st_size
        if size < self._loaded_bytes:  # rewritten (e.g. compacted) underneath
            self._records = {}
            self._loaded_bytes = 0
        if size != self._loaded_bytes:
            self._scan()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# SQLite backend (WAL mode, concurrent multi-process writers)
# ---------------------------------------------------------------------------

class SqliteBackend:
    """One SQLite database, ``(key, store_version)`` primary key.

    WAL journalling plus a long busy timeout lets many processes write
    one store concurrently; healing a stale-version record is a single
    upsert+delete transaction, so readers never observe a key without
    an effective record.  A corrupt database (torn WAL, truncated file)
    degrades to an empty store — every lookup is a miss — and
    :meth:`verify` reports the damage; only writes raise.
    """

    kind = "sqlite"
    supports_concurrent_writers = True

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS records ("
        " key TEXT NOT NULL,"
        " store_version INTEGER,"
        " record TEXT NOT NULL,"
        " PRIMARY KEY (key, store_version))"
    )

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._connection: sqlite3.Connection | None = None
        self._damage: str | None = None

    # -- connection management -----------------------------------------
    def _connect(self) -> sqlite3.Connection | None:
        if self._connection is not None:
            return self._connection
        if self._damage is not None:
            return None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # The serving layer reads on its event-loop thread and
            # writes on its executor thread through one store handle;
            # CPython's sqlite3 is built serialized (threadsafety 3),
            # so cross-thread use of a connection is safe — SQLite's
            # own mutex interleaves the calls.
            conn = sqlite3.connect(
                str(self.path), timeout=30.0, check_same_thread=False
            )
            conn.isolation_level = None  # explicit transactions below
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            conn.execute(self._SCHEMA)
        except sqlite3.Error as exc:
            self._damage = str(exc)
            return None
        self._connection = conn
        return conn

    def _note_damage(self, exc: sqlite3.Error) -> None:
        self._damage = str(exc)

    # -- record contract -----------------------------------------------
    def get_record(self, key: str) -> dict[str, Any] | None:
        conn = self._connect()
        if conn is None:
            return None
        try:
            row = conn.execute(
                "SELECT record FROM records WHERE key=? AND store_version=?",
                (key, STORE_VERSION),
            ).fetchone()
            if row is None:
                row = conn.execute(
                    "SELECT record FROM records WHERE key=?"
                    " ORDER BY rowid DESC LIMIT 1",
                    (key,),
                ).fetchone()
        except sqlite3.Error as exc:
            self._note_damage(exc)
            return None
        return None if row is None else _parse_row(row[0])

    def get_records(self, keys: list[str]) -> dict[str, dict[str, Any]]:
        """One ``key IN (...)`` query per chunk of keys; per key, the
        current schema version's row, else the latest one."""
        conn = self._connect()
        if conn is None:
            return {}
        unique = list(dict.fromkeys(keys))
        chosen: dict[str, tuple[bool, int, str]] = {}
        try:
            for at in range(0, len(unique), SQLITE_KEYS_PER_QUERY):
                chunk = unique[at : at + SQLITE_KEYS_PER_QUERY]
                marks = ",".join("?" * len(chunk))
                for key, version, rowid, line in conn.execute(
                    "SELECT key, store_version, rowid, record FROM records"
                    f" WHERE key IN ({marks})",
                    chunk,
                ):
                    # (current version, rowid) orders a key's rows.
                    rank = (version == STORE_VERSION, rowid, line)
                    if key not in chosen or rank[:2] > chosen[key][:2]:
                        chosen[key] = rank
        except sqlite3.Error as exc:
            self._note_damage(exc)
            return {}
        return {
            key: record
            for key, (_, _, line) in chosen.items()
            if (record := _parse_row(line)) is not None
        }

    def put_record(self, record: dict[str, Any]) -> None:
        self.put_records([record])

    def put_records(self, records: list[dict[str, Any]]) -> None:
        conn = self._connect()
        if conn is None:
            raise CampaignError(
                f"cannot write to sqlite store {self.path}: {self._damage}"
            )
        rows = [
            (r["key"], r.get("store_version"), encode_record(r)) for r in records
        ]
        heals = [(r["key"], r.get("store_version")) for r in records]
        try:
            conn.execute("BEGIN IMMEDIATE")
            conn.executemany(
                "INSERT INTO records (key, store_version, record)"
                " VALUES (?, ?, ?)"
                " ON CONFLICT (key, store_version)"
                " DO UPDATE SET record=excluded.record",
                rows,
            )
            # Healing: the new record supersedes any record of the same
            # key written under another schema version.
            conn.executemany(
                "DELETE FROM records WHERE key=? AND store_version IS NOT ?",
                heals,
            )
            conn.execute("COMMIT")
        except sqlite3.Error as exc:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise CampaignError(
                f"sqlite store write failed ({self.path}): {exc}"
            ) from None

    def iter_records(self) -> Iterator[dict[str, Any]]:
        conn = self._connect()
        if conn is None:
            return
        try:
            cursor = conn.execute(
                "SELECT record FROM records r WHERE rowid = ("
                " SELECT rowid FROM records i WHERE i.key = r.key"
                " ORDER BY (i.store_version = ?) DESC, i.rowid DESC LIMIT 1)",
                (STORE_VERSION,),
            )
            rows = cursor.fetchall()
        except sqlite3.Error as exc:
            self._note_damage(exc)
            return
        for (line,) in rows:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record_is_wellformed(record):
                yield record

    def contains(self, key: str) -> bool:
        conn = self._connect()
        if conn is None:
            return False
        try:
            row = conn.execute(
                "SELECT 1 FROM records WHERE key=? LIMIT 1", (key,)
            ).fetchone()
        except sqlite3.Error as exc:
            self._note_damage(exc)
            return False
        return row is not None

    def count(self) -> int:
        conn = self._connect()
        if conn is None:
            return 0
        try:
            return conn.execute(
                "SELECT COUNT(DISTINCT key) FROM records"
            ).fetchone()[0]
        except sqlite3.Error as exc:
            self._note_damage(exc)
            return 0

    def stale_count(self) -> int:
        conn = self._connect()
        if conn is None:
            return 0
        try:
            return conn.execute(
                "SELECT COUNT(*) FROM (SELECT 1 FROM records GROUP BY key"
                " HAVING COALESCE(SUM(store_version = ?), 0) = 0)",
                (STORE_VERSION,),
            ).fetchone()[0]
        except sqlite3.Error as exc:
            self._note_damage(exc)
            return 0

    # -- maintenance ---------------------------------------------------
    def verify(self) -> list[dict[str, Any]]:
        issues: list[dict[str, Any]] = []
        conn = self._connect()
        if conn is None:
            return [
                {
                    "file": str(self.path),
                    "where": "database",
                    "problem": f"unreadable database: {self._damage}",
                }
            ]
        try:
            for (message,) in conn.execute("PRAGMA integrity_check"):
                if message != "ok":
                    issues.append(
                        {
                            "file": str(self.path),
                            "where": "database",
                            "problem": f"integrity check: {message}",
                        }
                    )
            rows = conn.execute(
                "SELECT key, record FROM records"
            ).fetchall()
        except sqlite3.Error as exc:
            self._note_damage(exc)
            issues.append(
                {
                    "file": str(self.path),
                    "where": "database",
                    "problem": f"unreadable records table: {exc}",
                }
            )
            return issues
        for key, line in rows:
            try:
                record = json.loads(line)
            except ValueError:
                issues.append(
                    {
                        "file": str(self.path),
                        "where": f"key {key}",
                        "problem": "unparseable record JSON",
                    }
                )
                continue
            if not record_is_wellformed(record) or record.get("key") != key:
                issues.append(
                    {
                        "file": str(self.path),
                        "where": f"key {key}",
                        "problem": "record does not match its row key",
                    }
                )
        return issues

    def compact(self) -> dict[str, int]:
        conn = self._connect()
        if conn is None:
            raise CampaignError(
                f"cannot compact sqlite store {self.path}: {self._damage}"
            )
        try:
            conn.execute("BEGIN IMMEDIATE")
            before = conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]
            conn.execute(
                "DELETE FROM records WHERE store_version IS NOT ?",
                (STORE_VERSION,),
            )
            kept = conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]
            conn.execute("COMMIT")
            conn.execute("VACUUM")
        except sqlite3.Error as exc:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise CampaignError(
                f"sqlite store compaction failed ({self.path}): {exc}"
            ) from None
        return {"kept": kept, "dropped": before - kept}

    def flush(self) -> None:
        pass

    def release(self) -> None:
        """Close the connection (required before forking worker pools:
        a forked copy of a live connection shares POSIX locks)."""
        self.close()

    def refresh(self) -> None:
        pass  # every query reads the database directly

    def close(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None


# ---------------------------------------------------------------------------
# Sharded segment backend (key-prefix buckets + sidecar offset indexes)
# ---------------------------------------------------------------------------

class _Segment:
    """In-memory index of one segment file.

    ``entries`` maps key → (byte offset of the effective line, schema
    version); ``indexed_size`` is the byte prefix of the file the
    entries provably cover (everything beyond it gets tail-scanned).
    """

    __slots__ = ("entries", "indexed_size", "dirty")

    def __init__(self) -> None:
        self.entries: dict[str, tuple[int, Any]] = {}
        self.indexed_size = 0
        self.dirty = False


class SegmentBackend:
    """Records sharded by key prefix into N append-only segment files.

    A lookup loads one segment's sidecar index (lazily, on first touch
    of that bucket) and reads one line at its recorded offset — cold
    opens never scan the whole store.  Sidecars are advisory: each
    records the byte prefix of its segment it covers, so lines appended
    after the last sidecar write (crashed or concurrent writers) are
    recovered by scanning only the tail.  A garbled or missing sidecar
    triggers a full rescan of that segment — committed lines are never
    lost.  Offsets are validated on read (the stored line must carry
    the requested key) and heal through a rescan, which makes
    concurrent multi-process appends safe.
    """

    kind = "segment"
    supports_concurrent_writers = True

    def __init__(self, path: str | Path, *, segments: int = DEFAULT_SEGMENTS):
        self.path = Path(path)
        self._segments: dict[int, _Segment] = {}
        self.segments = self._resolve_segment_count(segments)

    # -- layout --------------------------------------------------------
    def _resolve_segment_count(self, default: int) -> int:
        """The bucket modulus, recovered in order of trustworthiness.

        The manifest is authoritative; every index sidecar carries a
        redundant copy (so a garbled manifest costs nothing as long as
        one sidecar survives); failing both, the count is inferred from
        the segment file names — an under-estimate when high buckets
        happen to be empty, in which case lookups in the mis-mapped
        buckets degrade to misses and ``verify`` flags the manifest.
        """
        manifest = self.path / MANIFEST_NAME
        try:
            data = json.loads(manifest.read_text())
            count = int(data["segments"])
            if count > 0:
                return count
        except (OSError, ValueError, KeyError, TypeError):
            pass
        if self.path.is_dir():
            for entry in sorted(os.listdir(self.path)):
                if not _SEGMENT_SIDECAR_RE.match(entry):
                    continue
                try:
                    count = int(json.loads((self.path / entry).read_text())["segments"])
                    if count > 0:
                        return count
                except (OSError, ValueError, KeyError, TypeError):
                    continue
            found = [
                int(m.group(1))
                for entry in os.listdir(self.path)
                if (m := _SEGMENT_FILE_RE.match(entry))
            ]
            if found:
                return max(found) + 1
        return default

    def _ensure_layout(self) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        manifest = self.path / MANIFEST_NAME
        if not manifest.exists():
            _atomic_write(
                manifest,
                json.dumps(
                    {"format": MANIFEST_FORMAT, "segments": self.segments}
                )
                + "\n",
            )

    def _bucket(self, key: str) -> int:
        try:
            return int(key[:8], 16) % self.segments
        except ValueError:  # non-hex key (foreign data): still deterministic
            return zlib.crc32(key.encode("utf-8")) % self.segments

    def _file(self, index: int) -> Path:
        return self.path / f"seg-{index}.jsonl"

    def _sidecar(self, index: int) -> Path:
        return self.path / f"seg-{index}.idx.json"

    # -- segment loading -----------------------------------------------
    def _segment(self, index: int) -> _Segment:
        segment = self._segments.get(index)
        if segment is None:
            segment = self._load_segment(index)
            self._segments[index] = segment
        return segment

    def _load_segment(self, index: int) -> _Segment:
        segment = _Segment()
        file = self._file(index)
        if not file.exists():
            return segment
        size = file.stat().st_size
        start = 0
        try:
            data = json.loads(self._sidecar(index).read_text())
            entries = data["entries"]
            indexed = int(data["size"])
            if isinstance(entries, dict) and 0 <= indexed <= size:
                segment.entries = {
                    key: (int(value[0]), value[1])
                    for key, value in entries.items()
                }
                start = indexed
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            pass  # missing/garbled sidecar: rescan the whole segment
        self._scan_segment(file, segment, start)
        return segment

    def _scan_segment(
        self, file: Path, segment: _Segment, start: int, end: int | None = None
    ) -> None:
        """Index lines in ``[start, end)`` (to EOF when ``end`` is None)."""
        with file.open("rb") as fh:
            fh.seek(start)
            offset = start
            for raw in fh:
                if end is not None and offset >= end:
                    break
                line_offset = offset
                offset += len(raw)
                stripped = raw.strip()
                if not stripped:
                    continue
                try:
                    record = json.loads(stripped)
                except ValueError:
                    continue  # torn line: a miss, healed by the next put
                if record_is_wellformed(record):
                    segment.entries[record["key"]] = (
                        line_offset,
                        record.get("store_version"),
                    )
        segment.indexed_size = max(segment.indexed_size, offset)
        segment.dirty = True

    def _reload(self, index: int) -> _Segment:
        self._segments.pop(index, None)
        segment = _Segment()
        file = self._file(index)
        if file.exists():
            self._scan_segment(file, segment, 0)
        self._segments[index] = segment
        return segment

    # -- record contract -----------------------------------------------
    def get_record(self, key: str) -> dict[str, Any] | None:
        index = self._bucket(key)
        segment = self._segment(index)
        record = self._get_from(segment, index, key)
        if record is not None:
            return record
        if key in segment.entries:
            # The offset lied (concurrent writer or external compaction
            # moved the line): rebuild this segment's index and retry.
            segment = self._reload(index)
            return self._get_from(segment, index, key)
        return None

    def get_records(self, keys: list[str]) -> dict[str, dict[str, Any]]:
        return {
            key: record
            for key in dict.fromkeys(keys)
            if (record := self.get_record(key)) is not None
        }

    def _get_from(
        self, segment: _Segment, index: int, key: str
    ) -> dict[str, Any] | None:
        entry = segment.entries.get(key)
        if entry is None:
            return None
        record = self._read_line(self._file(index), entry[0])
        if record is not None and record.get("key") == key:
            return record
        return None

    @staticmethod
    def _read_line(file: Path, offset: int) -> dict[str, Any] | None:
        try:
            with file.open("rb") as fh:
                fh.seek(offset)
                raw = fh.readline()
            record = json.loads(raw)
        except (OSError, ValueError):
            return None
        return record if record_is_wellformed(record) else None

    def put_record(self, record: dict[str, Any]) -> None:
        self._ensure_layout()
        self._append(self._bucket(record["key"]), [record])

    def put_records(self, records: list[dict[str, Any]]) -> None:
        self._ensure_layout()
        by_bucket: dict[int, list[dict[str, Any]]] = {}
        for record in records:
            by_bucket.setdefault(self._bucket(record["key"]), []).append(record)
        for index, bucket_records in by_bucket.items():
            self._append(index, bucket_records)

    def _append(self, index: int, records: list[dict[str, Any]]) -> None:
        segment = self._segment(index)
        file = self._file(index)
        encoded = [
            (encode_record(record) + "\n").encode("utf-8") for record in records
        ]
        payload = b"".join(encoded)
        needs_separator = _tail_missing_newline(file)
        if needs_separator:
            # Torn tail after a crash: separate instead of gluing the
            # first new record onto the half-line.  (Live writers only
            # ever append whole newline-terminated lines, so this
            # cannot race with them into a double newline that matters
            # — blank lines are skipped by every scan.)
            payload = b"\n" + payload
        with file.open("ab") as fh:
            offset = fh.tell()
            fh.write(payload)
        if file.stat().st_size != offset + len(payload):
            # A concurrent appender slipped in between our tell() and
            # write(): the computed offsets are unreliable, so rebuild
            # this segment's index from scratch (scans from byte 0 walk
            # true line boundaries — O_APPEND writes are whole lines).
            self._reload(index)
            return
        if offset > segment.indexed_size:
            # Another process appended before our open: index that gap
            # first, so the sidecar's coverage claim stays truthful.
            self._scan_segment(file, segment, segment.indexed_size, offset)
        if needs_separator:
            offset += 1  # records start after the separating newline
        for record, line in zip(records, encoded):
            segment.entries[record["key"]] = (
                offset,
                record.get("store_version"),
            )
            offset += len(line)
        segment.indexed_size = max(segment.indexed_size, offset)
        segment.dirty = True

    def iter_records(self) -> Iterator[dict[str, Any]]:
        # Full sequential scan with last-wins, independent of the
        # (possibly stale) in-memory indexes: iteration is an admin
        # operation and must see exactly the effective records.
        for index in range(self.segments):
            file = self._file(index)
            if not file.exists():
                continue
            effective: dict[str, dict[str, Any]] = {}
            with file.open("rb") as fh:
                for raw in fh:
                    stripped = raw.strip()
                    if not stripped:
                        continue
                    try:
                        record = json.loads(stripped)
                    except ValueError:
                        continue
                    if record_is_wellformed(record):
                        effective[record["key"]] = record
            yield from effective.values()

    def contains(self, key: str) -> bool:
        return key in self._segment(self._bucket(key)).entries

    def count(self) -> int:
        return sum(
            len(self._segment(index).entries) for index in range(self.segments)
        )

    def stale_count(self) -> int:
        return sum(
            1
            for index in range(self.segments)
            for (_, version) in self._segment(index).entries.values()
            if version != STORE_VERSION
        )

    # -- maintenance ---------------------------------------------------
    def verify(self) -> list[dict[str, Any]]:
        issues: list[dict[str, Any]] = []
        manifest = self.path / MANIFEST_NAME
        if manifest.exists():
            try:
                data = json.loads(manifest.read_text())
                if int(data["segments"]) <= 0:
                    raise ValueError("non-positive segment count")
            except (OSError, ValueError, KeyError, TypeError):
                issues.append(
                    {
                        "file": str(manifest),
                        "where": "manifest",
                        "problem": "garbled manifest (segment count inferred "
                        "from the files)",
                    }
                )
        for index in range(self.segments):
            file = self._file(index)
            if not file.exists():
                continue
            with file.open("rb") as fh:
                for number, raw in enumerate(fh, start=1):
                    stripped = raw.strip()
                    if not stripped:
                        continue
                    try:
                        record = json.loads(stripped)
                    except ValueError:
                        issues.append(
                            {
                                "file": str(file),
                                "where": f"line {number}",
                                "problem": "unparseable JSON "
                                "(truncated or corrupt)",
                            }
                        )
                        continue
                    if not record_is_wellformed(record):
                        issues.append(
                            {
                                "file": str(file),
                                "where": f"line {number}",
                                "problem": "not a store record "
                                "(missing key/result)",
                            }
                        )
            sidecar = self._sidecar(index)
            if sidecar.exists():
                try:
                    data = json.loads(sidecar.read_text())
                    if not isinstance(data["entries"], dict):
                        raise TypeError("entries is not a mapping")
                    if int(data["size"]) > file.stat().st_size:
                        issues.append(
                            {
                                "file": str(sidecar),
                                "where": "index",
                                "problem": "index claims more bytes than the "
                                "segment holds (segment truncated; index "
                                "rebuilt by rescan)",
                            }
                        )
                except (OSError, ValueError, KeyError, TypeError):
                    issues.append(
                        {
                            "file": str(sidecar),
                            "where": "index",
                            "problem": "garbled index sidecar "
                            "(rebuilt by rescan)",
                        }
                    )
        return issues

    def compact(self) -> dict[str, int]:
        """Rewrite every segment keeping one current-version line per
        key, dropping superseded and other-schema-version lines, and
        rebuild the sidecar indexes."""
        kept_total = 0
        dropped_total = 0
        self._ensure_layout()
        for index in range(self.segments):
            file = self._file(index)
            if not file.exists():
                continue
            effective: dict[str, dict[str, Any]] = {}
            lines = 0
            with file.open("rb") as fh:
                for raw in fh:
                    stripped = raw.strip()
                    if not stripped:
                        continue
                    lines += 1
                    try:
                        record = json.loads(stripped)
                    except ValueError:
                        continue
                    if record_is_wellformed(record):
                        effective[record["key"]] = record
            segment = _Segment()
            tmp = file.with_name(file.name + ".compact-tmp")
            offset = 0
            with tmp.open("wb") as fh:
                for key, record in effective.items():
                    if record.get("store_version") != STORE_VERSION:
                        continue
                    line = (encode_record(record) + "\n").encode("utf-8")
                    fh.write(line)
                    segment.entries[key] = (offset, STORE_VERSION)
                    offset += len(line)
            os.replace(tmp, file)
            segment.indexed_size = offset
            segment.dirty = True
            self._segments[index] = segment
            kept_total += len(segment.entries)
            dropped_total += lines - len(segment.entries)
        self.flush()
        return {"kept": kept_total, "dropped": dropped_total}

    def flush(self) -> None:
        """Persist dirty sidecar indexes (atomically, via rename).

        Before writing, any bytes another process appended since our
        last look are tail-scanned in, so a sidecar never claims to
        cover lines it has not indexed.
        """
        for index, segment in self._segments.items():
            if not segment.dirty:
                continue
            file = self._file(index)
            if not file.exists():
                continue
            size = file.stat().st_size
            if size > segment.indexed_size:
                self._scan_segment(file, segment, segment.indexed_size)
            _atomic_write(
                self._sidecar(index),
                json.dumps(
                    {
                        "format": MANIFEST_FORMAT,
                        "segments": self.segments,
                        "size": segment.indexed_size,
                        "entries": {
                            key: [offset, version]
                            for key, (offset, version) in segment.entries.items()
                        },
                    }
                ),
            )
            segment.dirty = False

    def release(self) -> None:
        self.flush()
        self._segments.clear()

    def refresh(self) -> None:
        """Drop cached indexes so appends by other processes are seen."""
        self.flush()
        self._segments.clear()

    def close(self) -> None:
        self.flush()
        self._segments.clear()


def _atomic_write(path: Path, text: str) -> None:
    # pid-unique scratch name: concurrent processes rewriting the same
    # sidecar must not race each other's rename source away.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Detection and construction
# ---------------------------------------------------------------------------

def detect_backend_kind(path: str | Path | None) -> str:
    """Infer the backend from a store path.

    ``*.jsonl``/``*.json``/``*.ndjson`` → jsonl; ``*.sqlite``/
    ``*.sqlite3``/``*.db`` → sqlite; an existing directory or a
    suffix-less path → segment.  An existing file with an unknown
    suffix is sniffed by magic bytes (SQLite else JSONL).
    """
    if path is None:
        return "memory"
    p = Path(path)
    if p.is_dir():
        return "segment"
    suffix = p.suffix.lower()
    if suffix in _SQLITE_SUFFIXES:
        return "sqlite"
    if suffix in _JSONL_SUFFIXES:
        return "jsonl"
    if p.exists():
        try:
            with p.open("rb") as fh:
                head = fh.read(len(_SQLITE_MAGIC))
        except OSError:
            head = b""
        return "sqlite" if head == _SQLITE_MAGIC else "jsonl"
    if suffix == "":
        return "segment"
    return "jsonl"


def open_backend(
    path: str | Path | None, backend: str | None = None
) -> StoreBackend:
    """Construct the backend for ``path`` (auto-detected unless named)."""
    if path is None:
        return MemoryBackend()
    kind = backend if backend is not None else detect_backend_kind(path)
    if kind == "jsonl":
        return JsonlBackend(path)
    if kind == "sqlite":
        return SqliteBackend(path)
    if kind == "segment":
        return SegmentBackend(path)
    raise CampaignError(
        f"unknown store backend: {kind!r}; known: {BACKEND_KINDS}"
    )
