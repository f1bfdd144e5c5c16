"""Pluggable storage backends for the campaign result store.

The :class:`~repro.campaign.store.ResultStore` front end owns the
*semantics* of the cache — content-addressed keys, schema-version
checking, put-heals-stale, last-wins — while a backend owns the *bytes*.
Two on-disk layouts (plus an in-memory one) implement the same record
contract:

``jsonl``
    The compatibility tier: one append-only JSON-lines file, eagerly
    loaded whole into memory on open.  Cheap for thousands of records,
    linear cold-open cost for millions.
``sqlite``
    A single SQLite database in WAL mode with a ``(key, store_version)``
    primary key.  Opens in constant time, reads keys through the index,
    and takes concurrent multi-process writers (healing is a single
    upsert+delete transaction per write).

Every backend stores whole *records* — ``{"key", "store_version",
"job", "result"}`` dicts, serialised as sorted-key JSON — and exposes
them through one batched read (``get_records``) and one batched write
(``put_records``); the front end's ``get``, ``put`` and ``in`` are
their one-key cases.  A read returns the effective (last-wins) record
per key, including records written under another schema version (the
front end decides whether those are servable).  Damaged bytes load as
misses, never as crashes; :meth:`verify` reports exactly what is
damaged.

Backend selection is automatic from the store path (see
:func:`detect_backend_kind`): ``*.jsonl`` → jsonl, ``*.sqlite``/``*.db``
→ sqlite, anything else is sniffed (an existing file) or jsonl (a fresh
path).  A directory is not a store: :func:`open_backend` refuses it.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Any, Iterator, Protocol

from repro.errors import CampaignError

#: Bump on any change to simulator physics or payload layout.
#: v2: records carry ``store_version``; the store also holds trained-model
#: parameter payloads (``mode: "train-model"``) next to simulation results.
STORE_VERSION = 2

#: Backend names accepted by :func:`open_backend` and the CLI.
BACKEND_KINDS: tuple[str, ...] = ("jsonl", "sqlite")

_SQLITE_MAGIC = b"SQLite format 3\x00"
#: Keys bound in one ``IN (...)`` lookup: SQLite builds before 3.32
#: cap a statement at 999 host parameters.
SQLITE_KEYS_PER_QUERY = 999
_SQLITE_SUFFIXES = {".sqlite", ".sqlite3", ".db"}
_JSONL_SUFFIXES = {".jsonl", ".json", ".ndjson"}

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


def _parse_row(line: str | bytes) -> dict[str, Any] | None:
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

    One batched read and one batched write carry every record:
    ``get_records`` maps each key that has one to its *effective*
    record — the last-wins survivor, whatever its schema version — in
    one read where the layout allows (a key with no record, or only a
    damaged one, is absent); ``put_records`` makes each argument the
    effective record for its key (healing any other-version record).
    The front end's one-key ``get``, ``put`` and ``in`` go through
    these two.  ``iter_records`` streams every effective record;
    ``stale_count`` counts keys whose effective record carries another
    schema version.  ``release`` drops open handles (safe before
    forking), ``refresh`` picks up records appended by other processes.
    """

    kind: str
    supports_concurrent_writers: bool
    path: Path | None

    def get_records(self, keys: list[str]) -> dict[str, dict[str, Any]]: ...
    def put_records(self, records: list[dict[str, Any]]) -> None: ...
    def iter_records(self) -> Iterator[dict[str, Any]]: ...
    def count(self) -> int: ...
    def stale_count(self) -> int: ...
    def verify(self) -> list[dict[str, Any]]: ...
    def compact(self) -> dict[str, int]: ...
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

    def get_records(self, keys: list[str]) -> dict[str, dict[str, Any]]:
        return _records_of(self._records, keys)

    def put_records(self, records: list[dict[str, Any]]) -> None:
        for record in records:
            self._records[record["key"]] = record

    def iter_records(self) -> Iterator[dict[str, Any]]:
        yield from list(self._records.values())

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
            # A blank, truncated or corrupt line parses to None: a miss.
            if (record := _parse_row(raw)) is not None:
                self._records[record["key"]] = record

    # -- record contract -----------------------------------------------
    def get_records(self, keys: list[str]) -> dict[str, dict[str, Any]]:
        return _records_of(self._records, keys)

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
    #: A row is its key's effective record: the current schema version's
    #: row, else the latest one (bind ``STORE_VERSION``).
    _EFFECTIVE = (
        "rowid = (SELECT rowid FROM records i WHERE i.key = r.key"
        " ORDER BY (i.store_version = ?) DESC, i.rowid DESC LIMIT 1)"
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
                f"SELECT record FROM records r WHERE {self._EFFECTIVE}",
                (STORE_VERSION,),
            )
            rows = cursor.fetchall()
        except sqlite3.Error as exc:
            self._note_damage(exc)
            return
        for (line,) in rows:
            if (record := _parse_row(line)) is not None:
                yield record

    def count(self) -> int:
        """The keys whose effective record is well-formed — the records
        :meth:`iter_records` yields — in one query, checked by SQLite's
        JSON functions rather than parsed in Python.  (SQLite refuses
        the ``NaN``/``Infinity`` tokens that ``json.loads`` reads; no
        payload carries a non-finite float.)"""
        conn = self._connect()
        if conn is None:
            return 0
        try:
            return conn.execute(
                f"SELECT COUNT(*) FROM records r WHERE {self._EFFECTIVE}"
                " AND CASE WHEN json_valid(record) THEN"
                " json_type(record, '$.key') = 'text'"
                " AND json_type(record, '$.result') = 'object' END",
                (STORE_VERSION,),
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
# Detection and construction
# ---------------------------------------------------------------------------

def detect_backend_kind(path: str | Path | None) -> str:
    """Infer the backend from a store path.

    ``*.jsonl``/``*.json``/``*.ndjson`` → jsonl; ``*.sqlite``/
    ``*.sqlite3``/``*.db`` → sqlite.  Any other existing file is
    sniffed by magic bytes (SQLite else JSONL); any other fresh path,
    suffix-less included, is jsonl.
    """
    if path is None:
        return "memory"
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix in _SQLITE_SUFFIXES:
        return "sqlite"
    if suffix in _JSONL_SUFFIXES:
        return "jsonl"
    if p.is_file():
        try:
            with p.open("rb") as fh:
                head = fh.read(len(_SQLITE_MAGIC))
        except OSError:
            head = b""
        return "sqlite" if head == _SQLITE_MAGIC else "jsonl"
    return "jsonl"


def open_backend(
    path: str | Path | None, backend: str | None = None
) -> StoreBackend:
    """Construct the backend for ``path`` (auto-detected unless named).

    Raises :class:`~repro.errors.CampaignError` for an existing
    directory, named backend or not, before anything is created.
    """
    if path is None:
        return MemoryBackend()
    if Path(path).is_dir():
        raise CampaignError(
            f"store path {path} is a directory; a store is one .jsonl or "
            ".sqlite file"
        )
    kind = backend if backend is not None else detect_backend_kind(path)
    if kind == "jsonl":
        return JsonlBackend(path)
    if kind == "sqlite":
        return SqliteBackend(path)
    raise CampaignError(
        f"unknown store backend: {kind!r}; known: {BACKEND_KINDS}"
    )
