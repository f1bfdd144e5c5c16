"""Content-addressed on-disk result store with pluggable backends.

Every campaign job result is stored under a key derived from the job's
full descriptor — application, mode, operating point, node id, seeds,
repetition and counter set — so a result is reused if and only if it
would be bit-identical to a fresh simulation.  Records are dicts ::

    {"key": "<blake2b-128 hex>", "store_version": N,
     "job": {...descriptor...}, "result": {...}}

serialised as sorted-key JSON by whichever backend holds them (see
:mod:`repro.campaign.backends`): the original append-only JSON-lines
file, or an indexed SQLite database (WAL mode, concurrent multi-process
writers).  The backend is auto-detected from the path (``.jsonl`` file /
``.sqlite`` file); both are record-for-record equivalent, and
:func:`migrate_store` converts between them.  A directory is refused.

JSON serialises floats via ``repr`` (shortest round-trip), so payloads
read back from a warm store compare equal to freshly simulated ones.

:data:`STORE_VERSION` is mixed into every key; bump it whenever the
simulator physics or the result payload layout changes, which atomically
invalidates all previously persisted results.  Every record additionally
carries the version it was written under, so a record that *does* match
a requested key but was produced under a different schema (a payload
layout change that forgot the bump, or a hand-migrated store) surfaces a
clear :class:`~repro.errors.CampaignError` instead of a downstream
``KeyError`` in whatever consumer first indexes the stale payload.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterator

from repro.campaign.backends import (
    BACKEND_KINDS,
    STORE_VERSION,
    StoreBackend,
    open_backend,
)
from repro.errors import CampaignError

__all__ = [
    "STORE_VERSION",
    "BACKEND_KINDS",
    "ResultStore",
    "job_key",
    "migrate_store",
]


#: Keys per backend read of :meth:`ResultStore.get_many`: whole records
#: (descriptors included) are parsed per read, so a chunk bounds how
#: many are held at once when a large plan is recalled.
READ_CHUNK = 256


def job_key(descriptor: dict[str, Any]) -> str:
    """Content hash of a job descriptor (stable across processes/runs)."""
    payload = json.dumps(
        {"store_version": STORE_VERSION, **descriptor}, sort_keys=True
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


class ResultStore:
    """Persistent (or, with ``path=None``, in-memory) job-result cache.

    The backend is auto-detected from the path unless named explicitly
    (``backend="jsonl" | "sqlite"``); an existing directory raises
    :class:`~repro.errors.CampaignError` either way.  The JSONL backend
    keeps the historical behaviour — eagerly loaded, appended on every
    :meth:`put` — while SQLite opens lazily and looks keys up through
    its index.  Unparseable bytes (a truncated tail after a crash, a
    torn WAL) load as misses, never as crashes; the next ``put`` of an
    affected key rewrites the record.

    The store is a context manager; ``with ResultStore(p) as store:``
    guarantees open handles are closed on the way out.
    """

    def __init__(
        self, path: str | Path | None = None, *, backend: str | None = None
    ):
        self.path = Path(path) if path is not None else None
        self._backend: StoreBackend = open_backend(self.path, backend)

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The active backend kind (``memory``/``jsonl``/``sqlite``)."""
        return self._backend.kind

    @property
    def supports_concurrent_writers(self) -> bool:
        """Whether several processes may write this store at once."""
        return self._backend.supports_concurrent_writers

    @property
    def stale_records(self) -> int:
        """Records written under another schema version.  Their keys are
        hashed with that version, so current lookups miss them and
        everything re-simulates; they are dead weight until the store is
        compacted (``repro-campaign status`` surfaces the count)."""
        return self._backend.stale_count()

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored result payload for ``key``, or ``None`` on a miss.

        Raises :class:`~repro.errors.CampaignError` when the record was
        written under a different store schema version: returning it
        would hand consumers a payload whose layout they no longer
        understand (the historical failure mode was a raw ``KeyError``
        deep inside dataset assembly).
        """
        record = self._backend.get_records([key]).get(key)
        return None if record is None else self._payload(key, record)

    def get_many(self, keys: list[str]) -> dict[str, dict[str, Any]]:
        """:meth:`get` for many keys, one backend read per
        :data:`READ_CHUNK` keys: the payload of every key that hits
        (misses are absent), raising the same
        :class:`~repro.errors.CampaignError` for the first key, in
        ``keys`` order, whose record has another schema version."""
        payloads = {}
        for at in range(0, len(keys), READ_CHUNK):
            chunk = keys[at : at + READ_CHUNK]
            records = self._backend.get_records(chunk)
            for key in chunk:
                if key in records:
                    payloads[key] = self._payload(key, records[key])
        return payloads

    def _payload(self, key: str, record: dict[str, Any]) -> dict[str, Any]:
        written = record.get("store_version")
        if written != STORE_VERSION:
            where = self.path if self.path is not None else "<in-memory store>"
            raise CampaignError(
                f"cached entry {key} in {where} was written by store schema "
                f"version {written!r}, but this code expects version "
                f"{STORE_VERSION}; delete the store file (or point "
                "REPRO_BENCH_CACHE_DIR at a fresh directory) to re-simulate"
            )
        return record["result"]

    def put(
        self, key: str, descriptor: dict[str, Any], result: dict[str, Any]
    ) -> None:
        """Insert a result; re-putting an existing key is a no-op.

        A key held by a record of *another* schema version is overwritten
        instead of no-opped: silently dropping a freshly computed
        current-schema result would leave the entry permanently stale for
        any writer that recomputes without recalling first (the campaign
        engine itself never reaches this — :meth:`get` raises on such
        records and the documented recovery is deleting the file).  The
        replacement becomes the effective record across sessions too
        (append + last-wins on JSONL, an upsert on SQLite).
        """
        self.put_many([(key, descriptor, result)])

    def put_many(
        self, items: list[tuple[str, dict[str, Any], dict[str, Any]]]
    ) -> None:
        """:meth:`put` for many ``(key, descriptor, result)`` triples in
        one backend write (one transaction on SQLite): the campaign
        engine's per-shard write, and the bulk load of a fresh store.

        Each triple keeps :meth:`put`'s semantics: its key must match
        its descriptor, a key already held at the current schema
        version is left untouched, and one held at another version is
        healed.
        """
        existing = self._backend.get_records([key for key, _, _ in items])
        records: dict[str, dict[str, Any]] = {}
        for key, descriptor, result in items:
            held = existing.get(key)
            if key in records or (
                held is not None and held.get("store_version") == STORE_VERSION
            ):
                continue
            if job_key(descriptor) != key:
                raise CampaignError("store key does not match the job descriptor")
            records[key] = {
                "key": key,
                "store_version": STORE_VERSION,
                "job": descriptor,
                "result": result,
            }
        if records:
            self._backend.put_records(list(records.values()))

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """Stream every effective record (including other-version ones).

        Records are ``{"key", "store_version", "job", "result"}`` dicts;
        one per key, last-wins.  Unlike :meth:`get`, stale records are
        yielded rather than raised on, so admin tooling (status,
        migration, verification) can see them.
        """
        return self._backend.iter_records()

    def close(self) -> None:
        """Drop any open handles (idempotent)."""
        self._backend.close()

    def release(self) -> None:
        """Drop open handles — required before forking worker pools (a
        forked SQLite connection shares POSIX locks)."""
        self._backend.release()

    def refresh(self) -> None:
        """Pick up records written by other processes since open."""
        self._backend.refresh()

    def verify(self) -> list[dict[str, Any]]:
        """Report damaged entries (``{"file", "where", "problem"}``).

        Damage — truncated/corrupt lines, unreadable databases — always
        loads as misses; this names exactly
        what is damaged so operators can decide whether to compact,
        re-simulate or restore.
        """
        return self._backend.verify()

    def compact(self) -> dict[str, int]:
        """Drop superseded and other-schema-version records in place.

        Returns ``{"kept": n, "dropped": m}``.  On JSONL this rewrites
        the file (reclaiming dead lines); on SQLite it deletes stale
        rows and vacuums.
        """
        return self._backend.compact()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and key in self._backend.get_records([key])

    def __len__(self) -> int:
        return self._backend.count()

    def summary(self) -> dict[str, Any]:
        """Aggregate view for ``repro-campaign status`` (streamed; never
        materialises the whole store in memory on indexed backends).

        Quarantine records (persisted
        :class:`~repro.campaign.resilience.FailureRecord` entries,
        descriptor mode ``"failure"``) are counted separately as
        ``"quarantined"`` and kept out of the result breakdowns — they
        describe jobs with *no* result.
        """
        by_app: dict[str, int] = {}
        by_mode: dict[str, int] = {}
        results = 0
        quarantined = 0
        for record in self.iter_records():
            descriptor = record.get("job", {})
            mode = str(descriptor.get("mode", "?"))
            if mode == "failure":
                quarantined += 1
                continue
            results += 1
            app = str(descriptor.get("app", "?"))
            by_app[app] = by_app.get(app, 0) + 1
            by_mode[mode] = by_mode.get(mode, 0) + 1
        return {
            "path": str(self.path) if self.path is not None else None,
            "backend": self.backend,
            "results": results,
            "stale": self.stale_records,
            "quarantined": quarantined,
            "apps": dict(sorted(by_app.items())),
            "modes": dict(sorted(by_mode.items())),
        }


def migrate_store(
    source: str | Path,
    dest: str | Path,
    *,
    backend: str | None = None,
) -> dict[str, Any]:
    """Copy every record of ``source`` into a fresh store at ``dest``.

    Records are carried over verbatim — payload bytes, descriptors and
    per-record schema versions included — so ``get()`` payloads and
    ``summary()`` (bar the path) are identical before and after.  The
    destination backend is auto-detected from ``dest`` unless named.

    Raises :class:`~repro.errors.CampaignError` for a pre-v2 source
    store (records without a ``store_version`` field): their keys were
    hashed under the old scheme and their payload layouts predate the
    schema, so "migrating" them would only enshrine dead weight —
    re-simulate into a fresh store instead.  Also refuses a non-empty
    destination (migration never merges).
    """
    source_path = Path(source)
    dest_path = Path(dest)
    if not source_path.exists():
        raise CampaignError(f"source store {source_path} does not exist")
    if source_path.resolve() == dest_path.resolve():
        raise CampaignError("source and destination stores are the same path")
    with ResultStore(source_path) as src:
        records = []
        for record in src.iter_records():
            if "store_version" not in record:
                raise CampaignError(
                    f"cannot migrate pre-v2 store {source_path}: record "
                    f"{record['key']} carries no store_version (keys were "
                    "hashed under the v1 scheme); re-simulate into a fresh "
                    "store instead"
                )
            records.append(record)
        with ResultStore(dest_path, backend=backend) as out:
            if len(out) > 0:
                raise CampaignError(
                    f"refusing to migrate into non-empty store {dest_path} "
                    f"({len(out)} records); migration never merges"
                )
            out._backend.put_records(records)
            stale = out.stale_records
            kind = out.backend
    return {
        "migrated": len(records),
        "stale": stale,
        "source": str(source_path),
        "dest": str(dest_path),
        "backend": kind,
    }
