"""Golden-fixture tests for store migration between backends.

``tests/campaign/golden/store-v2.jsonl`` is a committed v2 JSONL store:
twelve current-version records plus two records written under the
previous schema version (stale weight whose keys were hashed under that
version).  Migrating it into each backend must carry every record
verbatim — byte-identical ``get()`` payloads, identical ``summary()``
(modulo path/backend), stale accounting preserved.

``store-pre-v2.jsonl`` is a pre-versioning store (no ``store_version``
field); ``migrate`` must refuse it with a clear CampaignError, because
its keys were hashed under the v1 scheme and carrying the records over
would only enshrine dead weight.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.campaign.store import BACKEND_KINDS, ResultStore, migrate_store
from repro.errors import CampaignError

GOLDEN = Path(__file__).parent / "golden"
V2_FIXTURE = GOLDEN / "store-v2.jsonl"
PRE_V2_FIXTURE = GOLDEN / "store-pre-v2.jsonl"

def fixture_records() -> list[dict]:
    return [
        json.loads(line)
        for line in V2_FIXTURE.read_text().splitlines()
        if line.strip()
    ]


def test_fixture_is_what_the_docstring_claims():
    records = fixture_records()
    assert len(records) == 14
    assert sum(1 for r in records if "store_version" in r) == 14
    versions = {r["store_version"] for r in records}
    assert len(versions) == 2  # current + one stale generation


@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_migrate_fixture_to_each_backend(tmp_path, backend):
    source = tmp_path / "source.jsonl"
    shutil.copy(V2_FIXTURE, source)
    dest = tmp_path / f"migrated.{backend}"

    stats = migrate_store(source, dest, backend=backend)
    assert stats["migrated"] == 14
    assert stats["stale"] == 2
    assert stats["backend"] == backend

    records = fixture_records()
    with ResultStore(source) as src, ResultStore(dest) as out:
        assert out.backend == backend
        # Byte-identical get() payloads for every current-version key:
        # serialising the payload must give the same bytes both sides.
        current = [r for r in records if r["store_version"] == 2]
        assert len(current) == 12
        for record in current:
            src_payload = src.get(record["key"])
            out_payload = out.get(record["key"])
            assert out_payload == src_payload == record["result"]
            assert json.dumps(out_payload, sort_keys=True) == json.dumps(
                src_payload, sort_keys=True
            )
        # Stale records still raise (not served, not dropped) ...
        stale = [r for r in records if r["store_version"] != 2]
        for record in stale:
            with pytest.raises(CampaignError, match="schema version"):
                out.get(record["key"])
        # ... and summary() is identical modulo path/backend.
        src_summary, out_summary = src.summary(), out.summary()
        for field in ("results", "stale", "apps", "modes"):
            assert out_summary[field] == src_summary[field]
        assert out_summary["stale"] == 2


def test_migrate_round_trip_back_to_jsonl(tmp_path):
    """jsonl -> sqlite -> jsonl carries every record unchanged."""
    source = tmp_path / "source.jsonl"
    shutil.copy(V2_FIXTURE, source)
    middle = tmp_path / "middle.sqlite"
    final = tmp_path / "final.jsonl"
    migrate_store(source, middle)
    migrate_store(middle, final)
    original = {r["key"]: r for r in fixture_records()}
    with ResultStore(final) as store:
        round_tripped = {r["key"]: r for r in store.iter_records()}
    assert round_tripped == original


def test_migrate_refuses_pre_v2_store(tmp_path):
    source = tmp_path / "source.jsonl"
    shutil.copy(PRE_V2_FIXTURE, source)
    dest = tmp_path / "dest.sqlite"
    with pytest.raises(CampaignError, match="pre-v2"):
        migrate_store(source, dest)
    # Nothing half-written: the destination holds no records.
    if dest.exists():
        with ResultStore(dest) as store:
            assert len(store) == 0


def test_migrate_refuses_missing_source(tmp_path):
    with pytest.raises(CampaignError, match="does not exist"):
        migrate_store(tmp_path / "nope.jsonl", tmp_path / "dest.sqlite")


def test_migrate_refuses_same_path(tmp_path):
    source = tmp_path / "source.jsonl"
    shutil.copy(V2_FIXTURE, source)
    with pytest.raises(CampaignError, match="same path"):
        migrate_store(source, source)


@pytest.mark.parametrize("side", ["source", "dest"])
def test_migrate_refuses_directory(tmp_path, side):
    store = tmp_path / "store.jsonl"
    shutil.copy(V2_FIXTURE, store)
    directory = tmp_path / "some-dir"
    directory.mkdir()
    source, dest = (
        (directory, tmp_path / "dest.sqlite") if side == "source" else (store, directory)
    )
    with pytest.raises(CampaignError, match="is a directory"):
        migrate_store(source, dest)
    assert list(directory.iterdir()) == []
    assert sorted(tmp_path.iterdir()) == [directory, store]


def test_migrate_refuses_non_empty_destination(tmp_path):
    source = tmp_path / "source.jsonl"
    shutil.copy(V2_FIXTURE, source)
    dest = tmp_path / "dest.sqlite"
    migrate_store(source, dest)
    with pytest.raises(CampaignError, match="non-empty"):
        migrate_store(source, dest)
