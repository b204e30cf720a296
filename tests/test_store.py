"""Unit and property tests for the durable store (:mod:`repro.store`).

The core guarantee under test: **any prefix of a WAL replays to a
consistent state** — decoding never raises, yields a prefix of the
written records, and a torn tail (a crash mid-append) is detected and
dropped, never misread.  Hypothesis drives the prefix/corruption
properties; concrete tests cover the FileStore lifecycle (recovery,
compaction, manifest atomicity) and the shard/store integration.
"""

import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import IndexShard
from repro.store import (
    FileStore,
    MemoryStore,
    StoreRecord,
    decode_records,
    encode_record,
    replay,
)
from repro.store.wal import encode_entry_op, encode_ref_op, entry_records

# -- record strategies ----------------------------------------------------

_KEYWORDS = st.sets(
    st.sampled_from(["jazz", "mp3", "piano", "flac", "modal", "sax"]), min_size=1, max_size=3
).map(lambda s: tuple(sorted(s)))
_OBJECTS = st.sampled_from([f"obj{i}" for i in range(8)])
_LOGICAL = st.integers(min_value=0, max_value=7)
_HOLDERS = st.integers(min_value=0, max_value=99)

_RECORDS = st.one_of(
    st.builds(
        StoreRecord,
        op=st.sampled_from(["put", "remove"]),
        namespace=st.just("main"),
        logical=_LOGICAL,
        keywords=_KEYWORDS,
        object_id=_OBJECTS,
    ),
    st.builds(StoreRecord, op=st.just("drop"), namespace=st.just("main"), logical=_LOGICAL),
    st.builds(
        StoreRecord,
        op=st.sampled_from(["ref_put", "ref_del"]),
        object_id=_OBJECTS,
        holder=_HOLDERS,
    ),
)


class TestWalProperties:
    @given(records=st.lists(_RECORDS, max_size=30), cut=st.integers(min_value=0))
    def test_any_prefix_replays_to_a_consistent_state(self, records, cut):
        blob = b"".join(encode_record(record) for record in records)
        cut = cut % (len(blob) + 1)
        decoded = decode_records(blob[:cut])
        count = len(decoded.records)
        # A prefix of the bytes decodes to a prefix of the records —
        # never a phantom, reordered, or misparsed record.
        assert decoded.records == tuple(records[:count])
        assert decoded.consumed <= cut
        # The clean prefix re-decodes identically with no torn tail, so
        # recovery-then-truncate converges.
        again = decode_records(blob[: decoded.consumed])
        assert again.records == decoded.records
        assert not again.truncated
        # A cut strictly inside a frame is reported as torn.
        assert decoded.truncated == (decoded.consumed != cut)
        # Replaying the decoded records equals replaying the true prefix.
        assert replay(decoded.records) == replay(records[:count])

    @given(records=st.lists(_RECORDS, min_size=1, max_size=20), flip=st.integers(min_value=0))
    def test_corruption_never_raises_and_never_fabricates(self, records, flip):
        blob = bytearray(b"".join(encode_record(record) for record in records))
        position = flip % len(blob)
        blob[position] ^= 0xFF
        decoded = decode_records(bytes(blob))
        # Whatever survives is a prefix of what was written.
        assert decoded.records == tuple(records[: len(decoded.records)])

    @given(
        record=st.one_of(
            st.builds(
                StoreRecord,
                op=st.sampled_from(["put", "remove"]),
                namespace=st.text(max_size=10),
                logical=st.integers(min_value=0, max_value=2**20),
                keywords=st.lists(st.text(max_size=8), max_size=4).map(tuple),
                object_id=st.text(max_size=12),
            ),
            st.builds(
                StoreRecord,
                op=st.sampled_from(["ref_put", "ref_del"]),
                object_id=st.text(max_size=12),
                holder=st.integers(min_value=0, max_value=2**32),
            ),
        ),
        codec=st.sampled_from(["binary", "json"]),
    )
    def test_field_encoders_match_encode_record(self, record, codec):
        # FileStore frames its hot-path records from bare fields; the
        # bytes must be those encode_record writes for the same record.
        if record.op.startswith("ref_"):
            frame = encode_ref_op(record.op, record.object_id, record.holder, codec)
        else:
            frame = encode_entry_op(
                record.op,
                record.namespace,
                record.logical,
                record.keywords,
                record.object_id,
                codec,
            )
        assert frame == encode_record(record, codec)

    @given(records=st.lists(_RECORDS, max_size=30))
    def test_roundtrip_is_lossless(self, records):
        blob = b"".join(encode_record(record) for record in records)
        decoded = decode_records(blob)
        assert decoded.records == tuple(records)
        assert not decoded.truncated
        assert decoded.consumed == len(blob)

    @settings(max_examples=25)
    @given(records=st.lists(_RECORDS, min_size=1, max_size=15), cut=st.integers(min_value=0))
    def test_filestore_recovers_any_truncation(self, records, cut):
        """Truncate the WAL file at an arbitrary byte (the on-disk image
        a crash leaves) and recover: the state equals replaying the
        decodable prefix, and the torn tail is gone afterwards."""
        with tempfile.TemporaryDirectory() as directory:
            store = FileStore(directory)
            store.recover()
            for record in records:
                store._append(record)
            store.abort()
            wal = Path(directory) / "wal.log"
            size = wal.stat().st_size
            cut = cut % (size + 1)
            with open(wal, "r+b") as handle:
                handle.truncate(cut)
            survivor = FileStore(directory)
            state = survivor.recover()
            expected = decode_records(wal.read_bytes())
            tables, refs = replay(expected.records)
            assert state.tables == tables
            assert state.refs == refs
            survivor.close()
            clean = FileStore(directory).recover()
            assert not clean.truncated
            assert (clean.tables, clean.refs) == (tables, refs)


class TestFileStore:
    def test_recover_empty_directory(self, tmp_path):
        state = FileStore(tmp_path / "node").recover()
        assert state.tables == {} and state.refs == {}
        assert state.records == 0 and not state.truncated

    def test_mutations_survive_abort(self, tmp_path):
        store = FileStore(tmp_path)
        store.record_put("main", 5, ["a", "b"], "obj1")
        store.record_put("main", 5, ["a", "b"], "obj2")
        store.record_remove("main", 5, ["a", "b"], "obj1")
        store.record_ref_put("obj2", 7)
        store.abort()  # crash analog: no close-time fsync
        state = FileStore(tmp_path).recover()
        assert state.tables == {("main", 5): {frozenset({"a", "b"}): {"obj2"}}}
        assert state.refs == {"obj2": {7}}
        assert state.wal_records == 4

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        store = FileStore(tmp_path)
        store.record_put("main", 1, ["x"], "obj")
        store.close()
        frame = encode_record(StoreRecord(op="put", namespace="main", logical=2,
                                          keywords=("y",), object_id="torn"))
        with open(store.wal_path, "ab") as handle:
            handle.write(frame[:-3])  # the partial append a crash leaves
        recovered = FileStore(tmp_path)
        state = recovered.recover()
        assert state.truncated
        assert list(state.tables) == [("main", 1)]
        assert any("torn WAL tail" in note for note in state.notes)
        recovered.close()
        assert not FileStore(tmp_path).recover().truncated

    def test_compaction_folds_wal_into_snapshot(self, tmp_path):
        store = FileStore(tmp_path)
        tables = {("main", 3): {frozenset({"k"}): {"obj1", "obj2"}}}
        refs = {"obj1": {4}}
        store.bind(tables=lambda: tables, refs=lambda: refs)
        store.record_put("main", 3, ["k"], "obj1")
        store.record_put("main", 3, ["k"], "obj2")
        store.record_ref_put("obj1", 4)
        written = store.compact()
        assert written == 2  # one entry + one ref
        assert store.wal_path.stat().st_size == 0
        assert store.snapshot_path(1).exists()
        store.record_put("main", 9, ["z"], "obj3")
        store.close()
        state = FileStore(tmp_path).recover()
        assert state.snapshot_records == 2 and state.wal_records == 1
        assert state.tables[("main", 3)] == {frozenset({"k"}): {"obj1", "obj2"}}
        assert state.tables[("main", 9)] == {frozenset({"z"}): {"obj3"}}
        assert state.refs == {"obj1": {4}}

    def test_second_compaction_replaces_snapshot(self, tmp_path):
        store = FileStore(tmp_path)
        tables = {("main", 1): {frozenset({"a"}): {"x"}}}
        store.bind(tables=lambda: tables, refs=dict)
        store.compact()
        tables[("main", 1)][frozenset({"a"})].add("y")
        store.compact()
        snapshots = sorted(path.name for path in Path(tmp_path).glob("snapshot-*.snap"))
        assert snapshots == ["snapshot-00000002.snap"]
        state = FileStore(tmp_path).recover()
        assert state.tables == {("main", 1): {frozenset({"a"}): {"x", "y"}}}

    def test_auto_compaction_after_threshold(self, tmp_path):
        store = FileStore(tmp_path, compact_every=5)
        tables = {}
        store.bind(tables=lambda: tables, refs=dict)
        shard_key = ("main", 0)
        for i in range(6):
            tables.setdefault(shard_key, {}).setdefault(frozenset({"k"}), set()).add(f"o{i}")
            store.record_put("main", 0, ["k"], f"o{i}")
            store.maybe_compact()
        assert store.snapshot_path(1).exists()
        # Post-snapshot WAL only holds appends since the threshold hit.
        assert len(decode_records(store.wal_path.read_bytes()).records) == 1

    def test_concurrent_writers_with_compaction_lose_nothing(self, tmp_path):
        # Handler threads append and compact one store at once: no
        # compaction may trip over another's snapshot, and no append may
        # land in a WAL that a concurrent compaction then truncates.
        store = FileStore(tmp_path, compact_every=8)
        tables: dict = {}
        store.bind(tables=lambda: tables, refs=dict)
        errors: list[BaseException] = []

        def writer(number: int) -> None:
            try:
                for i in range(150):
                    object_id = f"t{number}-{i}"
                    tables.setdefault(("main", 0), {}).setdefault(
                        frozenset({"k"}), set()
                    ).add(object_id)
                    store.record_put("main", 0, ["k"], object_id)
                    store.maybe_compact()
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        store.close()
        reopened = FileStore(tmp_path)
        recovered = reopened.recover().tables[("main", 0)][frozenset({"k"})]
        reopened.close()
        assert recovered == {f"t{n}-{i}" for n in range(4) for i in range(150)}

    def test_compact_without_suppliers_is_a_noop(self, tmp_path):
        store = FileStore(tmp_path)
        store.record_put("main", 0, ["k"], "o")
        assert store.compact() == 0
        assert not store.snapshot_path(1).exists()

    def test_append_after_close_raises(self, tmp_path):
        store = FileStore(tmp_path)
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.record_put("main", 0, ["k"], "o")

    def test_metrics_reported(self, tmp_path):
        from repro.sim.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        store = FileStore(tmp_path, metrics=metrics)
        store.record_put("main", 0, ["k"], "o")
        store.bind(tables=lambda: {("main", 0): {frozenset({"k"}): {"o"}}}, refs=dict)
        store.compact()
        store.close()
        assert metrics.counter("store.wal_appends") == 1
        assert metrics.counter("store.wal_bytes") > 0
        assert metrics.counter("store.snapshots") == 1
        assert metrics.counter("store.recoveries") == 1
        assert metrics.summary("store.recovery_seconds").count == 1
        assert metrics.summary("store.snapshot_bytes").count == 1


class TestEntryRecords:
    def test_deterministic_and_replayable(self):
        tables = {
            ("main", 2): {frozenset({"b", "a"}): {"y", "x"}, frozenset({"c"}): {"z"}},
            ("alt", 1): {frozenset({"q"}): {"w"}},
        }
        refs = {"x": {3, 1}, "w": {2}}
        records = entry_records(tables, refs)
        assert records == entry_records(tables, refs)
        assert replay(records) == (tables, refs)


class TestShardIntegration:
    def test_default_store_is_memory_and_counts(self):
        shard = IndexShard()
        assert isinstance(shard.store, MemoryStore)
        shard.put(("main", 0), frozenset({"k"}), "obj")
        shard.remove(("main", 0), frozenset({"k"}), "obj")
        assert shard.store.appends == 2

    def test_shard_state_survives_restart(self, tmp_path):
        shard = IndexShard(store=FileStore(tmp_path))
        shard.put(("main", 3), frozenset({"jazz", "mp3"}), "take-five")
        shard.put(("main", 3), frozenset({"jazz"}), "kind-of-blue")
        shard.put(("main", 5), frozenset({"piano"}), "moonlight")
        shard.remove(("main", 3), frozenset({"jazz"}), "kind-of-blue")
        shard.store.abort()
        reborn = IndexShard(store=FileStore(tmp_path))
        assert reborn.tables == {
            ("main", 3): {frozenset({"jazz", "mp3"}): {"take-five"}},
            ("main", 5): {frozenset({"piano"}): {"moonlight"}},
        }
        assert reborn.pin(("main", 3), frozenset({"jazz", "mp3"})) == ("take-five",)

    def test_drop_table_is_durable(self, tmp_path):
        shard = IndexShard(store=FileStore(tmp_path))
        shard.put(("main", 3), frozenset({"jazz"}), "obj")
        shard.drop_table(("main", 3))
        shard.store.abort()
        reborn = IndexShard(store=FileStore(tmp_path))
        assert reborn.tables == {}

    def test_snapshot_records_stream_matches_entries(self, tmp_path):
        shard = IndexShard()
        shard.put(("main", 1), frozenset({"b", "a"}), "y")
        shard.put(("main", 1), frozenset({"b", "a"}), "x")
        shard.put(("main", 1), frozenset({"c"}), "z")
        assert shard.snapshot_records(("main", 1)) == [
            (["c"], ["z"]),
            (["a", "b"], ["x", "y"]),
        ]
