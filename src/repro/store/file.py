"""``FileStore``: one durable directory per node.

Layout::

    <directory>/
        wal.log               append-only CRC-framed records
        snapshot-<seq>.snap   the state as of the last compaction
        MANIFEST.json         which snapshot is current

Every mutation is appended to ``wal.log`` and flushed to the OS before
the call returns, so the data survives the *process* dying at any
instant (``kill -9`` included).  ``fsync=True`` additionally syncs each
append to the medium — surviving power loss at a heavy write-path cost;
the default leaves per-append durability at the OS boundary and fsyncs
on snapshots, :meth:`flush`, and :meth:`close` (the graceful-shutdown
path).

Compaction rewrites the live state (pulled from the suppliers
:meth:`bind` registered) as ``entry`` / ``ref_put`` records into a new
snapshot — written to a temp file, fsynced, atomically renamed, and
only then pointed at by a rewritten manifest — after which the WAL is
truncated.  A crash between any two of those steps leaves either the
old (snapshot, WAL) pair or the new one, never a mix.

Recovery replays the manifest's snapshot, then the WAL; a torn WAL tail
(partial frame or CRC mismatch) is dropped and the file truncated to
the clean prefix.  ``recover()`` is idempotent and lazy — the first
``record_*`` call triggers it if nobody asked earlier.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Iterable

from repro.net.codec import codec_by_name
from repro.obs.trace import active_recorder
from repro.store.backend import RecoveredState
from repro.store.wal import (
    Refs,
    StoreRecord,
    Tables,
    apply_record,
    decode_records,
    encode_entry_op,
    encode_record,
    encode_ref_op,
    entry_records,
    replay,
)

__all__ = ["FileStore"]

MANIFEST_VERSION = 1


class FileStore:
    """Durable :class:`~repro.store.backend.StoreBackend` over one
    directory."""

    durable = True

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: bool = False,
        compact_every: int = 4096,
        metrics=None,
        codec: str = "binary",
    ):
        """``compact_every`` WAL appends trigger a snapshot (0 disables
        automatic compaction); ``metrics`` is a
        :class:`~repro.sim.metrics.MetricsRegistry` the store reports
        ``store.*`` counters and series into (the service binds the
        transport's registry here).  ``codec`` selects the record
        encoding for *writes* (``"binary"`` v2 by default, ``"json"``
        the v1 fallback); recovery reads either, per record, so a
        directory written under one codec reopens under the other."""
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.compact_every = compact_every
        self.metrics = metrics
        self.codec = codec_by_name(codec).name
        self._wal = None
        self._recovered: RecoveredState | None = None
        self._seq = 0
        self._appends_since_compact = 0
        self._tables_supplier: Callable[[], Tables] | None = None
        self._refs_supplier: Callable[[], Refs] | None = None
        self._closed = False
        # Handler threads share one store: an append must never land in
        # a WAL a concurrent compaction is about to truncate, and two
        # compactions must not race on one snapshot temp file.
        self._write_lock = threading.Lock()

    # -- paths --------------------------------------------------------

    @property
    def wal_path(self) -> Path:
        return self.directory / "wal.log"

    @property
    def manifest_path(self) -> Path:
        return self.directory / "MANIFEST.json"

    def snapshot_path(self, seq: int) -> Path:
        return self.directory / f"snapshot-{seq:08d}.snap"

    # -- recovery -----------------------------------------------------

    def recover(self) -> RecoveredState:
        """Replay snapshot + WAL into the state to boot from (idempotent)."""
        if self._recovered is not None:
            return self._recovered
        started = time.perf_counter()
        notes: list[str] = []
        tables: Tables = {}
        refs: Refs = {}
        snapshot_count = 0
        manifest = self._read_manifest(notes)
        self._seq = int(manifest.get("seq", 0))
        snapshot_name = manifest.get("snapshot")
        if snapshot_name:
            snapshot_file = self.directory / str(snapshot_name)
            if snapshot_file.exists():
                decoded = decode_records(snapshot_file.read_bytes())
                if decoded.truncated:
                    notes.append(f"snapshot {snapshot_name}: {decoded.reason}")
                tables, refs = replay(decoded.records)
                snapshot_count = len(decoded.records)
            else:
                notes.append(f"manifest names missing snapshot {snapshot_name}")
        wal_count, truncated = self._replay_wal(tables, refs, notes)
        # Unbuffered: each append is one write(2) straight into the OS
        # page cache — the per-append durability point — with no
        # Python-level buffer to flush.
        self._wal = open(self.wal_path, "ab", buffering=0)
        elapsed = time.perf_counter() - started
        self._recovered = RecoveredState(
            tables=tables,
            refs=refs,
            snapshot_records=snapshot_count,
            wal_records=wal_count,
            truncated=truncated,
            notes=tuple(notes),
        )
        if self.metrics is not None:
            self.metrics.increment("store.recoveries")
            self.metrics.increment("store.recovered_records", self._recovered.records)
            self.metrics.record("store.recovery_seconds", elapsed)
        recorder = active_recorder()
        if recorder is not None:
            recorder.emit(
                "store",
                op="recover",
                directory=str(self.directory),
                snapshot_records=snapshot_count,
                wal_records=wal_count,
                truncated=truncated,
            )
        return self._recovered

    def _read_manifest(self, notes: list[str]) -> dict:
        if not self.manifest_path.exists():
            return {}
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            notes.append(f"unreadable manifest: {error}")
            return {}
        return manifest if isinstance(manifest, dict) else {}

    def _replay_wal(self, tables: Tables, refs: Refs, notes: list[str]) -> tuple[int, bool]:
        if not self.wal_path.exists():
            return 0, False
        data = self.wal_path.read_bytes()
        decoded = decode_records(data)
        for record in decoded.records:
            apply_record(tables, refs, record)
        if decoded.truncated:
            notes.append(
                f"dropped torn WAL tail at byte {decoded.consumed}: {decoded.reason}"
            )
            with open(self.wal_path, "r+b") as wal:
                wal.truncate(decoded.consumed)
            if self.metrics is not None:
                self.metrics.increment("store.wal_torn_tails")
        return len(decoded.records), decoded.truncated

    # -- live-state suppliers (for compaction) ------------------------

    def bind(
        self,
        *,
        tables: Callable[[], Tables] | None = None,
        refs: Callable[[], Refs] | None = None,
    ) -> None:
        if tables is not None:
            self._tables_supplier = tables
        if refs is not None:
            self._refs_supplier = refs

    # -- the write path -----------------------------------------------

    def _append_frame(
        self, frame: bytes, op: str, namespace: str, logical: int, object_id: str
    ) -> None:
        with self._write_lock:
            if self._closed:
                raise RuntimeError(f"store {self.directory} is closed")
            if self._wal is None:
                self.recover()
            self._wal.write(frame)  # unbuffered: lands in the OS page cache
            if self.fsync:
                os.fsync(self._wal.fileno())
            self._appends_since_compact += 1
        if self.metrics is not None:
            self.metrics.increment("store.wal_appends")
            self.metrics.increment("store.wal_bytes", len(frame))
        recorder = active_recorder()
        if recorder is not None:
            recorder.emit(
                "store", op=op, namespace=namespace, logical=logical, object_id=object_id
            )

    def _append(self, record: StoreRecord) -> None:
        self._append_frame(
            encode_record(record, self.codec), record.op, record.namespace,
            record.logical, record.object_id,
        )

    def record_put(
        self, namespace: str, logical: int, keywords: Iterable[str], object_id: str
    ) -> None:
        frame = encode_entry_op(
            "put", namespace, logical, tuple(sorted(keywords)), object_id, self.codec
        )
        self._append_frame(frame, "put", namespace, logical, object_id)

    def record_remove(
        self, namespace: str, logical: int, keywords: Iterable[str], object_id: str
    ) -> None:
        frame = encode_entry_op(
            "remove", namespace, logical, tuple(sorted(keywords)), object_id, self.codec
        )
        self._append_frame(frame, "remove", namespace, logical, object_id)

    def record_drop(self, namespace: str, logical: int) -> None:
        self._append(StoreRecord(op="drop", namespace=namespace, logical=logical))

    def record_ref_put(self, object_id: str, holder: int) -> None:
        self._append_frame(
            encode_ref_op("ref_put", object_id, holder, self.codec), "ref_put", "", 0, object_id
        )

    def record_ref_del(self, object_id: str, holder: int) -> None:
        self._append_frame(
            encode_ref_op("ref_del", object_id, holder, self.codec), "ref_del", "", 0, object_id
        )

    # -- snapshot + compaction ----------------------------------------

    def maybe_compact(self) -> None:
        """The cheap per-mutation hook: snapshot once enough WAL
        accumulated (and live-state suppliers are bound)."""
        if self.compact_every and self._appends_since_compact >= self.compact_every:
            with self._write_lock:
                # Re-checked under the lock: a concurrent writer may
                # have compacted since the unlocked test.
                if self._appends_since_compact >= self.compact_every:
                    self._compact()

    def compact(self) -> int:
        """Fold the WAL into a fresh snapshot; returns records written.

        A no-op (returning 0) when no live-state supplier is bound —
        there is nothing authoritative to snapshot from.
        """
        with self._write_lock:
            return self._compact()

    def _compact(self) -> int:
        if self._tables_supplier is None and self._refs_supplier is None:
            return 0
        if self._wal is None:
            self.recover()
        started = time.perf_counter()
        tables = self._tables_supplier() if self._tables_supplier is not None else {}
        refs = self._refs_supplier() if self._refs_supplier is not None else {}
        records = entry_records(tables, refs)
        seq = self._seq + 1
        snapshot_file = self.snapshot_path(seq)
        tmp = snapshot_file.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            for record in records:
                handle.write(encode_record(record, self.codec))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, snapshot_file)
        self._write_manifest({"version": MANIFEST_VERSION, "seq": seq,
                              "snapshot": snapshot_file.name})
        # The snapshot is durable and current: restart the WAL.
        self._wal.close()
        self._wal = open(self.wal_path, "wb", buffering=0)
        self._fsync_directory()
        old = self.snapshot_path(self._seq)
        if self._seq and old.exists():
            old.unlink()
        self._seq = seq
        self._appends_since_compact = 0
        size = snapshot_file.stat().st_size
        if self.metrics is not None:
            self.metrics.increment("store.snapshots")
            self.metrics.record("store.snapshot_bytes", size)
            self.metrics.record("store.snapshot_records", len(records))
            self.metrics.record("store.compaction_seconds", time.perf_counter() - started)
        recorder = active_recorder()
        if recorder is not None:
            recorder.emit(
                "store", op="snapshot", seq=seq, records=len(records), bytes=size
            )
        return len(records)

    def _write_manifest(self, manifest: dict) -> None:
        tmp = self.manifest_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

    # -- lifecycle ----------------------------------------------------

    def flush(self) -> None:
        """Push every appended record to the medium (fsync; appends are
        already in the OS via the unbuffered handle)."""
        if self._wal is not None and not self._wal.closed:
            os.fsync(self._wal.fileno())

    def close(self) -> None:
        """Graceful shutdown: fsync the WAL and release the handle."""
        if self._closed:
            return
        self.flush()
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        self._closed = True

    def abort(self) -> None:
        """Crash analog for tests: drop the handle with no final fsync.

        Every append already flushed its bytes to the OS, so this leaves
        exactly what a ``kill -9`` would — possibly including a torn
        tail if the caller staged one.
        """
        if self._wal is not None and not self._wal.closed:
            self._wal.close()  # unbuffered: nothing Python-side to lose
            self._wal = None
        self._closed = True
