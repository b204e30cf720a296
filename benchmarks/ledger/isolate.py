"""The isolation pass: pure layers replayed alone.

Single-threaded, ``process_time``, garbage collection off, at least
``CALLS`` calls per layer; each row is a per-call cost in µs (a count
and a time, never a speed-up).  Inputs are the traced workload's own:
the frames its transports encoded, the hottest table of its loaded
fleet, the objects its stream wrote.  A layer the workload gave no
input for reads 0.
"""

from __future__ import annotations

import gc
import os
import time
from pathlib import Path

from repro.core.cache import FifoQueryCache
from repro.net.codec import CODEC_BINARY, CODEC_JSON
from repro.net.wire import decode_frame, encode_frame
from repro.sim.metrics import MetricsRegistry
from repro.store.file import FileStore

from .layers import CODEC_SHAPES
from .workloads import Deployment, Op

__all__ = ["calibration_ms", "isolation_rows", "onecore_ratio"]

CALLS = 2000


def _per_call_us(function, inputs: list) -> float:
    """Mean µs of ``function(x)`` cycling ``inputs`` for ``CALLS`` calls."""
    if not inputs:
        return 0.0
    schedule = [inputs[i % len(inputs)] for i in range(CALLS)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.process_time()
        for item in schedule:
            function(item)
        elapsed = time.process_time() - began
    finally:
        if enabled:
            gc.enable()
    return elapsed * 1e6 / CALLS


def calibration_ms() -> float:
    """A fixed pure-Python loop: the box's speed right now, for context."""
    began = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value % 7
    return (time.perf_counter() - began) * 1000.0


def _codec_rows(frames: dict[str, list]) -> dict[str, float]:
    rows = {}
    for shape in CODEC_SHAPES:
        captured = frames.get(shape, [])
        for codec, tag in ((CODEC_BINARY, ""), (CODEC_JSON, "json_")):
            encoded = [encode_frame(frame, codec=codec) for frame in captured]
            rows[f"net.codec.{tag}encode_us.{shape}"] = _per_call_us(
                lambda frame, codec=codec: encode_frame(frame, codec=codec), captured
            )
            rows[f"net.codec.{tag}decode_us.{shape}"] = _per_call_us(decode_frame, encoded)
    return rows


def _scan_rows(deployment: Deployment, queries: list[frozenset[str]]) -> dict[str, float]:
    """IndexShard.scan on the loaded fleet's hottest table."""
    index = deployment.service.index
    hottest = None
    for address in index.dolr.addresses():
        shard = index.shard_at(address)
        for key in list(shard.tables):
            if key[0] == index.namespace and (
                hottest is None or shard.load(key) > hottest[0].load(hottest[1])
            ):
                hottest = (shard, key)
    if hottest is None or not queries:
        return {"core.index.scan_iso_us": 0.0, "core.index.rows_per_result": 0.0}
    shard, key = hottest
    # Queries that can match there: subsets of the keyword sets it holds.
    held = list(shard.tables[key])
    probes = [query for query in queries if any(query <= keywords for keywords in held)]
    probes = probes or [frozenset(list(held[0])[:1])]
    returned = sum(
        len(ids) for probe in probes for _, ids in shard.scan(key, probe, None)[0]
    )
    return {
        "core.index.scan_iso_us": _per_call_us(lambda q: shard.scan(key, q, None), probes),
        # Every scan examines the whole table: entries examined per id returned.
        "core.index.rows_per_result": len(held) * len(probes) / max(1, returned),
    }


def _cache_rows(queries: list[frozenset[str]]) -> dict[str, float]:
    if not queries:
        return {"core.cache.get_iso_us": 0.0, "core.cache.put_iso_us": 0.0}
    cache = FifoQueryCache(64)
    keys = [("main", position % 256, query) for position, query in enumerate(queries)]
    results = tuple((f"object-{i}", frozenset({"kw"})) for i in range(10))
    put_us = _per_call_us(lambda key: cache.put(key, results, complete=False), keys)
    return {
        "core.cache.put_iso_us": put_us,
        "core.cache.get_iso_us": _per_call_us(lambda key: cache.get(key, 10), keys),
    }


def _store_rows(writes: list[Op], scratch: Path) -> dict[str, float]:
    """encode_entry_op + one unbuffered append per call, then one compaction."""
    if not writes:
        return {"store.file.append_iso_us": 0.0, "store.file.compact_ms": 0.0}
    tables: dict = {}
    store = FileStore(scratch / "isolate-store", compact_every=0)
    try:
        store.recover()
        store.bind(tables=lambda: tables)

        def append(op: Op) -> None:
            store.record_put("main", 1, op.keywords, op.object_id)
            tables.setdefault(("main", 1), {}).setdefault(op.keywords, set()).add(op.object_id)

        append_us = _per_call_us(append, writes)
        began = time.perf_counter()
        store.compact()
        compact_ms = (time.perf_counter() - began) * 1000.0
    finally:
        store.close()
    return {"store.file.append_iso_us": append_us, "store.file.compact_ms": compact_ms}


def _metrics_rows() -> dict[str, float]:
    registry = MetricsRegistry()
    return {
        "sim.metrics.record_us": _per_call_us(
            lambda value: registry.record("ledger.sample", value), [1.0, 2.0, 3.0]
        )
    }


def isolation_rows(
    deployment: Deployment, frames: dict[str, list], ops: list[Op], scratch: Path
) -> dict[str, float]:
    """Every (I) row this workload has inputs for."""
    queries = [op.keywords for op in ops if op.kind == "search"]
    writes = [op for op in ops if op.kind == "insert"]
    rows = _codec_rows(frames)
    rows.update(_scan_rows(deployment, queries))
    rows.update(_cache_rows(queries))
    rows.update(_store_rows(writes, scratch))
    rows.update(_metrics_rows())
    return rows


def onecore_ratio(run_slice) -> float:
    """ops/s of ``run_slice()`` with every thread confined to one core ÷
    as the ledger runs it, unpinned (hazard 2); 0 where the process
    cannot be pinned or has one core anyway."""
    if not hasattr(os, "sched_setaffinity"):
        return 0.0
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return 0.0
    spread_out = run_slice()
    try:
        _pin_every_thread({max(allowed)})
        on_one_core = run_slice()
    finally:
        _pin_every_thread(allowed)
    return on_one_core / spread_out if spread_out else 0.0


def _pin_every_thread(cores: set[int]) -> None:
    """sched_setaffinity acts on one thread; the fleet's loop and handler
    threads already exist, so each is moved (new ones inherit)."""
    for task in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(task), cores)
        except OSError:  # the thread exited between listdir and the call
            pass
