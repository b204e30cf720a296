"""Per-layer rows: what the traced pass and the public counters say.

Sources (README has the table of which end-to-end metric each row
should move): T = spans of the traced pass (mean µs of the span, or
self time = span minus child spans), C = public counter deltas around
the traced stream, I = the isolation pass (:mod:`isolate`).  A row that
does not apply to a workload reads 0 there.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from .engine import StreamResult, percentile
from .tracing import END, NAME, OP, PARENT, START, Recorder, layer_of, root_of
from .workloads import Deployment

__all__ = ["CounterSnapshot", "HIGHER_IS_BETTER", "PER_LAYER", "layer_metrics", "op_breakdown"]

CODEC_SHAPES = ("put", "scan-request", "scan-reply", "invalidate")

# name -> unit, in ledger order.  BENCHMARK.json's per_layer list is this table.
PER_LAYER: dict[str, str] = {
    "client.search_ms_p50": "ms",
    "client.prefix_ms_p50": "ms",
    "client.insert_ms_p50": "ms",
    "client.delete_ms_p50": "ms",
    "client.self_us_per_op": "us",
    "core.search.visits_per_query": "count",
    "core.search.self_us_per_query": "us",
    "core.search.prefix_expansions_per_query": "count",
    "core.index.scan_us": "us",
    "core.index.scans_per_op": "count",
    "core.index.rows_per_result": "count",
    "core.index.scan_iso_us": "us",
    "core.index.put_us": "us",
    "core.index.remove_us": "us",
    "core.index.handle_us": "us",
    "core.index.insert_self_us": "us",
    "core.index.invalidate_rpcs_per_write": "count",
    "core.cache.get_us": "us",
    "core.cache.put_us": "us",
    "core.cache.get_iso_us": "us",
    "core.cache.put_iso_us": "us",
    "core.cache.hit_rate": "%",
    "core.cache.evictions_per_kop": "count",
    "core.cache.invalidations_per_write": "count",
    "core.cache.stale_fills_rejected": "count",
    "core.mapping.owner_us": "us",
    "core.mapping.owner_calls_per_op": "count",
    "dht.lookup_hops_per_write": "count",
    "dht.dolr.dispatch_self_us": "us",
    "sim.resilience.rpc_self_us": "us",
    "sim.resilience.retries": "count",
    "net.aio.rpcs_per_op": "count",
    "net.aio.rpc_us_p50": "us",
    "net.aio.rpc_us_p95": "us",
    "net.aio.self_us_per_rpc": "us",
    "net.aio.batch_calls_per_batch": "count",
    "net.aio.connections_opened": "count",
    "net.aio.onecore_ratio": "ratio",
    "net.wire.encode_us": "us",
    "net.wire.decode_us": "us",
    "net.wire.frames_per_op": "count",
    "net.wire.bytes_per_frame": "B",
    "net.wire.bytes_per_op": "B",
    **{f"net.codec.encode_us.{shape}": "us" for shape in CODEC_SHAPES},
    **{f"net.codec.decode_us.{shape}": "us" for shape in CODEC_SHAPES},
    **{f"net.codec.json_encode_us.{shape}": "us" for shape in CODEC_SHAPES},
    **{f"net.codec.json_decode_us.{shape}": "us" for shape in CODEC_SHAPES},
    "net.admission.shed": "count",
    "store.file.append_us": "us",
    "store.file.append_iso_us": "us",
    "store.file.appends_per_write": "count",
    "store.wal.bytes_per_user_byte": "ratio",
    "store.file.fsyncs": "count",
    "store.file.compactions": "count",
    "store.file.compact_ms": "ms",
    "store.file.recover_ms_per_krecord": "ms",
    "store.file.disk_bytes_per_user_byte": "ratio",
    "prefix.directory.resolve_us": "us",
    "prefix.directory.msgs_per_query": "count",
    "prefix.directory.add_us_per_keyword": "us",
    "prefix.directory.msgs_per_write": "count",
    "sim.network.rpc_us": "us",
    "sim.network.msgs_per_op": "count",
    "sim.metrics.samples_held": "count",
    "sim.metrics.record_us": "us",
    "bench.failed_frac": "ratio",
    "bench.untraced_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
    "bench.calib_ms": "ms",
    "bench.loadavg_start": "count",
    "bench.nproc": "count",
}


# Every other row is better lower (costs, counts of work, context).
HIGHER_IS_BETTER = frozenset({"core.cache.hit_rate", "net.aio.batch_calls_per_batch"})


class CounterSnapshot:
    """Every public counter the ledger reads, summed over a deployment."""

    def __init__(self, deployment: Deployment):
        self.counters: Counter[str] = Counter()
        self.kinds: Counter[str] = Counter()
        for transport in deployment.transports:
            self.counters.update(transport.metrics.counters())
            self.kinds.update(dict(transport.kind_counts))
        self.hits, self.misses = deployment.service.index.cache_stats()

    def since(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        self.counters.subtract(earlier.counters)
        self.kinds.subtract(earlier.kinds)
        self.hits -= earlier.hits
        self.misses -= earlier.misses
        return self


def samples_held(deployment: Deployment) -> int:
    """Total length of every sample series (MetricsRegistry keeps them all)."""
    return sum(
        len(transport.metrics.samples(name))
        for transport in deployment.transports
        for name in transport.metrics.series_names()
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def op_breakdown(
    recorder: Recorder, stream: StreamResult, selfs: dict[int, float]
) -> list[dict[str, float]]:
    """Per op: µs of self time by layer, plus ``untraced`` and ``wall``.

    The layers and ``untraced`` sum to the op's wall time: the spans of
    one op form a tree under its ``client.*`` span, self times of a tree
    (``selfs``, from :func:`tracing.self_times`) sum to the root's
    duration, and ``untraced`` is the rest of the wall the driver
    measured around the call."""
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in recorder.spans:
        if root_of(span)[NAME].startswith("client."):
            per_op[span[OP]][layer_of(span[NAME])] += selfs[id(span)] * 1e6
    rows = []
    for outcome in stream.outcomes:
        layers = dict(per_op.get(outcome.index, {}))
        wall = (outcome.end - outcome.start) * 1e6
        layers["untraced"] = wall - sum(layers.values())
        layers["wall"] = wall
        rows.append(layers)
    return rows


def layer_metrics(
    recorder: Recorder,
    stream: StreamResult,
    delta: CounterSnapshot,
    user_bytes: int,
    selfs: dict[int, float],
    breakdown: list[dict[str, float]],
) -> dict[str, float]:
    """The T and C rows of one traced stream (I rows are merged in by the caller)."""
    spans = recorder.spans
    durations: dict[str, list[float]] = defaultdict(list)
    self_by_name: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        durations[span[NAME]].append((span[END] - span[START]) * 1e6)
        self_by_name[span[NAME]].append(selfs[id(span)] * 1e6)

    def mean_us(*names: str) -> float:
        return _mean([value for name in names for value in durations[name]])

    def mean_self(*names: str) -> float:
        return _mean([value for name in names for value in self_by_name[name]])

    ops = len(stream.ops)
    good = [outcome for outcome in stream.outcomes if outcome.error is None]
    by_kind: dict[str, list] = defaultdict(list)
    for outcome in good:
        by_kind[stream.ops[outcome.index].kind].append(outcome)
    queries = by_kind["search"] + by_kind["prefix"]
    writes = len(by_kind["insert"]) + len(by_kind["delete"])
    counters, kinds = delta.counters, delta.kinds
    frames = counters["net.frames_sent"]
    rpcs = frames / 2  # one request frame + one reply frame each
    pfx_messages = sum(count for kind, count in kinds.items() if kind.startswith("pfx."))
    resolve_messages = sum(outcome.directory_messages for outcome in by_kind["prefix"])
    aio_self = sum(self_by_name["net.aio.rpc"]) + sum(self_by_name["net.aio.rpc_many"])
    on_tcp = frames > 0

    def p50_ms(kind: str) -> float:
        return percentile([(o.end - o.start) * 1000.0 for o in by_kind[kind]], 0.5)

    return {
        "client.search_ms_p50": p50_ms("search"),
        "client.prefix_ms_p50": p50_ms("prefix"),
        "client.insert_ms_p50": p50_ms("insert"),
        "client.delete_ms_p50": p50_ms("delete"),
        "client.self_us_per_op": _mean([row.get("client", 0.0) for row in breakdown]),
        "core.search.visits_per_query": _mean([o.visits for o in by_kind["search"]]),
        "core.search.self_us_per_query": _ratio(
            sum(self_by_name["core.search.run"]) + sum(self_by_name["core.search.prefix_run"]),
            len(queries),
        ),
        "core.search.prefix_expansions_per_query": _mean(
            [o.expansions for o in by_kind["prefix"]]
        ),
        "core.index.scan_us": mean_us("core.index.scan"),
        "core.index.scans_per_op": kinds["hindex.scan"] / 2 / ops,
        "core.index.put_us": mean_us("core.index.put"),
        "core.index.remove_us": mean_us("core.index.remove"),
        "core.index.handle_us": mean_self("core.index.handle"),
        "core.index.insert_self_us": mean_self("core.index.insert"),
        "core.index.invalidate_rpcs_per_write": _ratio(counters["cache.invalidate_rpcs"], writes),
        "core.cache.get_us": mean_us("core.cache.get"),
        "core.cache.put_us": mean_us("core.cache.put"),
        "core.cache.hit_rate": 100.0 * _ratio(delta.hits, delta.hits + delta.misses),
        "core.cache.evictions_per_kop": 1000.0 * counters["cache.evictions"] / ops,
        "core.cache.invalidations_per_write": _ratio(counters["cache.invalidations"], writes),
        "core.cache.stale_fills_rejected": counters["cache.stale_fills_rejected"],
        "core.mapping.owner_us": mean_us("core.mapping.physical_owner"),
        "core.mapping.owner_calls_per_op": len(durations["core.mapping.physical_owner"]) / ops,
        "dht.lookup_hops_per_write": _ratio(kinds["chord.route_step"] / 2, writes),
        "dht.dolr.dispatch_self_us": mean_self("dht.dolr.on_message"),
        "sim.resilience.rpc_self_us": mean_self("sim.resilience.rpc", "sim.resilience.rpc_many"),
        "sim.resilience.retries": counters["rpc.retries"],
        "net.aio.rpcs_per_op": rpcs / ops,
        "net.aio.rpc_us_p50": percentile(durations["net.aio.rpc"], 0.50),
        "net.aio.rpc_us_p95": percentile(durations["net.aio.rpc"], 0.95),
        "net.aio.self_us_per_rpc": _ratio(aio_self, rpcs),
        "net.aio.batch_calls_per_batch": _ratio(counters["net.batch_calls"],
                                                counters["net.batch_rpcs"]),
        "net.wire.encode_us": mean_us("net.wire.encode_frame"),
        "net.wire.decode_us": mean_us("net.wire.parse_frame_info"),
        "net.wire.frames_per_op": frames / ops,
        "net.wire.bytes_per_frame": _ratio(counters["net.bytes_sent"], frames),
        "net.wire.bytes_per_op": counters["net.bytes_sent"] / ops,
        "net.admission.shed": counters["net.shed_requests"],
        "store.file.append_us": mean_us(
            "store.file.record_put", "store.file.record_remove",
            "store.file.record_ref_put", "store.file.record_ref_del",
        ),
        "store.file.appends_per_write": _ratio(counters["store.wal_appends"], writes),
        "store.wal.bytes_per_user_byte": _ratio(counters["store.wal_bytes"], user_bytes),
        "store.file.compactions": counters["store.snapshots"],
        "prefix.directory.resolve_us": mean_us("prefix.directory.resolve"),
        "prefix.directory.msgs_per_query": _mean(
            [o.directory_messages for o in by_kind["prefix"]]
        ),
        "prefix.directory.add_us_per_keyword": mean_us("prefix.directory.add_keyword"),
        "prefix.directory.msgs_per_write": _ratio(pfx_messages - resolve_messages, writes),
        "sim.network.rpc_us": mean_self("sim.network.rpc", "sim.network.rpc_many"),
        "sim.network.msgs_per_op": 0.0 if on_tcp else counters["network.messages"] / ops,
        "bench.untraced_frac": _ratio(
            sum(row["untraced"] for row in breakdown), sum(row["wall"] for row in breakdown)
        ),
    }


def orphan_count(recorder: Recorder) -> int:
    """Spans tied to no operation (their thread saw no open transport span)."""
    return sum(
        1
        for span in recorder.spans
        if span[PARENT] is None and not span[NAME].startswith("client.")
    )
