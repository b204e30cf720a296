"""Spans recorded from outside: wrap each layer's public entry points.

Nothing under ``src/`` is edited.  :func:`installed` swaps the entry
points of every layer for timing wrappers (and restores them on exit);
a span is ``[name, start, end, parent, op]``.

The traced pass runs one client, so exactly one operation is in flight.
Client-side spans nest on the client thread through a thread-local
stack.  A span that starts on a thread with an empty stack — a handler
on a pool thread, a frame being encoded on an IO-loop thread — takes as
parent the one transport span open at that moment, which is what ties
the server half of an RPC to the client half without touching the wire
format.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.net.aio as aio
from repro.client import _ServiceBackedClient
from repro.core.cache import QueryCache
from repro.core.index import HypercubeIndex, IndexShard
from repro.core.mapping import HypercubeMapping
from repro.core.search import PrefixSearch, SuperSetSearch
from repro.net.wire import FrameType
from repro.prefix.directory import KeywordDirectory
from repro.sim.network import SimulatedNetwork
from repro.sim.resilience import ResilientChannel
from repro.store.file import FileStore

__all__ = ["Recorder", "Span", "installed", "layer_of", "self_times"]

Span = list  # [name, start, end, parent span or None, op index]
NAME, START, END, PARENT, OP = range(5)

# Frame shapes the isolation pass replays through the codecs.
SHAPES = {
    ("hindex.put", FrameType.REQUEST): "put",
    ("hindex.scan", FrameType.REQUEST): "scan-request",
    ("hindex.scan", FrameType.REPLY): "scan-reply",
    ("hindex.cache_invalidate", FrameType.REQUEST): "invalidate",
}
FRAMES_KEPT = 32

# (owner, attribute, span name, opens a transport span)
_TARGETS = [
    (_ServiceBackedClient, "search", "client.search", False),
    (_ServiceBackedClient, "insert", "client.insert", False),
    (_ServiceBackedClient, "delete", "client.delete", False),
    (SuperSetSearch, "run", "core.search.run", False),
    (PrefixSearch, "run", "core.search.prefix_run", False),
    (KeywordDirectory, "resolve", "prefix.directory.resolve", False),
    (KeywordDirectory, "add_keyword", "prefix.directory.add_keyword", False),
    (KeywordDirectory, "remove_keyword", "prefix.directory.remove_keyword", False),
    (HypercubeIndex, "insert", "core.index.insert", False),
    (HypercubeIndex, "delete", "core.index.delete", False),
    (HypercubeIndex, "invalidate_caches", "core.index.invalidate_caches", False),
    (HypercubeMapping, "physical_owner", "core.mapping.physical_owner", False),
    (ResilientChannel, "rpc", "sim.resilience.rpc", False),
    (ResilientChannel, "rpc_many", "sim.resilience.rpc_many", False),
    (aio.AsyncioTransport, "rpc", "net.aio.rpc", True),
    (aio.AsyncioTransport, "rpc_many", "net.aio.rpc_many", True),
    (SimulatedNetwork, "rpc", "sim.network.rpc", False),
    (SimulatedNetwork, "rpc_many", "sim.network.rpc_many", False),
    (IndexShard, "handle", "core.index.handle", False),
    (IndexShard, "scan", "core.index.scan", False),
    (IndexShard, "put", "core.index.put", False),
    (IndexShard, "remove", "core.index.remove", False),
    (IndexShard, "cache_get", "core.index.cache_get", False),
    (IndexShard, "cache_put", "core.index.cache_put", False),
    (IndexShard, "invalidate_queries", "core.index.invalidate_queries", False),
    (QueryCache, "get", "core.cache.get", False),
    (QueryCache, "put", "core.cache.put", False),
    (FileStore, "record_put", "store.file.record_put", False),
    (FileStore, "record_remove", "store.file.record_remove", False),
    (FileStore, "record_ref_put", "store.file.record_ref_put", False),
    (FileStore, "record_ref_del", "store.file.record_ref_del", False),
    # Imported by name into repro.net.aio, so wrapped where they are looked up.
    (aio, "encode_frame", "net.wire.encode_frame", False),
    (aio, "parse_frame_info", "net.wire.parse_frame_info", False),
]

HANDLER_SPAN = "dht.dolr.on_message"


def layer_of(name: str) -> str:
    """Span name -> the layer whose row it feeds (the module path)."""
    if name.startswith("client."):
        return "client"
    return name.rsplit(".", 1)[0]


class Recorder:
    """Keeps spans in memory; written out by the caller when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op = -1  # index of the operation in flight (set by the driver)
        self.transport_span: Span | None = None
        self.frames: dict[str, list] = defaultdict(list)
        self.fsyncs = 0
        self._local = threading.local()

    def wrap(self, function, name: str, transport: bool = False):
        recorder = self
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not recorder.enabled:
                return function(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else recorder.transport_span
            span = [name, clock(), 0.0, parent, recorder.op]
            stack.append(span)
            if transport:
                outer = recorder.transport_span
                recorder.transport_span = span
            try:
                return function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if transport:
                    recorder.transport_span = outer
                recorder.spans.append(span)

        traced.__wrapped__ = function
        return traced

    def _capturing_encoder(self, encode):
        """encode_frame, additionally keeping a few frames per shape."""
        frames = self.frames

        def encode_frame(frame, *args, **kwargs):
            shape = SHAPES.get((frame.kind, frame.type))
            if shape is not None and len(frames[shape]) < FRAMES_KEPT:
                frames[shape].append(frame)
            return encode(frame, *args, **kwargs)

        return encode_frame

    def _registering(self, register):
        """transport.register, handing the transport a wrapped handler."""
        recorder = self

        def wrapped_register(transport, address, handler):
            return register(transport, address, recorder.wrap(handler, HANDLER_SPAN))

        return wrapped_register

    def _counting_fsync(self, fsync):
        def counted(fd):
            self.fsyncs += 1
            return fsync(fd)

        return counted


@contextmanager
def installed(recorder: Recorder):
    """Wrap every layer's entry points for the ``with`` block.

    Install *before* the deployment is built: handlers are wrapped as
    the transport registers them.  Spans are only recorded while
    ``recorder.enabled``.
    """
    saved = []

    def swap(owner, attribute, replacement):
        saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    try:
        for owner, attribute, name, transport in _TARGETS:
            original = getattr(owner, attribute)
            if attribute == "encode_frame":
                original = recorder._capturing_encoder(original)
            swap(owner, attribute, recorder.wrap(original, name, transport))
        for transport_class in (aio.AsyncioTransport, SimulatedNetwork):
            swap(transport_class, "register", recorder._registering(transport_class.register))
        swap(os, "fsync", recorder._counting_fsync(os.fsync))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# -- span arithmetic ---------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> self time, so that the self times of one tree sum to
    its root's duration exactly.

    Every instant of a root's interval is charged to the spans that are
    open at that instant and have no open child — one span when calls
    nest, several when a batch RPC's handlers run side by side, in which
    case they share the instant equally.  For plain nesting this is the
    usual "duration minus children".  A child is clipped to its parent's
    interval (a reply frame can finish encoding after the caller already
    has its answer).
    """
    clipped: dict[int, tuple[float, float]] = {}
    trees: dict[int, list[Span]] = defaultdict(list)
    for span in sorted(spans, key=lambda s: s[START]):  # parents open before children
        low, high = span[START], span[END]
        parent = span[PARENT]
        if parent is not None:
            bounds = clipped.get(id(parent))
            if bounds is None:
                continue  # its parent was never recorded: not part of any tree
            low, high = max(low, bounds[0]), min(high, bounds[1])
            if high <= low:
                continue
        clipped[id(span)] = (low, high)
        trees[id(root_of(span))].append(span)
    result = dict.fromkeys((id(span) for span in spans), 0.0)
    for members in trees.values():
        events = []
        for span in members:
            low, high = clipped[id(span)]
            events.append((low, 1, id(span), span))
            events.append((high, 0, id(span), span))
        events.sort(key=lambda event: event[:3])  # at equal times, ends before starts
        open_children: dict[int, int] = defaultdict(int)
        leaves: dict[int, Span] = {}
        previous = events[0][0]
        for moment, opening, key, span in events:
            if leaves and moment > previous:
                share = (moment - previous) / len(leaves)
                for leaf in leaves:
                    result[leaf] += share
            previous = moment
            parent = span[PARENT]
            if opening:
                leaves[key] = span
                if parent is not None:
                    open_children[id(parent)] += 1
                    leaves.pop(id(parent), None)
            else:
                leaves.pop(key, None)
                if parent is not None:
                    open_children[id(parent)] -= 1
                    if not open_children[id(parent)] and clipped[id(parent)][1] > moment:
                        leaves[id(parent)] = parent
    return result


def root_of(span: Span) -> Span:
    while span[PARENT] is not None:
        span = span[PARENT]
    return span


def dump(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready rows; ``parent`` is a row index (-1: none)."""
    index = {id(span): position for position, span in enumerate(spans)}
    return [
        {
            "name": span[NAME],
            "start_us": round(span[START] * 1e6, 1),
            "end_us": round(span[END] * 1e6, 1),
            "parent": index.get(id(span[PARENT]), -1) if span[PARENT] is not None else -1,
            "op": span[OP],
        }
        for span in spans
    ]
