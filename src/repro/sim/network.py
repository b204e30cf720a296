"""A simulated message-passing network with accounting.

``SimulatedNetwork`` is the reference implementation of the
:class:`~repro.net.transport.Transport` contract (the other is
:class:`~repro.net.aio.AsyncioTransport`, which crosses real sockets).
Endpoints register a handler keyed by an integer address (the DHT node
identifier).  Two communication styles are offered:

* :meth:`SimulatedNetwork.rpc` — a synchronous request/reply pair.  The
  virtual clock advances by two one-way latencies, two messages are
  accounted, and the destination handler's return value is delivered to
  the caller.  Protocol code written against ``rpc`` reads like the
  paper's pseudo-code while still paying for every message.
* :meth:`SimulatedNetwork.send` — a one-way message delivered through
  the event scheduler after one latency.  Used for gossip-style traffic
  (e.g. Chord stabilization) where no reply is awaited.

Failure injection (:meth:`fail` / :meth:`recover`) makes a node drop all
traffic, which the DHT layer's surrogate routing and the fault-tolerance
experiment build on.  :meth:`set_loss_rate` adds *transient* faults: each
request independently fails with a seeded probability, modelling the
message loss / momentary unreachability that retry policies recover
from (a fail-stop node, by contrast, defeats any number of retries).  A :meth:`trace` context manager captures the
messages sent within a window — experiments use it to count messages and
distinct nodes contacted per query, the paper's cost metrics.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterator

from repro.net.codec import codec_by_name
from repro.net.errors import NodeBusyError, PeerUnreachableError, TransportError
from repro.net.transport import Handler, Message, MessageTrace, RpcCall, RpcOutcome
from repro.net.wire import Frame, FrameType, encode_frame
from repro.obs.trace import active_recorder
from repro.sim.events import EventScheduler
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.metrics import MetricsRegistry

__all__ = [
    "Message",
    "MessageTrace",
    "NetworkError",
    "NodeUnreachableError",
    "SimulatedNetwork",
]


_UNMEASURED = object()  # sentinel: "size the accounting Message's own payload"


class NetworkError(TransportError):
    """Base class for simulated-network failures.

    Rebased onto :class:`~repro.net.errors.TransportError` so code
    written against the generic transport hierarchy handles simulator
    failures too.
    """


class NodeUnreachableError(NetworkError, PeerUnreachableError):
    """The destination is failed or was never registered.

    Subclasses both the simulator's historical :class:`NetworkError`
    and the transport-generic
    :class:`~repro.net.errors.PeerUnreachableError`, so either catch
    site works.
    """

    def __init__(self, address: int):
        TransportError.__init__(self, f"node {address} is unreachable")
        self.address = address


class SimulatedNetwork:
    """The shared medium connecting every simulated node."""

    def __init__(
        self,
        scheduler: EventScheduler | None = None,
        latency: LatencyModel | None = None,
        metrics: MetricsRegistry | None = None,
        *,
        measure_bytes: bool = False,
        codec: str = "binary",
    ):
        """``measure_bytes=True`` additionally encodes every message
        through the wire codec (``codec``, ``"binary"`` or ``"json"``)
        and accumulates the frame sizes into ``net.bytes_sent`` — the
        same counter :class:`~repro.net.aio.AsyncioTransport`
        maintains — so simulator bandwidth rows in the benchmarks are
        codec-true and comparable across media.  Off by default: the
        encoding pass costs real time per message and the experiments'
        published numbers count messages, not bytes."""
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        self.latency = latency if latency is not None else ConstantLatency(1.0)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.measure_bytes = measure_bytes
        wire_codec = codec_by_name(codec)
        self.codec = wire_codec.name
        self._codec_id = wire_codec.id
        self._handlers: dict[int, Handler] = {}
        self._failed: set[int] = set()
        self._loss_rate: float = 0.0
        self._loss_rng: random.Random = random.Random(0)
        self._busy_budget: Counter[int] = Counter()
        self._traces: list[MessageTrace] = []
        self.kind_counts: Counter[str] = Counter()
        self.received_counts: Counter[int] = Counter()

    # -- membership ---------------------------------------------------

    def register(self, address: int, handler: Handler) -> None:
        """Attach ``handler`` at ``address``.  Re-registration replaces."""
        self._handlers[address] = handler
        self._failed.discard(address)

    def unregister(self, address: int) -> None:
        """Detach the endpoint at ``address`` (node leaves the network)."""
        self._handlers.pop(address, None)
        self._failed.discard(address)

    def is_registered(self, address: int) -> bool:
        return address in self._handlers

    def addresses(self) -> frozenset[int]:
        """All registered addresses (failed ones included)."""
        return frozenset(self._handlers)

    # -- clock --------------------------------------------------------

    def now(self) -> float:
        """Current virtual time (the scheduler's clock)."""
        return self.scheduler.now

    def sleep(self, delay: float) -> None:
        """Advance the virtual clock by ``delay`` units."""
        self.scheduler.advance(delay)

    # -- failure injection --------------------------------------------

    def fail(self, address: int) -> None:
        """Make ``address`` drop all traffic until :meth:`recover`."""
        if address not in self._handlers:
            raise NetworkError(f"cannot fail unknown node {address}")
        self._failed.add(address)

    def recover(self, address: int) -> None:
        """Undo :meth:`fail`."""
        self._failed.discard(address)

    def is_alive(self, address: int) -> bool:
        return address in self._handlers and address not in self._failed

    @property
    def failed_addresses(self) -> frozenset[int]:
        return frozenset(self._failed)

    def set_loss_rate(self, rate: float, rng: int | random.Random | None = 0) -> None:
        """Drop each non-local request with probability ``rate``.

        A dropped request is accounted (the bytes were sent) and raises
        :class:`NodeUnreachableError` at the caller, exactly like a
        fail-stop destination — but the *next* attempt may succeed,
        which is the failure mode retries exist for.  ``rate=0``
        disables the model.  The loss draw comes from its own seeded
        RNG so enabling loss does not perturb other random streams.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self._loss_rate = rate
        self._loss_rng = rng if isinstance(rng, random.Random) else random.Random(rng)

    @property
    def loss_rate(self) -> float:
        return self._loss_rate

    def inject_busy(self, address: int, count: int = 1) -> None:
        """Make the next ``count`` non-local requests to ``address`` be
        *shed*: accounted as one sent request (the bytes crossed the
        wire) and answered with
        :class:`~repro.net.errors.NodeBusyError`, never reaching the
        handler — the simulator twin of a TCP node's admission
        controller replying T_BUSY.  The busy refusal is not accounted
        as a reply, matching
        :class:`~repro.net.aio.AsyncioTransport`, so a shed request
        contributes exactly one message either way.
        """
        if address not in self._handlers:
            raise NetworkError(f"cannot mark unknown node {address} busy")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._busy_budget[address] += count

    # -- communication ------------------------------------------------

    def _admit(self, request: Message) -> Handler:
        """The checks every request passes before its handler runs.

        Returns the destination's handler.  A local call (``src ==
        dst``) is free: nothing is accounted, and only a missing or
        failed endpoint stops it.  A remote request is accounted once
        it leaves, also when it then fails: a dead destination or a
        loss draw raises :class:`NodeUnreachableError`, an injected busy
        token (:meth:`inject_busy`) raises
        :class:`~repro.net.errors.NodeBusyError` without dispatch.
        """
        dst = request.dst
        if request.src == dst:
            handler = self._handlers.get(dst)
            if handler is None or dst in self._failed:
                raise NodeUnreachableError(dst)
            return handler
        self._account(request)
        if not self.is_alive(dst):
            raise NodeUnreachableError(dst)  # the request is sent, then times out
        if self._loss_rate and self._loss_rng.random() < self._loss_rate:
            self.metrics.increment("network.dropped")
            raise NodeUnreachableError(dst)  # sent, then lost in flight
        if self._busy_budget.get(dst, 0) > 0:
            self._busy_budget[dst] -= 1
            self.metrics.increment("net.shed_requests")
            raise NodeBusyError(dst, queue_depth=1)  # sent, then refused
        return self._handlers[dst]

    def rpc(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: dict[str, Any] | None = None,
        *,
        timeout: float | None = None,
    ) -> Any:
        """Synchronous request/reply.  Returns the handler's return value.

        Accounts one request and one reply message and advances the
        clock by two one-way latencies: the request's before the
        handler runs, the reply's after.  A local call (``src == dst``)
        is free: no messages, no delay — as in the paper, where a node
        consulting its own index table costs nothing on the network.
        ``timeout`` is accepted for :class:`~repro.net.transport.Transport`
        compatibility and ignored: a simulated reply either arrives
        after the modelled latency or the failure surfaces immediately,
        so there is no open-ended wait to bound.
        """
        request = Message(src, dst, kind, payload or {})
        handler = self._admit(request)
        if src == dst:
            return handler(request)
        self.scheduler.advance(self.latency.delay(src, dst))
        result = handler(request)
        self._account(Message(dst, src, kind, {}, is_reply=True), payload=result)
        self.scheduler.advance(self.latency.delay(dst, src))
        return result

    def rpc_many(self, calls: list[RpcCall] | tuple[RpcCall, ...]) -> list[RpcOutcome]:
        """Concurrent request/reply batch in virtual time.

        Every call is dispatched at the *same* departure instant and the
        clock then advances by the slowest call's round trip — the
        virtual-time picture of requests in flight simultaneously —
        instead of the sum of round trips :meth:`rpc` would pay one by
        one.  Everything else is identical to the sequential path:

        * **Accounting** — one request and one reply per delivered call
          (request only when the destination is dead or the loss model
          drops it; nothing for a local ``src == dst`` call), in call
          order, into the same counters and trace windows.
        * **Determinism** — handlers run in call order, and the loss
          model draws in call order, so a batch is exactly as
          reproducible as the equivalent sequential loop.
        * **Failures** — a dead / lossy / busy destination yields an
          error *outcome* for that call alone (it would have raised from
          :meth:`rpc`) and pays no time, as in :meth:`rpc`, where the
          error surfaces right after the request is accounted.  A
          handler that raises is ferried into its call's outcome too, so
          one poisoned call cannot lose its batch mates' replies; its
          request leg counts toward the slowest call, as :meth:`rpc`
          has crossed that leg before the handler runs.
        """
        departure = self.scheduler.now
        outcomes: list[RpcOutcome] = []
        slowest = 0.0
        for call in calls:
            src, dst = call.src, call.dst
            request = Message(src, dst, call.kind, call.payload or {})
            try:
                handler = self._admit(request)
            except Exception as error:  # noqa: BLE001 - per-call outcome, never lost
                outcomes.append(RpcOutcome.failure(error))
                continue
            try:
                result = handler(request)
            except Exception as error:  # noqa: BLE001 - per-call outcome, never lost
                if src != dst:
                    slowest = max(slowest, self.latency.delay(src, dst))
                outcomes.append(RpcOutcome.failure(error))
                continue
            if src != dst:
                self._account(Message(dst, src, call.kind, {}, is_reply=True), payload=result)
                round_trip = self.latency.delay(src, dst) + self.latency.delay(dst, src)
                slowest = max(slowest, round_trip)
            outcomes.append(RpcOutcome.success(result))
        # All calls were in flight together: elapse the slowest round
        # trip once (handlers that advanced the clock themselves, e.g.
        # via nested RPCs, already pushed `now` past the departure time
        # and only the remainder, if any, is added).
        already_elapsed = self.scheduler.now - departure
        if slowest > already_elapsed:
            self.scheduler.advance(slowest - already_elapsed)
        return outcomes

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: dict[str, Any] | None = None,
        *,
        deliver: bool = True,
    ) -> None:
        """One-way message, delivered via the event scheduler.

        Silently dropped if the destination is dead *at delivery time*.
        ``deliver=False`` accounts the message without scheduling its
        delivery — for datagrams whose receipt is a no-op (e.g. the
        direct result notifications of the search protocol), so bulk
        experiments do not accumulate millions of pending events.
        """
        message = Message(src, dst, kind, payload or {})
        self._account(message, frame_type=FrameType.DATAGRAM)
        if not deliver:
            return
        if src == dst:
            self._handlers[dst](message)
            return

        def deliver_later() -> None:
            if self.is_alive(dst):
                self._handlers[dst](message)

        self.scheduler.schedule(self.latency.delay(src, dst), deliver_later)

    # -- tracing ------------------------------------------------------

    @contextmanager
    def trace(self) -> Iterator[MessageTrace]:
        """Capture every message sent inside the ``with`` block."""
        window = MessageTrace()
        self._traces.append(window)
        try:
            yield window
        finally:
            self._traces.remove(window)

    # -- internals ----------------------------------------------------

    def _account(
        self,
        message: Message,
        *,
        frame_type: FrameType | None = None,
        payload: Any = _UNMEASURED,
    ) -> None:
        self.metrics.increment("network.messages")
        self.kind_counts[message.kind] += 1
        if not message.is_reply:
            self.received_counts[message.dst] += 1
        for window in self._traces:
            window.messages.append(message)
        recorder = active_recorder()
        if recorder is not None:
            recorder.raw.append(message)
        if self.measure_bytes:
            # Codec-true sizing: build the frame the TCP transport would
            # put on the wire for this message — reply frames carry the
            # handler's actual result (`payload`), not the empty dict the
            # accounting Message holds — and charge its encoded length.
            if frame_type is None:
                frame_type = FrameType.REPLY if message.is_reply else FrameType.REQUEST
            body = message.payload if payload is _UNMEASURED else payload
            frame = Frame(frame_type, message.kind, message.src, message.dst, 0, body)
            self.metrics.increment(
                "net.bytes_sent", len(encode_frame(frame, codec=self._codec_id))
            )
