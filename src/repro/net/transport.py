"""The transport contract every protocol layer is written against.

Historically the DHT / DOLR / index / search layers called
:class:`~repro.sim.network.SimulatedNetwork` directly.  This module
extracts the surface they actually use into a :class:`Transport`
protocol, so the same protocol code runs unchanged over the simulator
*or* over real sockets (:class:`~repro.net.aio.AsyncioTransport`).

The contract, in terms of the paper's model:

* **Endpoints** — :meth:`Transport.register` attaches a handler at an
  integer address (the DHT node identifier); :meth:`Transport.unregister`
  detaches it (the node leaves).
* **Request/reply** — :meth:`Transport.rpc` delivers one request and
  returns the handler's return value.  A local call (``src == dst``)
  is free, as in the paper.  Failure semantics: the transport raises a
  :class:`~repro.net.errors.PeerUnreachableError` (or subclass) when
  the destination cannot be reached or does not answer in time; those
  are the errors :class:`~repro.sim.resilience.ResilientChannel`
  retries.
* **Batch request/reply** — :meth:`Transport.rpc_many` issues a list of
  :class:`RpcCall` requests *concurrently* and returns one
  :class:`RpcOutcome` per call, in call order, each carrying either the
  handler's return value or the exception the call would have raised.
  No exception of one call disturbs another: a batch always yields
  exactly ``len(calls)`` outcomes.  Accounting is identical to issuing
  the calls one by one (one request + one reply message per successful
  call, request-only for unreachable destinations); only the elapsed
  time differs — virtual time advances by the *slowest* call's round
  trip on the simulator, and real transports overlap the socket waits.
* **Datagrams** — :meth:`Transport.send` is one-way, best-effort, and
  never raises for a dead destination (the message is silently lost,
  like a UDP datagram).
* **Accounting** — every message is counted in :attr:`Transport.metrics`
  (counter ``network.messages``) and in any open :meth:`Transport.trace`
  window, so the paper's cost metrics (messages per query, nodes
  contacted) work identically over both media.
* **Clock** — :meth:`Transport.now` / :meth:`Transport.sleep` expose the
  medium's notion of time: the virtual scheduler clock for the
  simulator, the monotonic wall clock for real sockets.  Retry backoff
  and circuit-breaker reset windows are expressed against this
  interface, which is what makes the resilience layer
  transport-independent.

Liveness (:meth:`Transport.is_alive`) is necessarily *advisory*: the
simulator has global knowledge, while a real transport can only vouch
for local endpoints and assumes configured remote peers are up until a
call fails.  Protocol code treats it as a hint, never a guarantee.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:
    # Import lazily: repro.sim.network imports this module, and pulling
    # in the repro.sim package eagerly here would be circular.
    from repro.sim.metrics import MetricsRegistry

__all__ = [
    "Handler",
    "Message",
    "MessageTrace",
    "RpcCall",
    "RpcOutcome",
    "Transport",
    "sequential_rpc_many",
]


@dataclass(frozen=True)
class Message:
    """One network message."""

    src: int
    dst: int
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    is_reply: bool = False


Handler = Callable[[Message], Any]


@dataclass(frozen=True)
class RpcCall:
    """One request of a :meth:`Transport.rpc_many` batch.

    ``timeout`` bounds this call's reply wait in transport time units
    (``None``: the transport's default), mirroring the ``timeout``
    keyword of :meth:`Transport.rpc`.
    """

    src: int
    dst: int
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    timeout: float | None = None


@dataclass(frozen=True)
class RpcOutcome:
    """Result of one call in a batch: a value or the error it raised.

    Exactly one of ``value`` / ``error`` is meaningful; :attr:`ok`
    discriminates.  :meth:`unwrap` recovers the sequential-``rpc``
    behaviour (return the value or raise the error).
    """

    value: Any = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        if self.error is not None:
            raise self.error
        return self.value

    @classmethod
    def success(cls, value: Any) -> "RpcOutcome":
        return cls(value=value)

    @classmethod
    def failure(cls, error: BaseException) -> "RpcOutcome":
        return cls(error=error)


def sequential_rpc_many(
    transport: "Transport", calls: "list[RpcCall] | tuple[RpcCall, ...]"
) -> list[RpcOutcome]:
    """Reference ``rpc_many`` semantics: the calls issued one at a time.

    This is the behavioural contract batch implementations must match
    call-for-call (same results, same errors, same message accounting);
    the transport tests compare both media against it.
    """
    outcomes: list[RpcOutcome] = []
    for call in calls:
        try:
            outcomes.append(
                RpcOutcome.success(
                    transport.rpc(call.src, call.dst, call.kind, call.payload, timeout=call.timeout)
                )
            )
        except Exception as error:  # noqa: BLE001 - ferried to the caller per call
            outcomes.append(RpcOutcome.failure(error))
    return outcomes


@dataclass(eq=False)
class MessageTrace:
    """Messages captured by a :meth:`Transport.trace` window.

    Compared by identity: transports close a window with
    ``list.remove``, which must drop this window and not another that
    happens to hold equal messages (two nested, still-empty windows)."""

    messages: list[Message] = field(default_factory=list)

    @property
    def message_count(self) -> int:
        return len(self.messages)

    @property
    def request_count(self) -> int:
        return sum(1 for m in self.messages if not m.is_reply)

    def nodes_contacted(self, *, exclude: frozenset[int] | set[int] = frozenset()) -> set[int]:
        """Distinct destinations of non-reply messages, minus ``exclude``.

        This is the paper's "number of nodes need to be contacted".
        """
        return {m.dst for m in self.messages if not m.is_reply} - set(exclude)

    def count_kind(self, kind: str) -> int:
        return sum(1 for m in self.messages if m.kind == kind)


@runtime_checkable
class Transport(Protocol):
    """What a medium must provide for the protocol stack to run on it.

    Implementations: :class:`~repro.sim.network.SimulatedNetwork`
    (deterministic, virtual time) and
    :class:`~repro.net.aio.AsyncioTransport` (TCP, wall-clock time).
    Failure injection (``fail`` / ``recover``) is an optional extension
    both implementations offer but the core contract does not require.
    """

    metrics: MetricsRegistry

    # -- membership ---------------------------------------------------

    def register(self, address: int, handler: Handler) -> None:
        """Attach ``handler`` at ``address``.  Re-registration replaces."""
        ...

    def unregister(self, address: int) -> None:
        """Detach the endpoint at ``address`` (node leaves the network)."""
        ...

    def is_alive(self, address: int) -> bool:
        """Advisory liveness: whether a call to ``address`` is expected
        to succeed.  Never a guarantee on a real network."""
        ...

    def addresses(self) -> frozenset[int]:
        """All known addresses (local endpoints plus configured peers)."""
        ...

    # -- communication ------------------------------------------------

    def rpc(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: dict[str, Any] | None = None,
        *,
        timeout: float | None = None,
    ) -> Any:
        """Synchronous request/reply; returns the handler's return value.

        ``timeout`` bounds the wait for the reply, in the transport's
        time units (see :meth:`now`); ``None`` means the transport's
        default.  Raises :class:`~repro.net.errors.PeerUnreachableError`
        (or a subclass, e.g. :class:`~repro.net.errors.RpcTimeoutError`)
        when the destination cannot be reached or does not reply.
        """
        ...

    def rpc_many(self, calls: list[RpcCall] | tuple[RpcCall, ...]) -> list[RpcOutcome]:
        """Issue every call concurrently; return one outcome per call,
        in call order.

        Per-call results and errors match :meth:`rpc` exactly (same
        return values, same exception types, same per-call message
        accounting); a failed call never disturbs its batch mates.  The
        win is purely elapsed time: the batch completes in one
        slowest-call round trip instead of the sum of round trips.
        """
        ...

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: dict[str, Any] | None = None,
        *,
        deliver: bool = True,
    ) -> None:
        """One-way, best-effort datagram; silently lost if the
        destination is dead.  ``deliver=False`` accounts the message
        without transmitting it (receipt is a no-op by protocol)."""
        ...

    # -- tracing ------------------------------------------------------

    def trace(self) -> AbstractContextManager[MessageTrace]:
        """Capture every message sent inside the ``with`` block."""
        ...

    # -- clock --------------------------------------------------------

    def now(self) -> float:
        """The medium's current time, in its own units (virtual units
        for the simulator, scaled wall-clock for real transports)."""
        ...

    def sleep(self, delay: float) -> None:
        """Let ``delay`` time units pass — advancing the virtual clock,
        or actually sleeping.  Used for retry backoff."""
        ...
