"""``AsyncioTransport``: the protocol stack over real TCP sockets.

One transport object hosts any number of local endpoints — one asyncio
TCP server per registered address — plus a pooled client side that
correlates requests with replies by request id.  A single event loop
runs on a dedicated daemon thread; protocol code stays synchronous
(:meth:`AsyncioTransport.rpc` blocks the calling thread).  Handlers
for *incoming* requests run in one of two places.  The in-memory leaf
kinds in :data:`LOOP_KINDS` (scans, pins, cache reads and fills,
directory and reference reads, routing steps) run inline on the loop
thread, which writes their reply at once.  Every other kind runs on a
thread pool, so it may issue nested RPCs through the loop or do store
I/O without stalling frame IO.  A remote call issued on the loop
thread raises :class:`RuntimeError` instead of deadlocking.

Design points, mirrored from the simulator so the protocol layers
cannot tell the media apart:

* **Accounting parity.**  Messages are accounted on the *sending* side
  only (one request + one reply per RPC, one message per datagram),
  into the same :class:`~repro.sim.metrics.MetricsRegistry` counters
  (``network.messages``), per-kind and per-destination counters, and
  any open :meth:`trace` window — so ``messages_sent()`` and the
  paper's cost metrics work identically over sockets.  Wire-level
  detail lands under ``net.*`` (bytes, frames, connections, protocol
  errors) and a ``net.rpc_latency`` histogram, per-destination request
  counts in :attr:`received_counts`.
* **Local calls are free.**  ``rpc(src, src, ...)`` dispatches the
  handler in the calling thread with no socket, no accounting — the
  paper's "consulting your own table costs nothing".
* **Failure semantics.**  Connection refusal/reset raises
  :class:`~repro.net.errors.PeerUnreachableError`; a missing reply
  raises :class:`~repro.net.errors.RpcTimeoutError` (a subclass).  The
  request is accounted before the failure surfaces, exactly like the
  simulator's "sent, then lost".  :meth:`fail` / :meth:`recover` give
  fail-stop injection for local endpoints: a failed endpoint reads and
  drops incoming frames (callers time out, as with a real hung host).
* **Admission control.**  With an
  :class:`~repro.net.admission.AdmissionPolicy`, each served address
  bounds its admitted-but-unfinished requests; excess requests are
  answered with a ``T_BUSY`` frame straight from the IO loop and
  surface as :class:`~repro.net.errors.NodeBusyError` on the caller.
  A busy reply is *not* accounted as a message — the shed request
  contributes exactly one message to ``network.messages``, the same
  as a lost one, preserving simulator parity.  Outgoing requests are
  stamped with the ambient :func:`~repro.net.qos.current_qos`
  priority so shedding can spare prioritized traffic.  Admitted
  requests are dispatched concurrently per connection (a task each),
  so one slow handler no longer serializes a connection's pipeline.
  With admission on, :data:`LOOP_KINDS` take the pool path too: an
  inline request would escape the bound on admitted requests.
* **Clock.**  :meth:`now` / :meth:`sleep` expose wall-clock time scaled
  by ``time_scale`` (seconds per transport time unit, default 1 ms), so
  a :class:`~repro.sim.resilience.RetryPolicy` written in simulator
  units backs off in milliseconds rather than virtual units — and its
  deadline bounds each attempt's socket wait.

Topology is static: local endpoints bind loopback (or a given host)
ports, and remote addresses are supplied in a ``peers`` book mapping
address -> (host, port).  That covers the two deployment shapes this
package ships — :class:`~repro.net.cluster.LocalCluster` (all endpoints
local, every RPC crosses a real socket) and
:class:`~repro.net.node.NodeDaemon` (serve one address, everything else
in ``peers``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Iterator

from repro.net.admission import AdmissionController, AdmissionPolicy
from repro.net.codec import codec_by_name
from repro.net.errors import (
    NodeBusyError,
    PeerUnreachableError,
    ProtocolError,
    RemoteHandlerError,
    RpcTimeoutError,
)
from repro.net.qos import current_qos
from repro.net.transport import Handler, Message, MessageTrace, RpcCall, RpcOutcome
from repro.obs.trace import active_recorder
from repro.net.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    Frame,
    FrameType,
    _HEADER,
    _declared_length,
    encode_frame,
    parse_frame_info,
)
from repro.sim.metrics import MetricsRegistry

__all__ = ["AsyncioTransport"]

DEFAULT_RPC_TIMEOUT_S = 10.0

#: Request kinds served inline on the event loop.  A loop kind's handler
#: touches only in-memory state: it never issues an RPC, never takes a
#: lock that a pool thread might hold across an RPC, and never does
#: store I/O — so it cannot block the loop, and skipping the handler
#: pool saves two cross-thread wake-ups and a task per request.  Every
#: other kind (the store writers, ``memb.*``, anything unlisted) runs on
#: the pool.  Add a kind only after reading its handler.
LOOP_KINDS = frozenset(
    {
        "hindex.scan",
        "hindex.pin",
        "hindex.cache_get",
        "hindex.cache_put",
        "hindex.cache_invalidate",
        "hindex.snapshot",
        "hindex.results",
        "pfx.node",
        "dolr.read_ref",
        "chord.route_step",
    }
)

_BLOCKS_LOOP = "a remote call from the transport's event loop thread would block the event loop"


async def _read_frame(reader: asyncio.StreamReader, max_frame_bytes: int) -> Frame | None:
    """Read one frame, in either wire version; None on clean EOF;
    ProtocolError on bad bytes."""
    header = await reader.read(_HEADER.size)
    if not header:
        return None
    while len(header) < _HEADER.size:
        more = await reader.read(_HEADER.size - len(header))
        if not more:
            raise ProtocolError("stream ended mid-header")
        header += more
    declared = _declared_length(header, max_frame_bytes)
    assert declared is not None
    try:
        body = await reader.readexactly(declared)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("stream ended mid-frame") from error
    return parse_frame_info(body)


class _Connection:
    """One pooled client connection to a peer endpoint."""

    __slots__ = ("dst", "reader", "writer", "pending", "reader_task", "closed")

    def __init__(self, dst: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.dst = dst
        self.reader = reader
        self.writer = writer
        # request id -> (waiter, timeout timer handle)
        self.pending: dict[int, tuple[Any, asyncio.TimerHandle | None]] = {}
        self.reader_task: asyncio.Task | None = None
        self.closed = False


class AsyncioTransport:
    """TCP implementation of :class:`~repro.net.transport.Transport`."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        serve_addresses: set[int] | frozenset[int] | None = None,
        ports: dict[int, int] | None = None,
        peers: dict[int, tuple[str, int]] | None = None,
        metrics: MetricsRegistry | None = None,
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT_S,
        time_scale: float = 0.001,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        handler_threads: int = 16,
        admission: AdmissionPolicy | None = None,
        codec: str = "binary",
    ):
        """``serve_addresses=None`` serves every address that registers
        (the :class:`~repro.net.cluster.LocalCluster` shape); a set
        restricts serving to those addresses, with the rest expected in
        ``peers`` (the daemon shape).  ``ports`` pins listen ports per
        address (default: OS-assigned).  ``rpc_timeout`` is the default
        reply wait in real seconds; ``time_scale`` converts transport
        time units (clock, retry backoff, deadlines) to seconds.
        ``admission=None`` (the default) disables admission control:
        every request is dispatched, as before this knob existed.
        ``codec`` is the codec this transport writes every frame in,
        from the first frame on each connection (``"binary"``, the
        default, or ``"json"``).  Incoming frames decode by their
        version byte, so transports pinned to different codecs
        interoperate (docs/protocol.md §18).
        """
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        if rpc_timeout <= 0:
            raise ValueError(f"rpc_timeout must be positive, got {rpc_timeout}")
        self.host = host
        self.codec = codec_by_name(codec).name
        self._codec_id = codec_by_name(codec).id
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.rpc_timeout = rpc_timeout
        self.time_scale = time_scale
        self.max_frame_bytes = max_frame_bytes
        self.kind_counts: Counter[str] = Counter()
        self.received_counts: Counter[int] = Counter()
        self.peers: dict[int, tuple[str, int]] = dict(peers or {})
        self.endpoints: dict[int, tuple[str, int]] = {}
        self.closed = False

        self._serve = None if serve_addresses is None else set(serve_addresses)
        self._ports = dict(ports or {})
        self._handlers: dict[int, Handler] = {}
        self._failed: set[int] = set()
        self._drop_requests: Counter[int] = Counter()
        self._servers: dict[int, asyncio.AbstractServer] = {}
        self._server_writers: set[asyncio.StreamWriter] = set()
        self.admission = (
            None if admission is None else AdmissionController(admission, self.metrics)
        )
        self._request_tasks: set[asyncio.Task] = set()
        self._gossip_handler = None
        self._connections: dict[int, _Connection] = {}
        self._connect_locks: dict[int, asyncio.Lock] = {}
        self._traces: list[MessageTrace] = []
        self._trace_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._epoch = time.monotonic()
        self._executor = ThreadPoolExecutor(
            max_workers=handler_threads, thread_name_prefix="repro-net-handler"
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-net-loop", daemon=True
        )
        self._thread.start()
        self._loop_ident = self._thread.ident

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "AsyncioTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut everything down: servers, connections, loop, threads.

        Idempotent.  After close the loop is closed, the loop thread has
        exited, and :meth:`open_connection_count` is zero — the
        leak-freedom the integration tests assert.
        """
        if self.closed:
            return
        self.closed = True
        asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()
        self._executor.shutdown(wait=True)

    async def _shutdown(self) -> None:
        for task in list(self._request_tasks):
            task.cancel()
        for server in self._servers.values():
            server.close()
        for connection in list(self._connections.values()):
            await self._close_connection(connection)
        for writer in list(self._server_writers):
            writer.close()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()
        self._server_writers.clear()

    async def _close_connection(self, connection: _Connection) -> None:
        if connection.reader_task is not None:
            connection.reader_task.cancel()
        self._drop_connection(connection, ConnectionResetError("transport closed"))

    def _drop_connection(self, connection: _Connection, error: BaseException) -> None:
        """Retire a pooled connection: its pending calls fail with ``error``."""
        connection.closed = True
        self._connections.pop(connection.dst, None)
        for waiter, timer in connection.pending.values():
            if timer is not None:
                timer.cancel()
            if not waiter.done():
                waiter.set_exception(error)
        connection.pending.clear()
        connection.writer.close()

    def open_connection_count(self) -> int:
        """Open client connections plus accepted server connections."""
        return len(self._connections) + len(self._server_writers)

    def _call(self, coroutine, timeout: float | None = None):
        """Run a coroutine on the loop thread, blocking the caller."""
        if self.closed:
            coroutine.close()
            raise RuntimeError("transport is closed")
        if threading.get_ident() == self._loop_ident:
            coroutine.close()
            raise RuntimeError(_BLOCKS_LOOP)
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout)

    def _refuse_on_loop(self) -> None:
        """Fail fast where a blocking call would park the event loop.

        A handler served inline (a :data:`LOOP_KINDS` request) runs on
        the loop thread; a remote call from there would wait for a
        reply that only that same thread can read.
        """
        if threading.get_ident() == self._loop_ident:
            raise RuntimeError(_BLOCKS_LOOP)

    # -- membership ---------------------------------------------------

    def register(self, address: int, handler: Handler) -> None:
        """Attach ``handler``; if this transport serves ``address``,
        bind its TCP server (synchronously, so the endpoint is dialable
        when this returns)."""
        self._handlers[address] = handler
        self._failed.discard(address)
        if (self._serve is None or address in self._serve) and address not in self._servers:
            self._call(self._start_server(address), timeout=30)

    async def _start_server(self, address: int) -> None:
        server = await asyncio.start_server(
            lambda reader, writer: self._serve_connection(address, reader, writer),
            self.host,
            self._ports.get(address, 0),
        )
        self._servers[address] = server
        sockname = server.sockets[0].getsockname()
        self.endpoints[address] = (sockname[0], sockname[1])
        self.metrics.increment("net.servers_started")

    def unregister(self, address: int) -> None:
        """Detach the endpoint: its server stops accepting, its address
        book entry disappears, and any pooled connection to it is
        severed (in-flight requests fail).  Established server-side
        connections die on their next frame (see
        :meth:`_serve_connection`), so an unregistered address behaves
        like a crashed process, not a half-alive one."""
        self._handlers.pop(address, None)
        self._failed.discard(address)
        server = self._servers.pop(address, None)
        self.endpoints.pop(address, None)
        # Sever the pooled loopback connection only when the server
        # lived *here* (the serve-all cluster crashing one of its own):
        # on a daemon expelling a remote peer the pooled connection may
        # still carry in-flight replies from that peer's last words.
        connection = self._connections.get(address) if server is not None else None
        if server is not None:
            self._call(self._teardown_endpoint(server, connection), timeout=30)

    async def _teardown_endpoint(
        self, server: asyncio.AbstractServer | None, connection: "_Connection | None"
    ) -> None:
        if connection is not None:
            await self._close_connection(connection)
        if server is not None:
            server.close()
            await server.wait_closed()

    def is_registered(self, address: int) -> bool:
        return address in self._handlers

    def _serves(self, address: int) -> bool:
        """Whether this transport is the authority for ``address``.

        A daemon-shaped transport registers handlers for every node in
        the deployment (the routing layer needs the objects), but only
        the addresses in ``serve_addresses`` are *served* here — for the
        rest the authoritative state lives in some other process, so
        even a self-addressed RPC must cross the wire.
        """
        if address not in self._handlers:
            return False
        return self._serve is None or address in self._serve

    def addresses(self) -> frozenset[int]:
        """Local endpoints plus configured peers."""
        return frozenset(self._handlers) | frozenset(self.peers)

    def is_alive(self, address: int) -> bool:
        """Advisory: local endpoints are alive unless failed; configured
        peers are presumed alive (a real network cannot know better);
        unknown addresses are dead."""
        if address in self._failed:
            return False
        return address in self._handlers or address in self.peers

    # -- failure injection (local endpoints only) ---------------------

    def fail(self, address: int) -> None:
        """Fail-stop a local endpoint: incoming frames are read and
        dropped, so callers time out — the socket-world equivalent of
        the simulator's :meth:`~repro.sim.network.SimulatedNetwork.fail`."""
        if address not in self._handlers:
            raise PeerUnreachableError(address, "not a local endpoint; cannot fail it")
        self._failed.add(address)

    def recover(self, address: int) -> None:
        self._failed.discard(address)

    def drop_next_requests(self, address: int, count: int = 1) -> None:
        """Test hook: the next ``count`` requests arriving at local
        endpoint ``address`` have their TCP connection closed instead of
        being dispatched — injecting the dropped-connection failure the
        resilience layer must retry through."""
        self._drop_requests[address] += count

    # -- clock --------------------------------------------------------

    def now(self) -> float:
        """Monotonic wall-clock time in transport units."""
        return (time.monotonic() - self._epoch) / self.time_scale

    def sleep(self, delay: float) -> None:
        """Really sleep for ``delay`` transport units."""
        if delay > 0:
            time.sleep(delay * self.time_scale)

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
        """Request over the wire, block for the correlated reply.

        ``timeout`` is in transport time units (``None``: the
        transport's default ``rpc_timeout`` seconds).
        """
        payload = payload or {}
        if src == dst and self._serves(dst):
            return self._call_local(src, dst, kind, payload)
        request = self._request(src, dst, kind, payload, timeout)
        # One loop callback per RPC (encode + write happen in the
        # callback, no coroutine or wait_for task); the caller parks on
        # a concurrent future and the timeout is a loop timer.
        started = time.monotonic()
        self._loop.call_soon_threadsafe(self._begin_rpc, *request)
        try:
            return self._reply(src, kind, request)
        finally:
            self.metrics.record("net.rpc_latency", (time.monotonic() - started) / self.time_scale)

    def rpc_many(self, calls: list[RpcCall] | tuple[RpcCall, ...]) -> list[RpcOutcome]:
        """Issue every call's frame concurrently and collect the replies.

        Each remote call is prepared exactly as :meth:`rpc` prepares it
        and started through the same loop callback — one
        ``call_soon_threadsafe`` for the whole batch — so the frames go
        out back to back and the batch costs one slowest-reply wait
        instead of ``len(calls)`` sequential round trips: the
        concurrency the level-parallel tree walk (Section 3.5) needs to
        realize its ``r - |One|`` round bound in wall-clock time over
        sockets.

        Accounting parity with :meth:`rpc`, deterministically ordered:
        every request is accounted at issue time (in call order, before
        any failure can surface) and the replies are then read in call
        order, whatever order they actually landed in — so trace windows
        see the same message multiset as a sequential loop.  Each
        call's outcome holds what :meth:`rpc` returns or raises for it;
        batch mates are unaffected.
        """
        outcomes: list[RpcOutcome | None] = [None] * len(calls)
        remote = []
        for position, call in enumerate(calls):
            payload = call.payload or {}
            if call.src == call.dst and self._serves(call.dst):
                try:
                    outcomes[position] = RpcOutcome.success(
                        self._call_local(call.src, call.dst, call.kind, payload)
                    )
                except Exception as error:  # noqa: BLE001 - per-call outcome
                    outcomes[position] = RpcOutcome.failure(error)
                continue
            request = self._request(call.src, call.dst, call.kind, payload, call.timeout)
            remote.append((position, call, request))
        if remote:
            self.metrics.increment("net.batch_rpcs")
            self.metrics.increment("net.batch_calls", len(remote))
            started = time.monotonic()
            self._loop.call_soon_threadsafe(
                self._begin_rpcs, [request for _, _, request in remote]
            )
            try:
                for position, call, request in remote:
                    try:
                        outcomes[position] = RpcOutcome.success(
                            self._reply(call.src, call.kind, request)
                        )
                    except Exception as error:  # noqa: BLE001 - per-call outcome
                        outcomes[position] = RpcOutcome.failure(error)
            finally:
                self.metrics.record(
                    "net.rpc_latency", (time.monotonic() - started) / self.time_scale
                )
        return outcomes  # type: ignore[return-value]

    def _call_local(self, src: int, dst: int, kind: str, payload: dict[str, Any]) -> Any:
        """A call to an address served here: free, exactly like the simulator."""
        if dst in self._failed:
            raise PeerUnreachableError(dst, "failed")
        return self._handlers[dst](Message(src, dst, kind, payload))

    def _request(
        self, src: int, dst: int, kind: str, payload: dict[str, Any], timeout: float | None
    ) -> tuple[int, Frame, float, concurrent.futures.Future]:
        """Prepare one remote call for :meth:`_begin_rpc`.

        Returns ``(dst, frame, reply wait in seconds, reply future)``.
        The request is accounted here, before any failure can surface —
        parity with the simulator's "the request is sent, then times
        out".
        """
        self._refuse_on_loop()
        timeout_s = self.rpc_timeout if timeout is None else max(timeout * self.time_scale, 0.001)
        frame = Frame(
            FrameType.REQUEST,
            kind,
            src,
            dst,
            next(self._request_ids),
            payload,
            current_qos().priority,
        )
        self._account(Message(src, dst, kind, payload))
        if self.closed:
            raise RuntimeError("transport is closed")
        return dst, frame, timeout_s, concurrent.futures.Future()

    def _reply(self, src: int, kind: str, request: tuple) -> Any:
        """Wait for the reply to one started :meth:`_request`; return its
        value or raise.

        The backstop on ``result()`` only matters if the loop dies
        mid-call: the loop timer fails the waiter after ``timeout_s``.
        """
        dst, _, timeout_s, waiter = request
        try:
            reply = waiter.result(timeout_s + 30.0)
        except concurrent.futures.TimeoutError:
            raise RpcTimeoutError(dst, timeout_s) from None
        except (ConnectionError, OSError) as error:
            raise PeerUnreachableError(dst, f"connection lost ({error})") from error
        if reply.type is FrameType.BUSY:
            # A shed request cost one message (the request); the busy
            # frame is a refusal, not a reply, and is not accounted —
            # parity with the simulator, where a shed request is a
            # request that went nowhere.
            self.metrics.increment("net.busy_received")
            detail = reply.payload if isinstance(reply.payload, dict) else {}
            queue_depth = detail.get("queue_depth", 0)
            retry_after = detail.get("retry_after", 0.0)
            raise NodeBusyError(
                dst,
                queue_depth if isinstance(queue_depth, int) else 0,
                float(retry_after) if isinstance(retry_after, (int, float)) else 0.0,
            )
        self._account(Message(dst, src, kind, {}, is_reply=True))
        if reply.type is FrameType.ERROR:
            detail = reply.payload if isinstance(reply.payload, dict) else {}
            raise RemoteHandlerError(
                dst, kind, detail.get("error", "Exception"), detail.get("message", "")
            )
        return reply.payload

    # -- RPC fast path (loop-side plumbing) ---------------------------

    def _begin_rpc(self, dst: int, frame: Frame, timeout_s: float, waiter) -> None:
        """Loop callback: write the request on the pooled connection.

        The common case (connection already open) runs entirely inside
        this callback; only a cold connection pays for a task.
        """
        connection = self._connections.get(dst)
        if connection is not None and not connection.closed:
            self._write_request(connection, frame, timeout_s, waiter)
            return
        task = self._loop.create_task(self._begin_rpc_connect(dst, frame, timeout_s, waiter))
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)

    def _begin_rpcs(self, requests: list) -> None:
        """Loop callback: start every call of one batch."""
        for request in requests:
            self._begin_rpc(*request)

    async def _begin_rpc_connect(self, dst: int, frame: Frame, timeout_s: float, waiter) -> None:
        try:
            connection = await self._connection_to(dst)
        except asyncio.CancelledError:
            if not waiter.done():
                waiter.set_exception(ConnectionResetError("transport closed"))
            raise
        except BaseException as error:  # noqa: BLE001 - ferried to the caller
            if not waiter.done():
                waiter.set_exception(error)
            return
        self._write_request(connection, frame, timeout_s, waiter)

    def _write_request(self, connection: _Connection, frame: Frame, timeout_s: float, waiter) -> None:
        """Encode in this transport's codec, register the waiter, write.

        No ``drain()``: in-flight RPCs are bounded by blocked caller
        threads, so the write buffer cannot grow without bound, and a
        peer that stops reading surfaces as reply timeouts.
        """
        try:
            data = encode_frame(frame, max_frame_bytes=self.max_frame_bytes, codec=self._codec_id)
        except Exception as error:  # noqa: BLE001 - ferried to the caller
            if not waiter.done():
                waiter.set_exception(error)
            return
        timer = self._loop.call_later(
            timeout_s, self._expire_request, connection, frame.request_id, frame.dst, timeout_s
        )
        connection.pending[frame.request_id] = (waiter, timer)
        try:
            connection.writer.write(data)
        except Exception as error:  # noqa: BLE001 - ferried to the caller
            timer.cancel()
            connection.pending.pop(frame.request_id, None)
            if not waiter.done():
                waiter.set_exception(
                    PeerUnreachableError(frame.dst, f"connection lost ({error})")
                )
            return
        self.metrics.increment("net.frames_sent")
        self.metrics.increment("net.bytes_sent", len(data))

    def _expire_request(
        self, connection: _Connection, request_id: int, dst: int, timeout_s: float
    ) -> None:
        entry = connection.pending.pop(request_id, None)
        if entry is None:
            return
        waiter, _ = entry
        if not waiter.done():
            waiter.set_exception(RpcTimeoutError(dst, timeout_s))

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: dict[str, Any] | None = None,
        *,
        deliver: bool = True,
    ) -> None:
        """One-way datagram: accounted always, transmitted best-effort,
        silently lost when the destination is unreachable."""
        payload = payload or {}
        message = Message(src, dst, kind, payload)
        self._account(message)
        if not deliver:
            return
        if src == dst and self._serves(dst):
            if dst not in self._failed:
                self._handlers[dst](message)
            return
        frame = Frame(FrameType.DATAGRAM, kind, src, dst, next(self._request_ids), payload)
        try:
            self._call(self._send_async(dst, frame))
        except (PeerUnreachableError, ProtocolError):
            self.metrics.increment("net.datagrams_lost")

    # -- membership gossip --------------------------------------------

    def set_gossip_handler(self, handler) -> None:
        """Install the transport-level sink for incoming GOSSIP frames.

        ``handler(src, payload)`` runs on the handler thread pool for
        every gossip frame any served endpoint receives.  One handler
        per transport (the membership agent); None detaches it.
        """
        self._gossip_handler = handler

    def gossip(self, src: int, dst: int, payload: dict[str, Any]) -> None:
        """One-way membership exchange to ``dst``.

        Control-plane traffic: delivered over the same sockets but
        *not* accounted in ``network.messages`` (experiment parity —
        the paper's message counts cover protocol traffic only); it is
        counted under ``memb.gossip_sent`` instead.  Unlike
        :meth:`send`, an unreachable destination *raises*
        :class:`~repro.net.errors.PeerUnreachableError` — a failed
        gossip push doubles as a missed heartbeat, so the failure
        detector needs to see it.
        """
        if self._serves(dst):
            if dst in self._failed:
                raise PeerUnreachableError(dst, "failed")
            handler = self._gossip_handler
            if handler is not None:
                handler(src, payload)
            self.metrics.increment("memb.gossip_sent")
            return
        frame = Frame(FrameType.GOSSIP, "memb.gossip", src, dst, next(self._request_ids), payload)
        self._call(self._send_async(dst, frame))
        self.metrics.increment("memb.gossip_sent")

    async def _send_async(self, dst: int, frame: Frame) -> None:
        try:
            connection = await self._connection_to(dst)
            data = encode_frame(frame, max_frame_bytes=self.max_frame_bytes, codec=self._codec_id)
            connection.writer.write(data)
            self.metrics.increment("net.frames_sent")
            self.metrics.increment("net.bytes_sent", len(data))
            await connection.writer.drain()
        except (ConnectionError, OSError) as error:
            raise PeerUnreachableError(dst, f"connection lost ({error})") from error

    # -- client pool --------------------------------------------------

    def _endpoint_of(self, dst: int) -> tuple[str, int]:
        endpoint = self.endpoints.get(dst) or self.peers.get(dst)
        if endpoint is None:
            raise PeerUnreachableError(dst, "unknown: no endpoint or peer entry")
        return endpoint

    async def _connection_to(self, dst: int) -> _Connection:
        connection = self._connections.get(dst)
        if connection is not None and not connection.closed:
            return connection
        lock = self._connect_locks.setdefault(dst, asyncio.Lock())
        async with lock:
            connection = self._connections.get(dst)
            if connection is not None and not connection.closed:
                return connection
            host, port = self._endpoint_of(dst)
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except (ConnectionError, OSError) as error:
                raise PeerUnreachableError(dst, f"connect failed ({error})") from error
            connection = _Connection(dst, reader, writer)
            connection.reader_task = self._loop.create_task(self._read_replies(connection))
            self._connections[dst] = connection
            self.metrics.increment("net.connections_opened")
            return connection

    async def _read_replies(self, connection: _Connection) -> None:
        """Demultiplex reply frames to their pending futures."""
        error: BaseException = ConnectionResetError("connection closed by peer")
        try:
            while True:
                frame = await _read_frame(connection.reader, self.max_frame_bytes)
                if frame is None:
                    break
                self.metrics.increment("net.frames_received")
                entry = connection.pending.pop(frame.request_id, None)
                if entry is not None:
                    waiter, timer = entry
                    if timer is not None:
                        timer.cancel()
                    if not waiter.done():
                        waiter.set_result(frame)
        except ProtocolError as protocol_error:
            self.metrics.increment("net.protocol_errors")
            error = protocol_error
        except (ConnectionError, OSError) as os_error:
            error = os_error
        except asyncio.CancelledError:
            error = ConnectionResetError("transport closed")
        finally:
            self._drop_connection(connection, error)

    # -- server side --------------------------------------------------

    async def _serve_connection(
        self, address: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._server_writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    frame = await _read_frame(reader, self.max_frame_bytes)
                except ProtocolError:
                    # Malformed bytes poison the connection: count and
                    # hang up, never hang.
                    self.metrics.increment("net.protocol_errors")
                    break
                if frame is None:
                    break
                self.metrics.increment("net.frames_received")
                if address not in self._handlers:
                    break  # the endpoint was unregistered mid-connection: hang up
                if address in self._failed:
                    continue  # fail-stop: read and drop, caller times out
                if self._drop_requests.get(address, 0) > 0:
                    self._drop_requests[address] -= 1
                    break  # injected dropped connection
                if frame.type is FrameType.GOSSIP:
                    gossip_handler = self._gossip_handler
                    self.metrics.increment("memb.gossip_received")
                    if gossip_handler is not None:
                        try:
                            await self._loop.run_in_executor(
                                self._executor, gossip_handler, frame.src, frame.payload
                            )
                        except Exception:  # noqa: BLE001 - gossip has no reply path
                            self.metrics.increment("memb.gossip_handler_errors")
                    continue
                if frame.type is FrameType.DATAGRAM:
                    handler = self._handlers.get(address)
                    if handler is not None:
                        message = Message(frame.src, address, frame.kind, frame.payload)
                        try:
                            await self._loop.run_in_executor(self._executor, handler, message)
                        except Exception:  # noqa: BLE001 - datagrams have no reply path
                            self.metrics.increment("net.datagram_handler_errors")
                    continue
                if self.admission is None and frame.kind in LOOP_KINDS:
                    # An in-memory leaf handler: answered inline, with no
                    # task and no handler-pool hop.  Admission bounds
                    # handler threads, so with it on every kind is pooled.
                    reply = self._run_handler(address, frame)
                    await self._write_frame(writer, write_lock, reply)
                    continue
                if self.admission is not None and not self.admission.try_admit(
                    address, frame.priority
                ):
                    # Fast reject from the IO loop: no handler thread is
                    # touched, the caller learns within one round trip.
                    busy = Frame(
                        FrameType.BUSY,
                        frame.kind,
                        address,
                        frame.src,
                        frame.request_id,
                        {
                            "queue_depth": self.admission.depth(address),
                            "retry_after": self.admission.policy.retry_after,
                        },
                    )
                    await self._write_frame(writer, write_lock, busy)
                    continue
                # Dispatch concurrently: one task per admitted request,
                # so a slow handler does not serialize the connection.
                task = self._loop.create_task(
                    self._handle_request(address, frame, writer, write_lock)
                )
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        except (ConnectionError, OSError):
            pass
        finally:
            self._server_writers.discard(writer)
            writer.close()

    async def _write_frame(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, frame: Frame
    ) -> None:
        """Serialize one reply onto a shared server connection.

        Concurrent request tasks share one writer; the lock keeps each
        frame's write+drain atomic so flow-control backpressure never
        interleaves two frames' bytes.
        """
        data = encode_frame(frame, max_frame_bytes=self.max_frame_bytes, codec=self._codec_id)
        async with write_lock:
            writer.write(data)
            self.metrics.increment("net.frames_sent")
            self.metrics.increment("net.bytes_sent", len(data))
            await writer.drain()

    async def _handle_request(
        self,
        address: int,
        frame: Frame,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Dispatch one admitted request and write its reply."""
        try:
            # Pooled handlers may issue nested RPCs (which block their
            # thread on this loop) or do store I/O without stalling
            # frame IO.
            reply = await self._loop.run_in_executor(
                self._executor, self._run_handler, address, frame
            )
            try:
                await self._write_frame(writer, write_lock, reply)
            except (ConnectionError, OSError):
                pass  # caller hung up; nothing to tell it
        finally:
            if self.admission is not None:
                self.admission.release(address)

    def _run_handler(self, address: int, frame: Frame) -> Frame:
        """Call the endpoint's handler on one request; its REPLY or ERROR frame."""
        handler = self._handlers.get(address)
        if handler is None:
            return Frame(
                FrameType.ERROR,
                frame.kind,
                address,
                frame.src,
                frame.request_id,
                {"error": "LookupError", "message": f"no handler at address {address}"},
            )
        message = Message(frame.src, address, frame.kind, frame.payload)
        try:
            result = handler(message)
        except Exception as error:  # noqa: BLE001 - ferried to the caller
            return Frame(
                FrameType.ERROR,
                frame.kind,
                address,
                frame.src,
                frame.request_id,
                {"error": type(error).__name__, "message": str(error)},
            )
        return Frame(FrameType.REPLY, frame.kind, address, frame.src, frame.request_id, result)

    # -- tracing ------------------------------------------------------

    @contextmanager
    def trace(self) -> Iterator[MessageTrace]:
        """Capture every message sent inside the ``with`` block."""
        window = MessageTrace()
        with self._trace_lock:
            self._traces.append(window)
        try:
            yield window
        finally:
            with self._trace_lock:
                self._traces.remove(window)

    def _account(self, message: Message) -> None:
        self.metrics.increment("network.messages")
        with self._trace_lock:
            self.kind_counts[message.kind] += 1
            if not message.is_reply:
                self.received_counts[message.dst] += 1
            for window in self._traces:
                window.messages.append(message)
        recorder = active_recorder()
        if recorder is not None:
            recorder.raw.append(message)
