"""Tests for the TCP transport (repro.net.aio) and its resilience hooks."""

import threading
import time

import pytest

from repro.net.admission import AdmissionPolicy
from repro.net.aio import AsyncioTransport
from repro.net.errors import (
    PeerUnreachableError,
    RemoteHandlerError,
    RpcTimeoutError,
    TransportError,
)
from repro.net.transport import RpcCall, Transport
from repro.sim.network import SimulatedNetwork
from repro.sim.resilience import ResilientChannel, RetryPolicy


@pytest.fixture
def transport():
    with AsyncioTransport(rpc_timeout=5.0) as transport:
        yield transport


def echo_handler(message):
    return {"echo": message.payload, "kind": message.kind}


class TestTransportContract:
    def test_both_media_satisfy_the_protocol(self, transport):
        assert isinstance(transport, Transport)
        assert isinstance(SimulatedNetwork(), Transport)

    def test_rpc_roundtrip_over_sockets(self, transport):
        transport.register(1, echo_handler)
        transport.register(2, echo_handler)
        result = transport.rpc(1, 2, "test.echo", {"keywords": frozenset({"dht", "p2p"})})
        assert result == {"echo": {"keywords": frozenset({"dht", "p2p"})}, "kind": "test.echo"}

    def test_each_endpoint_gets_its_own_port(self, transport):
        transport.register(1, echo_handler)
        transport.register(2, echo_handler)
        ports = {port for _, port in transport.endpoints.values()}
        assert len(ports) == 2

    def test_local_rpc_is_free(self, transport):
        transport.register(1, echo_handler)
        transport.rpc(1, 1, "test.echo", {"x": 1})
        assert transport.metrics.counter("network.messages") == 0

    def test_self_addressed_rpc_to_unserved_address_crosses_the_wire(self):
        # A daemon-shaped transport registers handlers for every node in
        # the deployment, but addresses it does not serve live in some
        # other process: even src == dst must dial the peer, never touch
        # the local shadow object.
        with AsyncioTransport(rpc_timeout=5.0, serve_addresses={1}) as authority:
            authority.register(1, echo_handler)
            authority.register(2, lambda m: {"who": "authority"})
            host, port = authority.endpoints[1]
            with AsyncioTransport(
                rpc_timeout=5.0, serve_addresses=set(), peers={1: (host, port)}
            ) as daemon:
                daemon.register(1, lambda m: {"who": "shadow"})
                result = daemon.rpc(1, 1, "test.echo", {"x": 1})
        assert result == {"echo": {"x": 1}, "kind": "test.echo"}

    def test_remote_rpc_accounts_request_and_reply(self, transport):
        transport.register(1, echo_handler)
        transport.register(2, echo_handler)
        with transport.trace() as window:
            transport.rpc(1, 2, "test.echo", {})
        assert transport.metrics.counter("network.messages") == 2
        assert window.message_count == 2
        assert window.request_count == 1
        assert window.nodes_contacted() == {2}

    def test_send_datagram_accounted_and_delivered(self, transport):
        received = []
        done = threading.Event()

        def collector(message):
            received.append(message.payload)
            done.set()

        transport.register(1, echo_handler)
        transport.register(2, collector)
        transport.send(1, 2, "test.note", {"n": 1})
        assert done.wait(5.0)
        assert received == [{"n": 1}]
        assert transport.metrics.counter("network.messages") == 1

    def test_send_deliver_false_accounts_without_transmitting(self, transport):
        transport.register(1, echo_handler)
        transport.send(1, 99, "test.note", {"n": 1}, deliver=False)
        assert transport.metrics.counter("network.messages") == 1

    def test_send_to_dead_peer_is_silent(self, transport):
        transport.register(1, echo_handler)
        transport.send(1, 424242, "test.note", {})  # no such endpoint: lost, no raise
        assert transport.metrics.counter("network.messages") == 1

    def test_handler_exception_becomes_remote_handler_error(self, transport):
        def boom(message):
            raise ValueError("table is empty")

        transport.register(1, echo_handler)
        transport.register(2, boom)
        with pytest.raises(RemoteHandlerError) as info:
            transport.rpc(1, 2, "test.boom", {})
        assert info.value.error_type == "ValueError"
        assert info.value.remote_message == "table is empty"
        assert not isinstance(info.value, PeerUnreachableError)  # not retryable
        # The connection survives the error: the next call works.
        transport.register(2, echo_handler)
        assert transport.rpc(1, 2, "test.echo", {})["kind"] == "test.echo"

    def test_unknown_destination_raises_unreachable(self, transport):
        transport.register(1, echo_handler)
        with pytest.raises(PeerUnreachableError) as info:
            transport.rpc(1, 424242, "test.echo", {})
        assert info.value.address == 424242
        # The failed request was still accounted: it was sent into the void.
        assert transport.metrics.counter("network.messages") == 1

    def test_nested_rpc_from_handler(self, transport):
        # A handler that itself calls over the network (depth-1 nesting,
        # the shape chord route_step relay patterns could take).
        transport.register(3, lambda m: {"leaf": m.payload["x"] * 2})

        def relay(message):
            return transport.rpc(2, 3, "test.leaf", {"x": message.payload["x"]})

        transport.register(1, echo_handler)
        transport.register(2, relay)
        assert transport.rpc(1, 2, "test.relay", {"x": 21}) == {"leaf": 42}

    @pytest.mark.parametrize(
        "nested",
        [
            lambda t: t.rpc(2, 3, "test.leaf", {}),
            lambda t: t.rpc_many([RpcCall(2, 3, "test.leaf", {})]),
            lambda t: t.send(2, 3, "test.leaf", {}),
            lambda t: t.gossip(2, 424242, {}),
        ],
        ids=["rpc", "rpc_many", "send", "gossip"],
    )
    def test_remote_call_from_a_loop_kind_handler_fails_fast(self, transport, nested):
        # A loop kind's handler runs on the event loop thread: a remote
        # call from there raises at once instead of parking the loop
        # until the reply wait gives up.
        transport.register(3, lambda m: {"leaf": True})
        transport.register(2, lambda m: nested(transport))
        transport.register(1, echo_handler)
        started = time.monotonic()
        with pytest.raises(RemoteHandlerError) as info:
            transport.rpc(1, 2, "hindex.pin", {})
        assert time.monotonic() - started < 1.0
        assert info.value.error_type == "RuntimeError"
        assert "would block the event loop" in info.value.remote_message
        # A local call from the loop thread stays allowed.
        transport.register(
            2,
            lambda m: {"local": True}
            if m.kind == "test.self"
            else transport.rpc(2, 2, "test.self", {}),
        )
        assert transport.rpc(1, 2, "hindex.pin", {}) == {"local": True}

    def test_loop_kinds_run_inline_unless_admission_is_on(self):
        def where(message):
            return threading.current_thread().name

        for admission, pin_thread in ((None, "repro-net-loop"),
                                      (AdmissionPolicy(max_inflight=4), "repro-net-handler")):
            with AsyncioTransport(admission=admission) as transport:
                transport.register(1, echo_handler)
                transport.register(2, where)
                assert transport.rpc(1, 2, "hindex.pin", {}).startswith(pin_thread)
                assert transport.rpc(1, 2, "test.work", {}).startswith("repro-net-handler")

    def test_concurrent_rpcs_multiplex_one_connection(self, transport):
        transport.register(1, echo_handler)
        transport.register(2, lambda m: m.payload["n"])
        results = []
        errors = []

        def worker(n):
            try:
                results.append(transport.rpc(1, 2, "test.n", {"n": n}))
            except TransportError as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(20)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert sorted(results) == list(range(20))
        assert transport.open_connection_count() == 2  # one client + one server side


class TestFailureSemantics:
    def test_failed_endpoint_times_out(self, transport):
        transport.register(1, echo_handler)
        transport.register(2, echo_handler)
        transport.fail(2)
        assert not transport.is_alive(2)
        started = time.monotonic()
        with pytest.raises(RpcTimeoutError) as info:
            transport.rpc(1, 2, "test.echo", {}, timeout=200)  # 200 units = 0.2 s
        assert info.value.address == 2
        assert time.monotonic() - started < 2.0
        transport.recover(2)
        assert transport.is_alive(2)
        assert transport.rpc(1, 2, "test.echo", {})["kind"] == "test.echo"

    def test_rpc_timeout_is_retryable(self):
        assert issubclass(RpcTimeoutError, PeerUnreachableError)

    def test_cannot_fail_unknown_address(self, transport):
        with pytest.raises(PeerUnreachableError):
            transport.fail(99)

    def test_resilient_channel_retries_through_dropped_connection(self, transport):
        """Satellite check: a connection dropped mid-request surfaces as
        a retryable transport error and the channel's next attempt,
        over a fresh connection, succeeds."""
        transport.register(1, echo_handler)
        transport.register(2, lambda m: {"ok": True})
        channel = ResilientChannel(transport, RetryPolicy(max_attempts=3, base_delay=1.0))
        transport.rpc(1, 2, "test.warm", {})  # open the pooled connection
        transport.drop_next_requests(2, 1)
        result = channel.rpc(1, 2, "test.retry", {})
        assert result == {"ok": True}
        assert transport.metrics.counter("rpc.retries") == 1
        assert transport.metrics.counter("rpc.attempts") == 2

    def test_dropped_connection_without_retries_raises_unreachable(self, transport):
        transport.register(1, echo_handler)
        transport.register(2, echo_handler)
        transport.rpc(1, 2, "test.warm", {})
        transport.drop_next_requests(2, 1)
        with pytest.raises(PeerUnreachableError):
            transport.rpc(1, 2, "test.echo", {})

    def test_retry_policy_deadline_bounds_socket_wait(self, transport):
        transport.register(1, echo_handler)
        transport.register(2, echo_handler)
        transport.fail(2)
        channel = ResilientChannel(
            transport, RetryPolicy(max_attempts=5, base_delay=10.0, deadline=300.0)
        )
        started = time.monotonic()
        with pytest.raises(PeerUnreachableError):
            channel.rpc(1, 2, "test.echo", {})
        # Deadline is 300 units = 0.3 s; without the deadline mapping the
        # first attempt alone would block for the 5 s default timeout.
        assert time.monotonic() - started < 2.0


class TestLifecycle:
    def test_close_is_idempotent_and_leak_free(self):
        transport = AsyncioTransport()
        transport.register(1, echo_handler)
        transport.register(2, echo_handler)
        transport.rpc(1, 2, "test.echo", {})
        assert transport.open_connection_count() > 0
        before = threading.active_count()
        transport.close()
        transport.close()
        assert transport.open_connection_count() == 0
        assert threading.active_count() <= before
        assert not any(
            thread.name.startswith("repro-net") for thread in threading.enumerate()
        )
        with pytest.raises(RuntimeError):
            transport.rpc(1, 2, "test.echo", {})

    def test_unregister_stops_serving(self, transport):
        transport.register(1, echo_handler)
        transport.register(2, echo_handler)
        transport.unregister(2)
        assert 2 not in transport.endpoints
        assert not transport.is_alive(2)
        with pytest.raises(PeerUnreachableError):
            transport.rpc(1, 2, "test.echo", {})

    def test_context_manager_closes(self):
        with AsyncioTransport() as transport:
            transport.register(1, echo_handler)
        assert transport.closed


class TestBatchRpcOverSockets:
    """AsyncioTransport.rpc_many: truly concurrent in-flight requests."""

    def register_trio(self, transport):
        for address in (1, 2, 3):
            transport.register(address, lambda m, a=address: {"from": a, **m.payload})

    def calls(self, *dsts, src=1):
        return [RpcCall(src, dst, "test.ping", {"n": i}) for i, dst in enumerate(dsts)]

    def test_values_in_call_order(self, transport):
        self.register_trio(transport)
        outcomes = transport.rpc_many(self.calls(3, 2, 1))
        assert [o.unwrap()["from"] for o in outcomes] == [3, 2, 1]
        assert [o.unwrap()["n"] for o in outcomes] == [0, 1, 2]

    def test_batch_accounts_two_messages_per_remote_call(self, transport):
        self.register_trio(transport)
        with transport.trace() as window:
            transport.rpc_many(self.calls(2, 3))
        assert window.message_count == 4
        assert window.request_count == 2
        assert window.nodes_contacted() == {2, 3}
        assert transport.metrics.counter("net.batch_rpcs") == 1
        assert transport.metrics.counter("net.batch_calls") == 2

    def test_calls_are_in_flight_together(self, transport):
        self.register_trio(transport)
        barrier = threading.Barrier(4, timeout=5.0)

        def slow(message):
            barrier.wait()  # releases only when all 4 requests arrived
            return {"ok": True}

        for address in (4, 5, 6, 7):
            transport.register(address, slow)
        outcomes = transport.rpc_many(self.calls(4, 5, 6, 7))
        # A sequential issue order would deadlock the barrier (and time
        # out); all four succeeding proves the requests overlapped.
        assert all(o.ok for o in outcomes)

    def test_dead_destination_is_a_per_call_outcome(self):
        with AsyncioTransport(rpc_timeout=0.2) as transport:
            self.register_trio(transport)
            transport.fail(2)
            outcomes = transport.rpc_many(self.calls(1, 2, 3))
            assert [o.ok for o in outcomes] == [True, False, True]
            assert isinstance(outcomes[1].error, PeerUnreachableError)

    def test_handler_exception_becomes_remote_error_outcome(self, transport):
        self.register_trio(transport)

        def boom(message):
            raise RuntimeError("poisoned")

        transport.register(4, boom)
        outcomes = transport.rpc_many(self.calls(3, 4))
        assert outcomes[0].ok
        assert isinstance(outcomes[1].error, RemoteHandlerError)

    def test_local_served_call_short_circuits(self, transport):
        self.register_trio(transport)
        outcomes = transport.rpc_many([RpcCall(1, 1, "test.ping", {"n": 9})])
        assert outcomes[0].unwrap() == {"from": 1, "n": 9}
        assert transport.metrics.counter("network.messages") == 0

    def test_empty_batch_is_a_noop(self, transport):
        assert transport.rpc_many([]) == []

    def test_batch_errors_match_what_rpc_raises(self):
        """Each call of a mixed batch fails with the type ``rpc`` raises
        for the same call: a healthy call, an unregistered endpoint, a
        handler error and a reply wait that expires."""
        with AsyncioTransport(rpc_timeout=5.0) as transport:
            self.register_trio(transport)
            transport.unregister(3)

            def boom(message):
                raise RuntimeError("poisoned")

            transport.register(4, boom)
            transport.register(5, echo_handler)
            transport.fail(5)
            calls = [
                RpcCall(1, 2, "test.ping", {"n": 0}),
                RpcCall(1, 3, "test.ping", {"n": 1}),
                RpcCall(1, 4, "test.ping", {"n": 2}),
                RpcCall(1, 5, "test.ping", {"n": 3}, timeout=100),
            ]
            single = []
            for call in calls:
                try:
                    single.append(
                        transport.rpc(
                            call.src, call.dst, call.kind, call.payload, timeout=call.timeout
                        )
                    )
                except Exception as error:  # noqa: BLE001 - compared below
                    single.append(error)
            batch = transport.rpc_many(calls)
        assert batch[0].unwrap() == single[0] == {"from": 2, "n": 0}
        assert [type(outcome.error) for outcome in batch[1:]] == [
            type(error) for error in single[1:]
        ]
        assert [type(error) for error in single[1:]] == [
            PeerUnreachableError,
            RemoteHandlerError,
            RpcTimeoutError,
        ]
