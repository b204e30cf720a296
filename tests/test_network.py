"""Unit tests for the simulated network (plus latency models and metrics)."""

import pytest

from repro.net.transport import RpcCall, sequential_rpc_many
from repro.sim.latency import ConstantLatency, LogNormalLatency, UniformLatency
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import NetworkError, NodeUnreachableError, SimulatedNetwork


def echo_handler(message):
    return {"echo": message.payload.get("value")}


class TestRegistration:
    def test_register_and_reach(self):
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        net.register(2, echo_handler)
        assert net.rpc(1, 2, "app.echo", {"value": 7}) == {"echo": 7}

    def test_unknown_destination(self):
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        with pytest.raises(NodeUnreachableError):
            net.rpc(1, 99, "app.echo")

    def test_unregister(self):
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        net.register(2, echo_handler)
        net.unregister(2)
        assert not net.is_registered(2)
        with pytest.raises(NodeUnreachableError):
            net.rpc(1, 2, "app.echo")

    def test_addresses(self):
        net = SimulatedNetwork()
        net.register(5, echo_handler)
        net.register(3, echo_handler)
        assert net.addresses() == frozenset({3, 5})


class TestFailureInjection:
    def test_failed_node_unreachable(self):
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        net.register(2, echo_handler)
        net.fail(2)
        assert not net.is_alive(2)
        with pytest.raises(NodeUnreachableError):
            net.rpc(1, 2, "app.echo")

    def test_recover(self):
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        net.register(2, echo_handler)
        net.fail(2)
        net.recover(2)
        assert net.rpc(1, 2, "app.echo", {"value": 1}) == {"echo": 1}

    def test_fail_unknown_rejected(self):
        net = SimulatedNetwork()
        with pytest.raises(NetworkError):
            net.fail(42)

    def test_request_to_dead_node_still_accounted(self):
        # The request is sent and times out: it must count as traffic.
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        net.register(2, echo_handler)
        net.fail(2)
        with net.trace() as trace:
            with pytest.raises(NodeUnreachableError):
                net.rpc(1, 2, "app.echo")
        assert trace.message_count == 1


class TestAccounting:
    def test_rpc_costs_two_messages(self):
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        net.register(2, echo_handler)
        net.rpc(1, 2, "app.echo")
        assert net.metrics.counter("network.messages") == 2

    def test_local_rpc_is_free(self):
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        net.rpc(1, 1, "app.echo")
        assert net.metrics.counter("network.messages") == 0

    def test_rpc_advances_clock_by_round_trip(self):
        net = SimulatedNetwork(latency=ConstantLatency(3.0))
        net.register(1, echo_handler)
        net.register(2, echo_handler)
        net.rpc(1, 2, "app.echo")
        assert net.scheduler.now == 6.0

    def test_send_one_way(self):
        net = SimulatedNetwork()
        received = []
        net.register(1, echo_handler)
        net.register(2, lambda m: received.append(m.payload["value"]))
        net.send(1, 2, "app.note", {"value": 9})
        assert net.metrics.counter("network.messages") == 1
        net.scheduler.run()
        assert received == [9]

    def test_send_dropped_if_dead_at_delivery(self):
        net = SimulatedNetwork()
        received = []
        net.register(1, echo_handler)
        net.register(2, lambda m: received.append(1))
        net.send(1, 2, "app.note")
        net.fail(2)
        net.scheduler.run()
        assert received == []


class TestTrace:
    def test_trace_captures_window_only(self):
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        net.register(2, echo_handler)
        net.rpc(1, 2, "app.echo")
        with net.trace() as trace:
            net.rpc(1, 2, "app.echo")
        net.rpc(1, 2, "app.echo")
        assert trace.message_count == 2

    def test_nested_traces(self):
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        net.register(2, echo_handler)
        with net.trace() as outer:
            net.rpc(1, 2, "app.echo")
            with net.trace() as inner:
                net.rpc(1, 2, "app.echo")
        assert inner.message_count == 2
        assert outer.message_count == 4

    def test_nested_empty_windows_stay_distinct(self):
        # Two windows that are both still empty must not be mistaken for
        # each other when the inner one closes.
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        net.register(2, echo_handler)
        with net.trace() as outer:
            with net.trace() as inner:
                pass
            net.rpc(1, 2, "app.echo")
        assert outer.message_count == 2
        assert inner.message_count == 0

    def test_nodes_contacted(self):
        net = SimulatedNetwork()
        for address in (1, 2, 3):
            net.register(address, echo_handler)
        with net.trace() as trace:
            net.rpc(1, 2, "app.echo")
            net.rpc(1, 3, "app.echo")
            net.rpc(1, 2, "app.echo")
        assert trace.nodes_contacted() == {2, 3}
        assert trace.nodes_contacted(exclude={2}) == {3}

    def test_count_kind(self):
        net = SimulatedNetwork()
        net.register(1, echo_handler)
        net.register(2, echo_handler)
        with net.trace() as trace:
            net.rpc(1, 2, "app.echo")
            net.send(1, 2, "app.note")
        assert trace.count_kind("app.echo") == 2  # request + reply
        assert trace.count_kind("app.note") == 1


class TestLatencyModels:
    def test_constant(self):
        assert ConstantLatency(5.0).delay(1, 2) == 5.0

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_bounds_and_stability(self):
        model = UniformLatency(10.0, 100.0, seed=1)
        delay = model.delay(3, 4)
        assert 10.0 <= delay <= 100.0
        assert model.delay(3, 4) == delay  # per-link stable
        assert model.delay(4, 3) == delay  # symmetric

    def test_uniform_links_differ(self):
        model = UniformLatency(10.0, 100.0, seed=1)
        delays = {model.delay(0, i) for i in range(1, 20)}
        assert len(delays) > 10

    def test_lognormal_positive(self):
        model = LogNormalLatency(median_ms=50.0, sigma=0.5, seed=2)
        for i in range(1, 30):
            assert model.delay(0, i) > 0

    def test_lognormal_validation(self):
        with pytest.raises(ValueError):
            LogNormalLatency(median_ms=0.0)


class TestMetrics:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("a")
        metrics.increment("a", 4)
        assert metrics.counter("a") == 5
        assert metrics.counter("missing") == 0

    def test_summary(self):
        metrics = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            metrics.record("hops", value)
        summary = metrics.summary("hops")
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == 2.0

    def test_empty_summary(self):
        assert MetricsRegistry().summary("nothing").count == 0

    def test_reset_prefix(self):
        metrics = MetricsRegistry()
        metrics.increment("a.x")
        metrics.increment("b.y")
        metrics.reset("a.")
        assert metrics.counter("a.x") == 0
        assert metrics.counter("b.y") == 1

    def test_scoped(self):
        metrics = MetricsRegistry()
        scoped = metrics.scoped("dht")
        scoped.increment("lookups")
        scoped.record("hops", 3.0)
        assert metrics.counter("dht.lookups") == 1
        assert scoped.summary("hops").mean == 3.0


class TestBatchRpc:
    """SimulatedNetwork.rpc_many: concurrent in virtual time, sequential
    in accounting."""

    def make(self):
        network = SimulatedNetwork(latency=ConstantLatency(1.0))
        for address in (1, 2, 3):
            network.register(address, lambda m, a=address: {"from": a, **m.payload})
        return network

    def calls(self, *dsts, src=0):
        return [RpcCall(src, dst, "test.ping", {"n": i}) for i, dst in enumerate(dsts)]

    def test_values_in_call_order(self):
        network = self.make()
        outcomes = network.rpc_many(self.calls(3, 1, 2))
        assert [o.unwrap()["from"] for o in outcomes] == [3, 1, 2]
        assert [o.unwrap()["n"] for o in outcomes] == [0, 1, 2]

    def test_batch_elapses_one_round_trip(self):
        network = self.make()
        network.rpc_many(self.calls(1, 2, 3))
        # Three calls in flight together: slowest round trip, not 3x.
        assert network.now() == 2.0

    def test_accounting_matches_sequential_reference(self):
        batched, reference = self.make(), self.make()
        with batched.trace() as batch_window:
            batched.rpc_many(self.calls(1, 2, 3))
        with reference.trace() as ref_window:
            sequential_rpc_many(reference, self.calls(1, 2, 3))
        assert batch_window.message_count == ref_window.message_count == 6
        assert [
            (m.src, m.dst, m.kind, m.is_reply) for m in batch_window.messages
        ] == [(m.src, m.dst, m.kind, m.is_reply) for m in ref_window.messages]
        # ...but the sequential loop paid three round trips.
        assert reference.now() == 3 * batched.now()

    def test_dead_destination_is_a_per_call_outcome(self):
        network = self.make()
        network.fail(2)
        outcomes = network.rpc_many(self.calls(1, 2, 3))
        assert [o.ok for o in outcomes] == [True, False, True]
        with pytest.raises(NodeUnreachableError):
            outcomes[1].unwrap()
        # The lost request was still accounted: 2 + 1 + 2 messages.
        assert network.metrics.counter("network.messages") == 5

    def test_handler_exception_ferried_not_raised(self):
        network = self.make()

        def boom(message):
            raise RuntimeError("poisoned")

        network.register(2, boom)
        outcomes = network.rpc_many(self.calls(1, 2, 3))
        assert [o.ok for o in outcomes] == [True, False, True]
        assert isinstance(outcomes[1].error, RuntimeError)

    def test_raising_handler_pays_the_request_leg_as_rpc_does(self):
        def boom(message):
            raise RuntimeError("poisoned")

        single, batched = self.make(), self.make()
        for network in (single, batched):
            network.register(2, boom)
        with pytest.raises(RuntimeError):
            single.rpc(0, 2, "test.ping", {})
        assert not batched.rpc_many(self.calls(2))[0].ok
        assert batched.now() == single.now() == 1.0
        # A request that never reached a handler still costs no time.
        batched.fail(3)
        assert not batched.rpc_many(self.calls(3))[0].ok
        assert batched.now() == 1.0

    def test_local_call_is_free_and_instant(self):
        network = self.make()
        outcomes = network.rpc_many([RpcCall(1, 1, "test.ping", {})])
        assert outcomes[0].ok
        assert network.metrics.counter("network.messages") == 0
        assert network.now() == 0.0

    def test_loss_model_draws_in_call_order(self):
        seeded_a, seeded_b = self.make(), self.make()
        seeded_a.set_loss_rate(0.5, rng=7)
        seeded_b.set_loss_rate(0.5, rng=7)
        pattern_a = [o.ok for o in seeded_a.rpc_many(self.calls(1, 2, 3, 1, 2, 3))]
        pattern_b = [o.ok for o in seeded_b.rpc_many(self.calls(1, 2, 3, 1, 2, 3))]
        assert pattern_a == pattern_b  # deterministic given the seed
        assert not all(pattern_a)  # and the model actually bites

    def test_empty_batch_is_a_noop(self):
        network = self.make()
        assert network.rpc_many([]) == []
        assert network.now() == 0.0
