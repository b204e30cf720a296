"""Tests for the resilient messaging layer (repro.sim.resilience)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ServiceConfig
from repro.core.sampling import SampledSearch
from repro.core.search import SuperSetSearch
from repro.core.service import KeywordSearchService
from repro.net.errors import NodeBusyError
from repro.net.transport import RpcCall
from repro.obs.trace import TraceRecorder, recording
from repro.sim.events import EventScheduler
from repro.sim.network import NodeUnreachableError, SimulatedNetwork
from repro.sim.resilience import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    ResilientChannel,
    RetryPolicy,
)
from repro.workload.corpus import SyntheticCorpus


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_exponential_schedule_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=4.0, multiplier=2.0, max_delay=10.0, jitter=0.0
        )
        assert policy.schedule() == [4.0, 8.0, 10.0, 10.0]  # capped at max_delay

    def test_jittered_schedule_is_seeded_and_bounded(self):
        policy = RetryPolicy(max_attempts=4, base_delay=8.0, jitter=0.5)
        first = policy.schedule(random.Random(42))
        second = policy.schedule(random.Random(42))
        assert first == second  # same seed, same virtual retry times
        assert first != policy.schedule(random.Random(43))
        for delay, ceiling in zip(first, [8.0, 16.0, 32.0]):
            assert ceiling / 2 <= delay <= ceiling

    def test_resilient_flag(self):
        assert not RetryPolicy.none().resilient
        assert RetryPolicy.default().resilient
        assert RetryPolicy(max_attempts=1, deadline=10.0).resilient


class TestCircuitBreaker:
    def make(self, **kwargs):
        scheduler = EventScheduler()
        policy = BreakerPolicy(**{"failure_threshold": 3, "reset_timeout": 100.0, **kwargs})
        return CircuitBreaker(policy, lambda: scheduler.now), scheduler

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # third failure trips it
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_closes_on_success(self):
        breaker, scheduler = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        scheduler.advance(100.0)  # virtual time, not wall time
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_reopens_on_failure(self):
        breaker, scheduler = self.make()
        for _ in range(3):
            breaker.record_failure()
        scheduler.advance(100.0)
        assert breaker.allow()
        assert breaker.record_failure() is True
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_opened == 2


class _FlakyEndpoint:
    """Handler that raises NodeUnreachableError for the first N calls."""

    def __init__(self, address: int, failures: int):
        self.address = address
        self.failures = failures
        self.calls = 0

    def __call__(self, message):
        self.calls += 1
        if self.calls <= self.failures:
            raise NodeUnreachableError(self.address)
        return {"ok": True}


def make_network():
    network = SimulatedNetwork()
    network.register(1, lambda message: {"echo": message.payload})
    return network


class TestResilientChannel:
    def test_passthrough_accounting_is_identical(self):
        direct, channelled = make_network(), make_network()
        direct.rpc(0, 1, "ping", {})
        ResilientChannel(channelled).rpc(0, 1, "ping", {})
        assert (
            direct.metrics.counter("network.messages")
            == channelled.metrics.counter("network.messages")
            == 2
        )

    def test_retries_recover_transient_failures(self):
        network = make_network()
        flaky = _FlakyEndpoint(2, failures=2)
        network.register(2, flaky)
        policy = RetryPolicy(max_attempts=3, base_delay=4.0, jitter=0.0)
        channel = ResilientChannel(network, policy)
        before = network.scheduler.now
        assert channel.rpc(0, 2, "ping", {}) == {"ok": True}
        assert flaky.calls == 3
        assert network.metrics.counter("rpc.retries") == 2
        assert network.metrics.counter("rpc.failures") == 2
        # Backoff slept 4 + 8 units of *virtual* time between attempts.
        assert network.scheduler.now - before >= 12.0

    def test_exhausted_attempts_raise_last_error(self):
        network = make_network()
        network.register(2, _FlakyEndpoint(2, failures=99))
        channel = ResilientChannel(network, RetryPolicy(max_attempts=2, jitter=0.0))
        with pytest.raises(NodeUnreachableError):
            channel.rpc(0, 2, "ping", {})
        assert network.metrics.counter("rpc.exhausted") == 1
        assert network.metrics.counter("rpc.attempts") == 2

    def test_deadline_expires_on_virtual_clock(self):
        network = make_network()
        network.register(2, _FlakyEndpoint(2, failures=99))
        policy = RetryPolicy(
            max_attempts=10, base_delay=50.0, jitter=0.0, deadline=75.0
        )
        channel = ResilientChannel(network, policy)
        start = network.scheduler.now
        with pytest.raises(DeadlineExceededError):
            channel.rpc(0, 2, "ping", {})
        # First backoff (50) fits the deadline, the second (100) does not.
        assert network.metrics.counter("rpc.deadline_exceeded") == 1
        assert network.scheduler.now - start <= 75.0

    def test_expired_budget_raises_before_sending(self):
        # Latency 1 per hop: the first attempt fails at t=1, the backoff
        # (1) sleeps exactly to the deadline at t=2.  The second attempt
        # has zero budget left and must NOT be sent — no extra attempt,
        # no extra message.
        network = make_network()
        network.register(2, _FlakyEndpoint(2, failures=99))
        policy = RetryPolicy(max_attempts=10, base_delay=1.0, jitter=0.0, deadline=2.0)
        channel = ResilientChannel(network, policy)
        with pytest.raises(DeadlineExceededError):
            channel.rpc(0, 2, "ping", {})
        assert network.metrics.counter("rpc.attempts") == 1
        assert network.metrics.counter("network.messages") == 1
        assert network.metrics.counter("rpc.deadline_exceeded") == 1

    def test_breaker_fails_fast_and_recovers(self):
        network = make_network()
        network.register(2, lambda message: {"ok": True})
        network.fail(2)
        channel = ResilientChannel(
            network,
            RetryPolicy.none(),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=64.0),
        )
        for _ in range(2):
            with pytest.raises(NodeUnreachableError):
                channel.rpc(0, 2, "ping", {})
        # Breaker is now open: the call fails without touching the network.
        attempts = network.metrics.counter("rpc.attempts")
        with pytest.raises(CircuitOpenError):
            channel.rpc(0, 2, "ping", {})
        assert network.metrics.counter("rpc.attempts") == attempts
        assert network.metrics.counter("breaker.rejected") == 1
        assert channel.breaker_for(2).state is BreakerState.OPEN
        # After the reset timeout (virtual time) a probe goes through and
        # the healed destination closes the breaker.
        network.recover(2)
        network.scheduler.advance(64.0)
        assert channel.rpc(0, 2, "ping", {}) == {"ok": True}
        assert channel.breaker_for(2).state is BreakerState.CLOSED
        assert network.metrics.counter("breaker.closed") == 1

    def test_send_swallowed_while_breaker_open(self):
        network = make_network()
        network.fail(1)
        channel = ResilientChannel(
            network, breaker=BreakerPolicy(failure_threshold=1, reset_timeout=1e9)
        )
        with pytest.raises(NodeUnreachableError):
            channel.rpc(0, 1, "ping", {})
        assert channel.send(0, 1, "datagram", {}) is False
        assert network.metrics.counter("breaker.rejected") == 1

    def test_swallowed_send_is_traced_as_a_rejection(self):
        """A datagram the breaker swallows shows in a trace exactly as a
        refused ``rpc`` does: one ``breaker`` event, ``state="rejected"``."""
        network = make_network()
        network.fail(1)
        channel = ResilientChannel(
            network, breaker=BreakerPolicy(failure_threshold=1, reset_timeout=1e9)
        )
        with pytest.raises(NodeUnreachableError):
            channel.rpc(0, 1, "ping", {})
        recorder = TraceRecorder(network.now)
        with recording(recorder):
            assert channel.send(0, 1, "datagram", {}) is False
        events = [row[1:] for row in recorder.raw if isinstance(row, tuple)]
        assert events == [("breaker", {"dst": 1, "state": "rejected"})]

    def test_retries_beat_message_loss(self):
        network = make_network()
        network.set_loss_rate(0.25, rng=7)
        channel = ResilientChannel(network, RetryPolicy(max_attempts=5, base_delay=1.0))
        for _ in range(50):
            assert channel.rpc(0, 1, "ping", {}) == {"echo": {}}
        assert network.metrics.counter("network.dropped") > 0
        assert network.metrics.counter("rpc.retries") > 0

    def test_attempt_latency_histogram_recorded(self):
        network = make_network()
        ResilientChannel(network).rpc(0, 1, "ping", {})
        assert network.metrics.samples("rpc.attempt_latency")


class TestSearchUnderFailures:
    """The acceptance scenario: 10% of DHT nodes fail-stop; a superset
    search under the default RetryPolicy completes without raising and
    reports the visits it had to degrade."""

    def make_service(self) -> KeywordSearchService:
        return KeywordSearchService.create(
            ServiceConfig(
                dimension=8,
                num_dht_nodes=50,
                seed=9,
                resilience=RetryPolicy.default(),
                breaker=BreakerPolicy(failure_threshold=3, reset_timeout=64.0),
            )
        )

    def test_search_degrades_instead_of_raising(self):
        service = self.make_service()
        corpus = SyntheticCorpus.generate(num_objects=400, seed=9)
        peers = service.index.dolr.addresses()
        for position, record in enumerate(corpus):
            service.publish(
                record.object_id, record.keywords, holder=peers[position % len(peers)]
            )
        keyword, _ = corpus.keyword_frequencies().most_common(1)[0]

        rng = random.Random(13)
        victims = rng.sample(peers, len(peers) // 10)
        for victim in victims:
            service.network.fail(victim)
        origin = next(a for a in peers if service.network.is_alive(a))

        result = service.superset_search({keyword}, origin=origin)

        assert result.results()  # live entries still found
        assert result.degraded
        assert result.degraded_visits
        assert all(v.status in ("ok", "replica", "surrogate", "failed") for v in result.visits)
        metrics = service.resilience_metrics()
        assert metrics["rpc.retries"] > 0
        assert metrics["rpc.attempts"] > metrics["rpc.failures"]
        assert metrics["search.degraded_visits"] == len(result.degraded_visits)

    def test_strict_service_raises_where_resilient_degrades(self):
        strict = KeywordSearchService.create(
            ServiceConfig(dimension=6, num_dht_nodes=20, seed=4)
        )
        resilient = KeywordSearchService.create(
            ServiceConfig(
                dimension=6, num_dht_nodes=20, seed=4,
                resilience=RetryPolicy(max_attempts=2, base_delay=1.0),
            )
        )
        origins = {}
        for service in (strict, resilient):
            for obj, keywords in (("a", {"x", "y"}), ("b", {"x", "z"})):
                service.publish(obj, keywords)
            # Fail exactly the peer serving the {x, y} index entry —
            # a node every un-thresholded {x} superset search visits.
            victim = service.pin_search({"x", "y"}).physical_node
            service.network.fail(victim)
            origins[service] = next(
                a for a in service.index.dolr.addresses()
                if service.network.is_alive(a)
            )

        with pytest.raises(NodeUnreachableError):
            strict.superset_search({"x"}, origin=origins[strict])
        # Same failure, resilient channel: degrades, must not raise.
        result = resilient.superset_search({"x"}, origin=origins[resilient])
        assert result.degraded_visits


    @pytest.fixture()
    def four_down(self):
        """A resilient 16-node fleet with 300 objects and 4 non-origin
        hosts failed; yields (service, origin, the objects carrying
        "mp3")."""
        genres = ["jazz", "rock", "pop", "folk", "blues", "soul", "punk", "metal"]
        service = KeywordSearchService.create(
            ServiceConfig(dimension=6, num_dht_nodes=16, seed=3).with_resilience(RetryPolicy())
        )
        truth = set()
        for i in range(300):
            keywords = {"mp3" if i % 3 else "flac", genres[i % 8], genres[i // 8 % 8], f"y{i % 5}"}
            service.publish(f"song-{i}", keywords)
            if "mp3" in keywords:
                truth.add(f"song-{i}")
        origin, *others = service.dolr.addresses()
        for victim in others[:4]:
            service.network.fail(victim)
        return service, origin, truth

    def test_sampled_search_degrades_like_superset_search(self, four_down):
        service, origin, truth = four_down
        assert SuperSetSearch(service.index).run({"mp3"}, origin=origin).degraded
        sample = SampledSearch(service.index).run(
            {"mp3"}, per_category=100, max_categories=1000, origin=origin
        )
        assert not sample.exhaustive
        assert sample.degraded_visits
        assert all(visit.degraded for visit in sample.degraded_visits)
        assert {found.object_id for found in sample.samples()} <= truth

    def test_cumulative_session_degrades_like_superset_search(self, four_down):
        service, origin, truth = four_down
        session = service.cumulative_search({"mp3"}, origin=origin)
        served, degraded = [], []
        while not session.exhausted:
            batch = session.next_batch(16)
            served.extend(found.object_id for found in batch.objects)
            degraded.extend(visit for visit in batch.visits if visit.degraded)
        assert degraded
        assert len(served) == len(set(served))
        assert set(served) <= truth


class TestResilientChannelBatch:
    """ResilientChannel.rpc_many: retries, deadlines, and breakers are
    tracked per call while the round itself stays concurrent."""

    def batch(self, *dsts, src=0):
        return [RpcCall(src, dst, "ping", {"n": i}) for i, dst in enumerate(dsts)]

    def test_outcomes_in_call_order(self):
        network = make_network()
        network.register(2, lambda m: {"two": True})
        channel = ResilientChannel(network)
        outcomes = channel.rpc_many(self.batch(2, 1))
        assert outcomes[0].unwrap() == {"two": True}
        assert outcomes[1].unwrap() == {"echo": {"n": 1}}

    def test_each_call_retries_independently(self):
        network = make_network()
        flaky = _FlakyEndpoint(2, failures=2)
        network.register(2, flaky)
        channel = ResilientChannel(network, RetryPolicy(max_attempts=3, base_delay=1.0))
        outcomes = channel.rpc_many(self.batch(1, 2))
        assert all(o.ok for o in outcomes)
        assert flaky.calls == 3
        # The healthy call consumed one attempt, the flaky one three.
        assert network.metrics.counter("rpc.attempts") == 4
        assert network.metrics.counter("rpc.retries") == 2
        assert network.metrics.counter("rpc.failures") == 2

    def test_round_sleeps_once_for_the_longest_backoff(self):
        network = make_network()
        network.register(2, _FlakyEndpoint(2, failures=1))
        network.register(3, _FlakyEndpoint(3, failures=1))
        channel = ResilientChannel(network, RetryPolicy(max_attempts=2, base_delay=4.0))
        started = network.now()
        outcomes = channel.rpc_many(self.batch(2, 3))
        assert all(o.ok for o in outcomes)
        # One shared 4.0 backoff sleep, not one per retried call: total
        # elapsed stays under two backoff periods.
        assert network.now() - started < 8.0

    def test_exhausted_call_returns_final_error(self):
        network = make_network()
        network.register(2, _FlakyEndpoint(2, failures=10))
        channel = ResilientChannel(network, RetryPolicy(max_attempts=2, base_delay=1.0))
        outcomes = channel.rpc_many(self.batch(1, 2))
        assert outcomes[0].ok
        assert isinstance(outcomes[1].error, NodeUnreachableError)
        assert network.metrics.counter("rpc.exhausted") == 1

    def test_deadline_is_tracked_per_call(self):
        network = make_network()
        network.register(2, _FlakyEndpoint(2, failures=10))
        channel = ResilientChannel(
            network, RetryPolicy(max_attempts=10, base_delay=50.0, deadline=60.0)
        )
        outcomes = channel.rpc_many(self.batch(1, 2))
        assert outcomes[0].ok
        # The failing call gives up when its backoff would cross its own
        # deadline — well before ten 50-unit sleeps.
        assert isinstance(outcomes[1].error, DeadlineExceededError)
        assert network.now() <= 60.0 + 50.0

    def test_breaker_rejects_per_destination(self):
        network = make_network()
        network.register(2, _FlakyEndpoint(2, failures=100))
        channel = ResilientChannel(
            network,
            RetryPolicy.none(),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=1000.0),
        )
        channel.rpc_many(self.batch(2))
        channel.rpc_many(self.batch(2))  # second failure opens the breaker
        outcomes = channel.rpc_many(self.batch(1, 2))
        assert outcomes[0].ok  # destination 1 is unaffected
        assert isinstance(outcomes[1].error, CircuitOpenError)
        assert network.metrics.counter("breaker.rejected") == 1
        # The rejected call never touched the wire.
        assert network.received_counts[2] == 2

    def test_non_retryable_error_passes_through_unretried(self):
        network = make_network()
        calls = {"n": 0}

        def boom(message):
            calls["n"] += 1
            raise RuntimeError("handler bug")

        network.register(2, boom)
        channel = ResilientChannel(network, RetryPolicy(max_attempts=5, base_delay=1.0))
        outcomes = channel.rpc_many(self.batch(2))
        assert isinstance(outcomes[0].error, RuntimeError)
        assert calls["n"] == 1  # a handler bug is not a delivery failure

    def test_accounting_matches_scalar_rpc_loop(self):
        batched, scalar = make_network(), make_network()
        ResilientChannel(batched).rpc_many(self.batch(1, 1, 1))
        channel = ResilientChannel(scalar)
        for call in self.batch(1, 1, 1):
            channel.rpc(call.src, call.dst, call.kind, call.payload)
        assert (
            batched.metrics.counter("network.messages")
            == scalar.metrics.counter("network.messages")
            == 6
        )
        assert batched.metrics.counter("rpc.attempts") == scalar.metrics.counter(
            "rpc.attempts"
        )


class _ScriptedEndpoint:
    """Handler that plays one behaviour per invocation, then answers."""

    def __init__(self, address: int, script: list[tuple[str, float]]):
        self.address = address
        self.script = list(script)

    def __call__(self, message):
        if self.script:
            behaviour, retry_after = self.script.pop(0)
            if behaviour == "raise":
                raise RuntimeError("handler bug")
            if behaviour == "unreachable":
                raise NodeUnreachableError(self.address)
            if behaviour == "busy":
                raise NodeBusyError(self.address, 1, retry_after)
        return {"echo": message.payload}


_SCRIPT = st.lists(
    st.tuples(
        st.sampled_from(["ok", "raise", "unreachable", "busy"]),
        st.sampled_from([0.0, 3.0, 20.0]),
    ),
    max_size=6,
)


class TestSingleCallParity:
    """``channel.rpc(call)`` and ``channel.rpc_many([call])[0]`` make the
    same decisions: outcome, messages, counters, clock, trace events."""

    def twin(self, faults, policy, breaker, jitter_seed):
        dead, loss, busy, script = faults
        network = SimulatedNetwork()
        network.register(1, lambda message: {"echo": message.payload})
        network.register(2, _ScriptedEndpoint(2, script))
        if dead:
            network.fail(2)
        if loss:
            network.set_loss_rate(loss, rng=7)
        if busy:
            network.inject_busy(2, busy)
        channel = ResilientChannel(network, policy, breaker=breaker, rng=jitter_seed)
        return network, channel

    @staticmethod
    def observe(network, channel, recorder, outcomes):
        counters = {
            name: value
            for name, value in network.metrics.counters().items()
            if name.startswith(("rpc.", "breaker."))
        }
        events = [row for row in recorder.raw if isinstance(row, tuple)]
        return {
            "outcomes": outcomes,
            "messages": network.metrics.counter("network.messages"),
            "kinds": dict(network.kind_counts),
            "counters": counters,
            "clock": network.now(),
            "latencies": network.metrics.samples("rpc.attempt_latency"),
            "events": events,
            "breakers": channel.breaker_states(),
        }

    @staticmethod
    def outcome(run):
        try:
            return ("ok", run())
        except Exception as error:  # noqa: BLE001 - compared, not handled
            return (type(error), str(error))

    @settings(max_examples=300, deadline=None)
    @given(
        faults=st.tuples(
            st.booleans(),
            st.sampled_from([0.0, 0.3, 0.6]),
            st.integers(0, 3),
            _SCRIPT,
        ),
        attempts=st.integers(1, 5),
        backoff=st.tuples(
            st.sampled_from([0.0, 1.0, 4.0]), st.sampled_from([1.0, 2.0, 3.0])
        ),
        deadline=st.sampled_from([None, 1.0, 6.0, 30.0, 200.0]),
        jitter=st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 3)),
        breaker=st.one_of(
            st.none(),
            st.builds(
                BreakerPolicy,
                failure_threshold=st.integers(1, 3),
                reset_timeout=st.sampled_from([0.0, 2.0, 50.0]),
            ),
        ),
        dsts=st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3),
    )
    def test_rpc_matches_a_batch_of_one(
        self, faults, attempts, backoff, deadline, jitter, breaker, dsts
    ):
        policy = RetryPolicy(
            max_attempts=attempts,
            base_delay=backoff[0],
            multiplier=backoff[1],
            jitter=jitter[0],
            deadline=deadline,
        )
        observed = []
        for batched in (False, True):
            network, channel = self.twin(faults, policy, breaker, jitter[1])
            recorder = TraceRecorder(network.now)
            outcomes = []
            with recording(recorder):
                for n, dst in enumerate(dsts):
                    call = RpcCall(0, dst, "ping", {"n": n})
                    if batched:
                        outcomes.append(
                            self.outcome(lambda: channel.rpc_many([call])[0].unwrap())
                        )
                    else:
                        outcomes.append(
                            self.outcome(
                                lambda: channel.rpc(call.src, call.dst, call.kind, call.payload)
                            )
                        )
            observed.append(self.observe(network, channel, recorder, outcomes))
        single, batch = observed
        assert single == batch
