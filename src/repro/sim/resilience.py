"""Resilient messaging: deadlines, retries, backoff, circuit breaking.

The paper's access operations (Sections 3.3–3.5) all reduce to DOLR
messages, and Section 3.4 observes that a real deployment must add
fault tolerance on top of them.  This module supplies the generic
machinery, expressed against the :class:`~repro.net.transport.Transport`
contract so the same channel works over the deterministic simulator
*and* over real sockets (:class:`~repro.net.aio.AsyncioTransport`):

* :class:`RetryPolicy` — bounded attempts with exponential backoff.
  Backoff sleeps go through the transport's clock
  (:meth:`~repro.net.transport.Transport.sleep`): they advance the
  *virtual* clock on the simulator — so two runs of the same experiment
  retry at identical virtual times — and actually sleep on a real
  transport.  An optional per-operation deadline (in transport time
  units) caps how long an operation may keep retrying, and bounds each
  attempt's reply wait on transports that support timeouts.
* :class:`CircuitBreaker` — a per-destination closed / open / half-open
  state machine.  After ``failure_threshold`` consecutive failures the
  breaker opens and calls fail fast (no message is sent); once
  ``reset_timeout`` of transport time has passed a single probe is let
  through (half-open) and its outcome re-closes or re-opens the breaker.
* :class:`ResilientChannel` — the façade protocol code talks to: an
  ``rpc``/``send`` pair mirroring the transport's
  that applies the retry policy and one breaker per destination, and
  accounts everything in :class:`~repro.sim.metrics.MetricsRegistry`
  (``rpc.retries``, ``rpc.deadline_exceeded``, ``breaker.open`` …) plus
  an ``rpc.attempt_latency`` histogram of per-attempt time costs.

The channel retries exactly the transport-generic
:class:`~repro.net.errors.PeerUnreachableError` family — the
simulator's :class:`~repro.sim.network.NodeUnreachableError`, a real
transport's connection failures and
:class:`~repro.net.errors.RpcTimeoutError` — so retries and breakers
behave identically whichever medium carries the messages.

A channel built with the default policies is a pass-through: one
attempt, no breaker, byte-identical message accounting to calling the
network directly.  That keeps the paper-faithful experiments exact
while letting the serving-oriented layers opt in.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Any

from repro.net.errors import NodeBusyError, PeerUnreachableError
from repro.net.qos import current_qos
from repro.net.transport import RpcCall, RpcOutcome, Transport
from repro.obs.trace import active_recorder
from repro.sim.network import NetworkError, NodeUnreachableError
from repro.util.rng import make_rng

__all__ = [
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "ResilientChannel",
    "RetryPolicy",
]


class DeadlineExceededError(NodeUnreachableError):
    """The operation's virtual-time deadline expired before it could
    succeed.  Subclasses :class:`NodeUnreachableError` so degradation
    paths written against the base error handle deadlines uniformly."""

    def __init__(self, address: int, deadline: float):
        NetworkError.__init__(
            self, f"deadline {deadline:g} expired while contacting node {address}"
        )
        self.address = address
        self.deadline = deadline


class CircuitOpenError(NodeUnreachableError):
    """The destination's circuit breaker is open: the call fails fast
    without sending a message."""

    def __init__(self, address: int):
        NetworkError.__init__(self, f"circuit breaker open for node {address}")
        self.address = address


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving up on one logical operation.

    ``backoff_delay`` for failure number ``n`` (1-based) is
    ``min(max_delay, base_delay * multiplier**(n-1))``, shrunk by up to
    ``jitter`` (a fraction in [0, 1]) drawn from the channel's seeded
    RNG — "equal jitter" style, so delays stay bounded and reproducible.
    ``deadline`` caps the whole operation (first attempt to last retry)
    in virtual-time units; ``None`` means no deadline.
    """

    max_attempts: int = 3
    base_delay: float = 4.0
    multiplier: float = 2.0
    max_delay: float = 64.0
    jitter: float = 0.5
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Single attempt, no backoff — the pass-through policy."""
        return cls(max_attempts=1, base_delay=0.0, jitter=0.0)

    @classmethod
    def default(cls) -> "RetryPolicy":
        """The serving default: three attempts, 4/8 unit backoff."""
        return cls()

    @property
    def resilient(self) -> bool:
        """Whether this policy differs from plain single-shot delivery."""
        return self.max_attempts > 1 or self.deadline is not None

    def backoff_delay(self, failure: int, rng: random.Random | None = None) -> float:
        """Virtual-time sleep after failure number ``failure`` (1-based)."""
        if failure < 1:
            raise ValueError(f"failure number must be >= 1, got {failure}")
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (failure - 1))
        if self.jitter and rng is not None:
            raw -= raw * self.jitter * rng.random()
        return raw

    def schedule(self, rng: random.Random | None = None) -> list[float]:
        """The full backoff schedule (one delay per possible retry) —
        mainly for tests and documentation."""
        return [
            self.backoff_delay(failure, rng)
            for failure in range(1, self.max_attempts)
        ]


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs of one :class:`CircuitBreaker`."""

    failure_threshold: int = 5
    reset_timeout: float = 256.0
    half_open_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_timeout < 0:
            raise ValueError(f"reset_timeout must be >= 0, got {self.reset_timeout}")
        if self.half_open_successes < 1:
            raise ValueError(
                f"half_open_successes must be >= 1, got {self.half_open_successes}"
            )


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-destination failure isolation on the virtual clock.

    The breaker never reads the wall clock: ``clock`` is a callable
    returning virtual time (the scheduler's ``now``), so breaker
    behaviour is as deterministic as the simulation driving it.
    """

    def __init__(self, policy: BreakerPolicy, clock) -> None:
        self.policy = policy
        self.clock = clock
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.half_open_successes = 0
        self.opened_at = 0.0
        self.times_opened = 0

    def allow(self) -> bool:
        """Whether a call may proceed now.  An open breaker transitions
        to half-open (and admits one probe) once ``reset_timeout`` of
        virtual time has elapsed."""
        if self.state is BreakerState.OPEN:
            if self.clock() - self.opened_at >= self.policy.reset_timeout:
                self.state = BreakerState.HALF_OPEN
                self.half_open_successes = 0
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.half_open_successes += 1
            if self.half_open_successes >= self.policy.half_open_successes:
                self.state = BreakerState.CLOSED
        elif self.state is BreakerState.OPEN:
            # A success observed while nominally open (e.g. a probe sent
            # through another channel): treat it as a healed destination.
            self.state = BreakerState.CLOSED

    def record_failure(self) -> bool:
        """Record one failure.  Returns True when this failure tripped
        the breaker open (closed -> open or half-open -> open)."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._open()
            return True
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self._open()
            return True
        return False

    def _open(self) -> None:
        self.state = BreakerState.OPEN
        self.opened_at = self.clock()
        self.half_open_successes = 0
        self.times_opened += 1


class ResilientChannel:
    """Retry/deadline/breaker wrapper over one :class:`~repro.net.transport.Transport`.

    All metrics land in the network's :class:`MetricsRegistry` under
    ``rpc`` and ``breaker``:

    ========================  ====================================================
    ``rpc.attempts``          requests handed to the network (first tries + retries)
    ``rpc.retries``           re-sends after a failed attempt
    ``rpc.failures``          attempts that raised (destination unreachable / dropped)
    ``rpc.busy``              attempts shed by the destination (T_BUSY) — retried
                              with backoff like failures, but counted apart and
                              *never* fed to circuit breakers: a busy node is
                              healthy, just saturated
    ``rpc.exhausted``         operations that failed after the final attempt
    ``rpc.deadline_exceeded`` operations abandoned because the deadline expired
    ``rpc.attempt_latency``   histogram of per-attempt virtual-time cost
    ``breaker.open``          transitions to the open state
    ``breaker.rejected``      calls refused while a breaker was open
    ``breaker.closed``        recoveries (half-open probe succeeded)
    ========================  ====================================================

    Deadlines compose with the ambient QoS context
    (:func:`~repro.net.qos.current_qos`): the effective deadline of an
    operation is the stricter of the policy's relative deadline and the
    context's absolute ``deadline_at``, so a caller-supplied
    :class:`~repro.core.config.SearchOptions` deadline bounds every
    retry budget along the operation without per-call plumbing.  A busy
    destination's ``retry_after`` hint raises that attempt's backoff
    floor.
    """

    def __init__(
        self,
        network: Transport,
        policy: RetryPolicy | None = None,
        *,
        breaker: BreakerPolicy | None = None,
        rng: int | random.Random | None = 0,
    ) -> None:
        self.network = network
        self.policy = policy if policy is not None else RetryPolicy.none()
        self.breaker_policy = breaker
        self.rng = make_rng(rng)
        self._breakers: dict[int, CircuitBreaker] = {}

    # -- introspection -------------------------------------------------

    @property
    def resilient(self) -> bool:
        """True when this channel does anything beyond plain delivery —
        the signal upper layers use to degrade instead of raising."""
        return self.policy.resilient or self.breaker_policy is not None

    def breaker_for(self, address: int) -> CircuitBreaker | None:
        """The destination's breaker (created lazily; None if disabled)."""
        if self.breaker_policy is None:
            return None
        breaker = self._breakers.get(address)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_policy, self.network.now)
            self._breakers[address] = breaker
        return breaker

    def breaker_states(self) -> dict[int, BreakerState]:
        """Current state of every instantiated breaker."""
        return {address: breaker.state for address, breaker in self._breakers.items()}

    def _effective_deadline(self) -> float | None:
        """The stricter of the policy deadline and the ambient QoS
        deadline, as an absolute time (None: unbounded)."""
        deadline = (
            None
            if self.policy.deadline is None
            else self.network.now() + self.policy.deadline
        )
        qos_deadline = current_qos().deadline_at
        if qos_deadline is None:
            return deadline
        return qos_deadline if deadline is None else min(deadline, qos_deadline)

    # -- per-call rule -------------------------------------------------

    def _rejects(self, dst: int) -> bool:
        """The breaker gate in front of every send: True, counted and
        traced, when ``dst``'s breaker refuses traffic."""
        breaker = self.breaker_for(dst)
        if breaker is None or breaker.allow():
            return False
        self.network.metrics.increment("breaker.rejected")
        recorder = active_recorder()
        if recorder is not None:
            recorder.emit("breaker", dst=dst, state="rejected")
        return True

    def _admit(self, dst: int, deadline: float | None) -> NodeUnreachableError | None:
        """Checks before each attempt: the deadline, then the breaker.

        Returns the error that ends the call without sending anything,
        or None after counting the attempt that goes ahead.
        """
        metrics = self.network.metrics
        if deadline is not None and self.network.now() >= deadline:
            metrics.increment("rpc.deadline_exceeded")
            return DeadlineExceededError(dst, deadline)
        if self._rejects(dst):
            return CircuitOpenError(dst)
        metrics.increment("rpc.attempts")
        return None

    def _settle(
        self,
        dst: int,
        attempt: int,
        error: BaseException | None,
        deadline: float | None,
        elapsed: float,
    ) -> float | BaseException | None:
        """Bookkeeping after attempt number ``attempt`` (1-based), which
        took ``elapsed`` and raised ``error`` (None: it got its reply).

        Returns None when the call succeeded, the error that ends it
        (``error`` itself when it is not retryable or attempts are
        exhausted, :class:`DeadlineExceededError` when the backoff would
        cross the deadline), or else the backoff delay before the next
        attempt.  The ``retry`` trace event is stamped here, when the
        retry is decided, before the backoff.
        """
        metrics = self.network.metrics
        metrics.record("rpc.attempt_latency", elapsed)
        breaker = self._breakers.get(dst)  # made by _admit when breakers are on
        if error is None:
            if breaker is not None:
                was_recovering = breaker.state is not BreakerState.CLOSED
                breaker.record_success()
                if was_recovering and breaker.state is BreakerState.CLOSED:
                    metrics.increment("breaker.closed")
                    recorder = active_recorder()
                    if recorder is not None:
                        recorder.emit("breaker", dst=dst, state="closed")
            return None
        if not isinstance(error, PeerUnreachableError):
            # Not a delivery failure (e.g. a remote handler raised): a
            # retry would re-run the handler's side effects.
            return error
        is_busy = isinstance(error, NodeBusyError)
        if is_busy:
            # Shed, not failed: the node is healthy but saturated.
            # Counted apart and kept away from the breaker — tripping it
            # would amplify the overload into an outage.
            metrics.increment("rpc.busy")
        else:
            metrics.increment("rpc.failures")
            if breaker is not None:
                was_half_open = breaker.state is BreakerState.HALF_OPEN
                if breaker.record_failure():
                    metrics.increment("breaker.open")
                    if was_half_open:
                        metrics.increment("breaker.reopened")
                    recorder = active_recorder()
                    if recorder is not None:
                        recorder.emit("breaker", dst=dst, state="open")
        if attempt >= self.policy.max_attempts:
            metrics.increment("rpc.exhausted")
            return error
        delay = self.policy.backoff_delay(attempt, self.rng)
        if is_busy and error.retry_after > delay:
            delay = error.retry_after
        if deadline is not None and self.network.now() + delay > deadline:
            metrics.increment("rpc.deadline_exceeded")
            return DeadlineExceededError(dst, deadline)
        metrics.increment("rpc.retries")
        recorder = active_recorder()
        if recorder is not None:
            recorder.emit(
                "retry", dst=dst, attempt=attempt, delay=delay, error=type(error).__name__
            )
        return delay

    # -- communication -------------------------------------------------

    def rpc(self, src: int, dst: int, kind: str, payload: dict[str, Any] | None = None) -> Any:
        """Request/reply with retries, one deadline, and breaker checks.

        Raises :class:`CircuitOpenError` without sending when the
        destination's breaker is open, :class:`DeadlineExceededError`
        when the policy's deadline expires between attempts — or has
        already expired *before* an attempt, in which case nothing is
        sent (a zero-budget request would be an accounted,
        guaranteed-to-fail socket wait on a real transport) — and the
        last :class:`~repro.net.errors.PeerUnreachableError` when
        attempts are exhausted.  When the policy has a deadline, the
        remaining budget also bounds each attempt's reply wait (real
        transports map it to a socket timeout; the simulator ignores
        it — a virtual reply cannot dawdle).
        """
        network = self.network
        deadline = self._effective_deadline()
        last_error: BaseException | None = None
        attempt = 0
        while True:
            attempt += 1
            refused = self._admit(dst, deadline)
            if refused is not None:
                raise refused from last_error
            started = network.now()
            timeout = None if deadline is None else deadline - started
            try:
                result = network.rpc(src, dst, kind, payload, timeout=timeout)
            except Exception as error:
                step = self._settle(dst, attempt, error, deadline, network.now() - started)
                if step is error:
                    raise
                if isinstance(step, BaseException):
                    raise step from error
                last_error = error
                network.sleep(step)
                continue
            self._settle(dst, attempt, None, deadline, network.now() - started)
            return result

    def rpc_many(self, calls: list[RpcCall] | tuple[RpcCall, ...]) -> list[RpcOutcome]:
        """Concurrent batch with *per-call* retry, deadline, and breaker
        state — the same per-call rule as :meth:`rpc`.

        The batch proceeds in attempt rounds.  In each round every
        still-unresolved call is checked against the deadline and its
        destination's breaker, and the survivors are issued together
        through the transport's
        :meth:`~repro.net.transport.Transport.rpc_many`.  Each call's
        outcome then goes through the same bookkeeping :meth:`rpc`
        applies to one attempt (metrics, breaker, backoff draw, ``retry``
        trace event), so observability stays 1:1 with messages under
        interleaving.

        Backoff is concurrent *and per-call*: each failed call draws its
        own delay and becomes ready at its own instant; the channel
        sleeps only until the *earliest* pending call is ready and
        reissues that cohort, while later cohorts keep waiting.  One
        slow peer's long backoff therefore never stalls its batch mates'
        retries — the batch's total backoff wall time is the longest
        single delay.

        Outcomes arrive in call order.  Errors are *returned*, never
        raised: an exhausted call yields its final
        :class:`~repro.net.errors.PeerUnreachableError`, a rejected one
        :class:`CircuitOpenError`, an expired one
        :class:`DeadlineExceededError`; non-retryable errors (e.g.
        :class:`~repro.net.errors.RemoteHandlerError`) pass through
        untouched on the first attempt.
        """
        network = self.network
        deadline = self._effective_deadline()
        outcomes: list[RpcOutcome | None] = [None] * len(calls)
        attempts = [0] * len(calls)
        # ready_at[index]: the instant a backing-off call may be
        # reissued.  Unset means ready now (first attempt).
        ready_at: dict[int, float] = {}
        pending = list(range(len(calls)))
        while pending:
            now = network.now()
            ready = [i for i in pending if ready_at.get(i, now) <= now]
            if not ready:
                # Every pending call is still backing off: sleep until
                # the earliest is ready.
                network.sleep(min(ready_at[i] for i in pending) - now)
                continue
            round_calls: list[RpcCall] = []
            round_members: list[int] = []
            for index in ready:
                call = calls[index]
                refused = self._admit(call.dst, deadline)
                if refused is not None:
                    outcomes[index] = RpcOutcome.failure(refused)
                    continue
                attempts[index] += 1
                timeout = None if deadline is None else deadline - network.now()
                round_calls.append(
                    RpcCall(call.src, call.dst, call.kind, call.payload, timeout=timeout)
                )
                round_members.append(index)
            if round_calls:
                started = network.now()
                results = network.rpc_many(round_calls)
                elapsed = network.now() - started
                for index, result in zip(round_members, results):
                    step = self._settle(
                        calls[index].dst, attempts[index], result.error, deadline, elapsed
                    )
                    if step is None or step is result.error:
                        outcomes[index] = result
                    elif isinstance(step, BaseException):
                        outcomes[index] = RpcOutcome.failure(step)
                    else:
                        ready_at[index] = network.now() + step
            pending = [index for index in pending if outcomes[index] is None]
        return outcomes  # type: ignore[return-value]

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: dict[str, Any] | None = None,
        *,
        deliver: bool = True,
    ) -> bool:
        """One-way message through the breaker (no retries: datagrams
        carry no failure signal to retry on).  Returns False when the
        breaker swallowed the message."""
        if self._rejects(dst):
            return False
        self.network.send(src, dst, kind, payload, deliver=deliver)
        return True
