"""Driving a workload: set-up, closed-loop stream, verification, metrics.

Closed loop with a fixed client count, because callers of this system
wait for their reply; ops are handed out under one lock from one
pre-generated list, so the stream is the same on every run.  Answers
are kept and judged against the oracle *after* the timed stream, so
the checking never competes with the fleet for the interpreter lock.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.store.file import FileStore

from .oracle import Oracle
from .workloads import Deployment, Op, Plan, Workload, tcp_fleet

__all__ = [
    "Outcome", "StreamResult", "drive", "end_to_end", "percentile", "replayed_wire_bytes",
    "restart_check", "set_up", "set_up_repeated", "verify",
]

# Always the same count: each later TCP deployment of a process runs
# faster than the one before (README, hazard 5), so the timed stream must
# always meet the same one - the third.
SETUP_REPEATS = 3
SEGMENTS = 10
RECHECK_SAMPLE = 256
REPLAY_SHARE = 4
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Outcome:
    """What one op returned (or how it failed)."""

    index: int
    start: float
    end: float
    error: str | None = None
    cpu: float = 0.0  # process CPU clock when the op completed
    results: tuple[str, ...] = ()
    complete: bool = True
    matched: tuple[str, ...] = ()  # prefix answers: the keywords the directory matched
    visits: int = 0
    expansions: int = 0
    directory_messages: int = 0


@dataclass
class StreamResult:
    """One timed stream: per-op outcomes plus the deltas taken around it."""

    ops: list[Op]
    outcomes: list[Outcome]
    wall: float
    cpu: float
    messages: int
    wire_bytes: int  # net.bytes_sent delta, both sides; 0 on the simulator (no sockets)
    failures: list[str] = field(default_factory=list)  # exceptions + oracle violations
    checks: int = 0  # verification probes beyond the ops themselves
    cpu_began: float = 0.0  # process CPU clock when the stream started


def execute(client, op: Op, holder: int, index: int) -> Outcome:
    """Run one op through the public client; never raises."""
    start = time.perf_counter()
    try:
        if op.kind == "search":
            result = client.search(op.keywords, op.options)
            outcome = Outcome(index, start, 0.0, results=result.results(),
                              complete=result.complete, visits=len(result.visits))
        elif op.kind == "prefix":
            result = client.search(op.prefix, op.options)
            outcome = Outcome(index, start, 0.0, results=result.results(),
                              complete=result.complete, matched=result.matched_keywords,
                              expansions=len(result.expanded_keywords),
                              directory_messages=result.directory_messages)
        elif op.kind == "insert":
            client.insert(op.object_id, op.keywords, holder=holder)
            outcome = Outcome(index, start, 0.0)
        else:
            client.delete(op.object_id, holder=holder)
            outcome = Outcome(index, start, 0.0)
    except Exception as error:  # noqa: BLE001 - a failed op is a counted result, not a crash
        outcome = Outcome(index, start, 0.0, error=f"{op.kind}: {type(error).__name__}: {error}")
    outcome.end = time.perf_counter()
    outcome.cpu = time.process_time()
    return outcome


def drive(deployment: Deployment, ops: list[Op], clients: int, before_op=None) -> StreamResult:
    """Closed loop: ``clients`` threads (inline when 1) drain ``ops`` in order."""
    client = deployment.client
    holder = deployment.service.dolr.any_address()
    outcomes: list[Outcome | None] = [None] * len(ops)
    messages = deployment.counter("network.messages")
    wire_bytes = deployment.counter("net.bytes_sent")
    cpu_began = time.process_time()
    began = time.perf_counter()
    if clients == 1:
        for index, op in enumerate(ops):
            if before_op is not None:
                before_op(index)
            outcomes[index] = execute(client, op, holder, index)
    else:
        lock = threading.Lock()
        position = [0]

        def worker() -> None:
            while True:
                with lock:
                    index = position[0]
                    position[0] += 1
                if index >= len(ops):
                    return
                outcomes[index] = execute(client, ops[index], holder, index)

        threads = [threading.Thread(target=worker, name=f"ledger-client-{i}")
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - began
    cpu = time.process_time() - cpu_began
    messages = deployment.counter("network.messages") - messages
    wire_bytes = deployment.counter("net.bytes_sent") - wire_bytes
    done = [outcome for outcome in outcomes if outcome is not None]
    failures = [outcome.error for outcome in done if outcome.error is not None]
    return StreamResult(ops, done, wall, cpu, messages, wire_bytes, failures, cpu_began=cpu_began)


def set_up(workload: Workload, plan: Plan, scratch: Path) -> tuple[Deployment, float]:
    """Bring-up + preload + warm-up; returns the deployment and its wall time."""
    began = time.perf_counter()
    deployment = workload.deploy(scratch)
    try:
        if plan.bulk:
            deployment.service.index.bulk_load(plan.bulk)
        for ops in (plan.preload, plan.warmup):
            failures = drive(deployment, ops, workload.clients).failures
            if failures:
                raise RuntimeError(f"set-up op failed: {failures[0]}")
    except BaseException:
        deployment.close()
        raise
    return deployment, time.perf_counter() - began


def set_up_repeated(workload: Workload, plan: Plan, scratch: Path) -> tuple[Deployment, float]:
    """Set up ``SETUP_REPEATS`` times; keep the last, report the median time."""
    times = []
    for attempt in range(SETUP_REPEATS):
        deployment, elapsed = set_up(workload, plan, scratch)
        times.append(elapsed)
        if attempt < SETUP_REPEATS - 1:
            deployment.close()
    gc.collect()
    return deployment, statistics.median(times)


def replayed_wire_bytes(workload: Workload, plan: Plan, scratch: Path) -> tuple[int, int]:
    """(bytes, ops): what the first ``1 / REPLAY_SHARE`` of the timed
    stream's messages would take on the wire, for a deployment without
    sockets.  Those ops run again, untimed, on a fresh simulator that
    sizes every message through the wire codec (``measure_bytes``).
    Not in the timed stream, where encoding every message would put
    ``net.wire`` into a workload built to bypass it; and a share of it,
    because sizing doubles the cost of an op.  The simulator repeats
    exactly, so these are the timed stream's own messages."""
    ops = plan.timed[: max(1, len(plan.timed) // REPLAY_SHARE)]
    deployment, _ = set_up(workload, plan, scratch)
    try:
        deployment.service.network.measure_bytes = True
        replay = drive(deployment, ops, workload.clients)
    finally:
        deployment.close()
    return replay.wire_bytes, len(ops)


# -- verification ------------------------------------------------------


def _loaded(plan: Plan) -> Oracle:
    oracle = Oracle(plan.bulk)
    for op in plan.preload:
        oracle.insert(op.object_id, op.keywords)
    return oracle


def verify(plan: Plan, stream: StreamResult, deployment: Deployment) -> Oracle:
    """Judge every answer; appends violations to ``stream.failures``.

    Reads are replayed against the oracle in stream order.  With one
    client that order is the execution order, so every answer of a
    mixed stream is judged against the exact truth of its moment.  With
    two clients the read workloads never write, and the write workload
    never reads: its acked writes are probed afterwards instead (every
    live insert found by a pin query, every delete not).
    Returns the oracle as of the end of the stream.
    """
    oracle = _loaded(plan)
    by_index = {outcome.index: outcome for outcome in stream.outcomes}
    unknown: set[str] = set()  # objects whose write failed: state not asserted
    for index, op in enumerate(stream.ops):
        outcome = by_index.get(index)
        if outcome is None or outcome.error is not None:
            if op.is_write:
                unknown.add(op.object_id)
            continue
        if op.kind == "search":
            problem = oracle.check_search(
                op.keywords, op.options.threshold, outcome.results, outcome.complete
            )
        elif op.kind == "prefix":
            problem = oracle.check_prefix(
                op.prefix, op.options.threshold, outcome.results, outcome.complete,
                outcome.matched,
            )
        else:
            problem = None
            if op.kind == "insert":
                oracle.insert(op.object_id, op.keywords)
            else:
                oracle.delete(op.object_id)
        if problem is not None:
            stream.failures.append(f"op {index} {op.kind} {sorted(op.keywords) or op.prefix}: "
                                   f"{problem}")
    if any(op.is_write for op in stream.ops):
        written = [op for op in stream.ops if op.is_write and op.object_id not in unknown]
        _probe(deployment.service, written, oracle, stream, "after the stream")
    return oracle


def _probe(service, written: list[Op], oracle: Oracle, stream: StreamResult, when: str) -> None:
    """Pin-query each written object: present iff the oracle holds it."""
    for op in {op.object_id: op for op in written}.values():
        stream.checks += 1
        try:
            found = op.object_id in service.pin_search(op.keywords).results()
        except Exception as error:  # noqa: BLE001 - counted, see execute()
            stream.failures.append(f"pin {op.object_id} {when}: {type(error).__name__}: {error}")
            continue
        if found != (op.object_id in oracle.objects):
            state = "missing" if not found else "still indexed"
            stream.failures.append(f"{op.object_id} {state} {when}")


def restart_check(deployment: Deployment, stream: StreamResult, oracle: Oracle) -> dict[str, float]:
    """Close a durable fleet, time recovery of every node directory,
    bring a new fleet up over the same files and probe a sample.

    Returns the storage rows; misses land in ``stream.failures``."""
    data_dir = deployment.data_dir
    deployment.close()
    disk_bytes = sum(path.stat().st_size for path in data_dir.rglob("*") if path.is_file())
    records = 0
    began = time.perf_counter()
    for node_dir in sorted(data_dir.iterdir()):
        store = FileStore(node_dir)
        records += store.recover().records
        store.close()
    recover_s = time.perf_counter() - began
    written = [op for op in stream.ops if op.is_write]
    step = max(1, len(written) // RECHECK_SAMPLE)
    reborn = tcp_fleet(deployment.cluster_config, data_dir=data_dir)
    try:
        _probe(reborn.service, written[::step], oracle, stream, "after restart")
    finally:
        reborn.close()
    return {
        "recover_ms_per_krecord": recover_s * 1e6 / max(1, records),
        "disk_bytes": float(disk_bytes),
    }


# -- end-to-end metrics ------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def segments(outcomes: list[Outcome]) -> list[list[Outcome]]:
    """The stream cut into ``SEGMENTS`` equal-op-count slices, by completion."""
    ordered = sorted(outcomes, key=lambda outcome: outcome.end)
    size = len(ordered) // SEGMENTS
    return [ordered[k * size : (k + 1) * size] for k in range(SEGMENTS)]


def end_to_end(stream: StreamResult, setup_s: float) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count) for the untraced pass.

    Rate, CPU and the tail are each the **median over the stream's ten
    segments** of that segment's own figure, not one figure over the
    whole stream: the box has slow spells of a second or two, and a
    pooled p95 or a total/wall rate moves with every one of them, while
    a median of ten segments ignores up to four bad ones.  ``p50_ms`` is
    pooled: a slow spell barely moves a median, and on a mixed stream
    the median sits between the cache-hit and the cache-miss mode, where
    300-op segments disagree by 2x.  A failed op has no latency sample;
    it counts in ``failed`` and misses any limit."""
    began = min(outcome.start for outcome in stream.outcomes)
    rates, tails, cpus, pooled = [], [], [], []
    previous, previous_cpu = began, stream.cpu_began
    for segment in segments(stream.outcomes):
        last = segment[-1]
        latencies = [(o.end - o.start) * 1000.0 for o in segment if o.error is None]
        rates.append(len(segment) / (last.end - previous))
        cpus.append((last.cpu - previous_cpu) * 1000.0 / len(segment))
        tails.append(percentile(latencies, 0.95))
        pooled += latencies
        previous, previous_cpu = last.end, last.cpu
    ops = len(stream.ops)
    answered = len(pooled)
    return {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "ops_per_s": (statistics.median(rates), "1/s", ops),
        "p50_ms": (percentile(pooled, 0.50), "ms", answered),
        "p95_ms": (statistics.median(tails), "ms", answered),
        "cpu_ms_per_op": (statistics.median(cpus), "ms", ops),
        "msgs_per_op": (stream.messages / ops, "count", ops),
        "wire_bytes_per_op": (stream.wire_bytes / ops, "B", ops),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def scratch_dir(tag: str) -> Path:
    """A private directory under ``out/`` (the benchmark writes nowhere else)."""
    path = OUT_DIR / f"tmp-{tag}-{os.getpid()}"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
