"""The four workloads: deployments, data set and operation streams.

The data set is fixed (``DATASET_SEED``): one synthetic corpus per
size, one ranked query pool, one prefix pool.  ``--seed`` decides the
*order* of the operations (on ``mixed-sim`` only where the writes fall
between the reads).  Query and prefix streams are apportioned — every pool entry
appears exactly its expected Zipf share of the stream — and then
shuffled by the seed, so two seeds run the same population of
operations in a different order.  Without that, a 130-query stream's
message count moves by several percent with the draw alone, and no
bound tighter than that could be held on ``msgs_per_op``.

Op counts are fixed per ``--seconds``: a fixed stream repeats exactly, a
timed one does not.  ISSUE 13 sized each count for a 30 s stream on the
2-core reference box; every count is scaled by ``seconds / 30``, except
that ``superset-fanout`` runs twice its share (about 2 x ``seconds``):
at 140 ops its tail has 7 samples beyond p95, and the fleet's slow
spells (README, hazard 2) last long enough to take over a 10 s stream.
"""

from __future__ import annotations

import bisect
import random
import shutil
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.client import Client, connect
from repro.core.config import SearchOptions, ServiceConfig
from repro.core.service import KeywordSearchService
from repro.experiments.harness import default_corpus
from repro.load.mix import HarvestPrefixMix, ZipfQueryMix
from repro.net.cluster import LocalCluster

__all__ = ["Deployment", "Op", "Plan", "WORKLOADS", "Workload", "apportion", "tcp_fleet"]

DATASET_SEED = 11
PREFIX_POOL_SIZE = 64
DELETE_LEAD = 12
ISSUE_SECONDS = 30

Item = tuple[str, frozenset[str]]


@dataclass(frozen=True)
class Op:
    """One client operation of a stream."""

    kind: str  # "search" | "prefix" | "insert" | "delete"
    keywords: frozenset[str] = frozenset()  # the query, or the object's keyword set
    object_id: str = ""
    prefix: str = ""
    options: SearchOptions | None = None

    @property
    def is_write(self) -> bool:
        return self.kind in ("insert", "delete")

    def describe(self) -> list:
        """A plain, order-stable rendering (stream-identity checks)."""
        threshold = self.options.threshold if self.options is not None else None
        return [self.kind, sorted(self.keywords), self.object_id, self.prefix, threshold]


@dataclass
class Plan:
    """What one run of a workload does, in order."""

    bulk: list[Item] = field(default_factory=list)  # loaded out of band, before timing
    preload: list[Op] = field(default_factory=list)  # through the client, in set-up
    warmup: list[Op] = field(default_factory=list)  # the workload's own traffic, untimed
    timed: list[Op] = field(default_factory=list)


@dataclass
class Deployment:
    """A running system under test plus the handles the ledger reads."""

    client: Client
    service: KeywordSearchService  # the side that holds the shards
    transports: list  # every transport whose counters make up the totals
    closers: list[Callable[[], None]]
    data_dir: Path | None = None
    cluster_config: ServiceConfig | None = None

    def close(self) -> None:
        for closer in self.closers:
            closer()
        self.closers = []

    def counter(self, name: str) -> int:
        return sum(transport.metrics.counter(name) for transport in self.transports)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    clients: int
    ops_per_second: float  # timed ops per --seconds second
    deploy: Callable[[Path], Deployment]
    plan: Callable[[int, int], Plan]

    def timed_ops(self, seconds: float) -> int:
        return max(20, round(self.ops_per_second * seconds))


# -- the data set ------------------------------------------------------


def apportion(weights: list[float], total: int) -> list[int]:
    """Split ``total`` in proportion to ``weights`` (largest remainder)."""
    scale = total / sum(weights)
    shares = [weight * scale for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: (counts[i] - shares[i], i))
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def _records(size: int) -> list[Item]:
    return [(r.object_id, r.keywords) for r in default_corpus(size, DATASET_SEED).records]


def _query_stream(size: int, count: int, rng: random.Random) -> list[frozenset[str]]:
    """``count`` queries holding each pool entry's exact Zipf share, shuffled."""
    generator = ZipfQueryMix.from_corpus(
        default_corpus(size, DATASET_SEED), seed=DATASET_SEED + 1
    ).generator
    weights = [rank ** -generator.zipf_exponent for rank in range(1, len(generator.pool) + 1)]
    stream = [
        query
        for query, copies in zip(generator.pool, apportion(weights, count))
        for _ in range(copies)
    ]
    rng.shuffle(stream)
    return stream


def _prefix_stream(size: int, count: int, rng: random.Random) -> list[str]:
    """``count`` prefixes cycling a fixed harvest pool, shuffled."""
    mix = HarvestPrefixMix.from_corpus(
        default_corpus(size, DATASET_SEED), min_length=2, seed=DATASET_SEED + 2
    )
    pool = [mix.next_prefix() for _ in range(PREFIX_POOL_SIZE)]
    stream = [pool[i % len(pool)] for i in range(count)]
    rng.shuffle(stream)
    return stream


def _searches(queries: Iterable[frozenset[str]], threshold: int | None) -> list[Op]:
    options = SearchOptions(threshold=threshold)
    return [Op("search", keywords=query, options=options) for query in queries]


def _inserts(items: Iterable[Item]) -> list[Op]:
    return [Op("insert", keywords=keywords, object_id=object_id) for object_id, keywords in items]


def _writes(fresh: list[Item], count: int, rng: random.Random, delete_share: float) -> list[Op]:
    """``count`` writes: inserts with deletes spread evenly to
    ``delete_share`` of the ops (1/4: every 4th), each withdrawing the
    oldest doomed object, inserted >= 8 ops earlier.  Which objects are
    inserted, and which of them are doomed, is fixed (the first of
    ``fresh``); the seed decides the order they arrive in.  Every seed
    therefore runs the same multiset of writes, and a write's messages
    depend on its object alone, so ``msgs_per_op`` is the same."""
    deleting = [
        position >= 8 and int((position + 1) * delete_share) > int(position * delete_share)
        for position in range(count)
    ]
    delete_positions = [position for position, delete in enumerate(deleting) if delete]
    supply = fresh[: count - len(delete_positions)]
    if len(supply) < count - len(delete_positions):
        raise ValueError(f"{count} writes need more fresh objects than the data set has")
    doomed, kept = supply[: len(delete_positions)], supply[len(delete_positions) :]
    rng.shuffle(doomed)
    rng.shuffle(kept)
    ops: list[Op] = []
    waiting: list[tuple[int, Item]] = []  # doomed objects in the index: (inserted at, item)
    doomed_in = 0
    for position, delete in enumerate(deleting):
        if delete:
            inserted_at, item = waiting.pop(0)
            if inserted_at > position - 8:
                raise ValueError(f"the delete at {position} has no object 8 ops old")
            ops.append(Op("delete", keywords=item[1], object_id=item[0]))
            continue
        # A doomed object goes in while a delete within the next
        # DELETE_LEAD ops would otherwise find none old enough.
        wanted = bisect.bisect_right(delete_positions, position + DELETE_LEAD)
        if doomed and (doomed_in < wanted or not kept):
            item = doomed.pop()
            waiting.append((position, item))
            doomed_in += 1
        else:
            item = kept.pop()
        ops.append(Op("insert", keywords=item[1], object_id=item[0]))
    return ops


# -- deployments -------------------------------------------------------


def tcp_fleet(config: ServiceConfig, data_dir: Path | None = None) -> Deployment:
    """16 daemons on loopback plus a fleet client, one process."""
    cluster = LocalCluster(config, data_dir=data_dir)
    try:
        client = connect(config, peers=cluster.endpoints)
    except BaseException:
        cluster.close()
        raise
    closers: list[Callable[[], None]] = [client.close, cluster.close]
    return Deployment(
        client, cluster.service, [client.transport, cluster.transport], closers,
        data_dir=data_dir, cluster_config=config,
    )


def _fleet_config(**overrides) -> ServiceConfig:
    return ServiceConfig(dimension=8, num_dht_nodes=16, seed=11, codec="binary", **overrides)


def _deploy_fanout(scratch: Path) -> Deployment:
    return tcp_fleet(_fleet_config(cache_capacity=0))


def _deploy_cached(scratch: Path) -> Deployment:
    # alpha = 0.5 * objects / nodes = 0.5 * 2048 / 16 (the fig. 9 regime).
    return tcp_fleet(_fleet_config(cache_capacity=64))


def _deploy_durable(scratch: Path) -> Deployment:
    shutil.rmtree(scratch, ignore_errors=True)
    return tcp_fleet(_fleet_config(cache_capacity=8, prefix_directory=False), data_dir=scratch)


def _deploy_sim(scratch: Path) -> Deployment:
    service = KeywordSearchService.create(
        ServiceConfig(
            dimension=10, num_dht_nodes=64, seed=11, cache_capacity=8, prefix_directory=True
        )
    )
    return Deployment(service.client(), service, [service.network], [])


# -- plans -------------------------------------------------------------

FLEET_CORPUS = 4096
SIM_CORPUS = 8192
SIM_BLOCK = 5


def _plan_fanout(seed: int, count: int) -> Plan:
    rng = random.Random(seed)
    return Plan(
        bulk=_records(FLEET_CORPUS)[:2048],
        warmup=_searches(_query_stream(FLEET_CORPUS, max(8, count // 8), rng), None),
        timed=_searches(_query_stream(FLEET_CORPUS, count, rng), None),
    )


def _plan_cached(seed: int, count: int) -> Plan:
    rng = random.Random(seed)
    warm = max(8, count // 5)
    return Plan(
        bulk=_records(FLEET_CORPUS)[:2048],
        warmup=_searches(_query_stream(FLEET_CORPUS, warm, rng), 10),
        timed=_searches(_query_stream(FLEET_CORPUS, count, rng), 10),
    )


def _plan_durable(seed: int, count: int) -> Plan:
    rng = random.Random(seed)
    records = _records(FLEET_CORPUS)
    base = max(16, count // 4)
    return Plan(
        preload=_inserts(records[:base]),
        warmup=_searches(_query_stream(FLEET_CORPUS, max(8, count // 10), rng), 10),
        timed=_writes(records[base:], count, rng, 1 / 4),
    )


def _plan_sim(seed: int, count: int) -> Plan:
    records = _records(SIM_CORPUS)
    base = max(32, count // 2)
    shares = apportion([55, 15, 10, 20], count)  # t=10, full, prefix, writes (13 + 7)
    prefix_options = SearchOptions(prefix=True, threshold=10, max_expansions=8)
    # Reads and writes each keep one fixed order; the seed decides where
    # the writes fall between the reads.  With 8-entry caches the message
    # count follows the read order closely (seeded orders moved it by 7 %
    # between seeds, seeded slots alone by 2 %), and a delete needs its
    # insert behind it anyway.
    fixed = random.Random(DATASET_SEED + 3)
    queries = _query_stream(SIM_CORPUS, shares[0] + shares[1], fixed)
    reads = _searches(queries[: shares[0]], 10) + _searches(queries[shares[0] :], None)
    reads += [
        Op("prefix", prefix=prefix, options=prefix_options)
        for prefix in _prefix_stream(SIM_CORPUS, shares[2], fixed)
    ]
    fixed.shuffle(reads)
    writes = _writes(records[base:], shares[3], fixed, 7 / 20)
    # Blocks of SIM_BLOCK ops of equal composition, so the ledger's ten
    # segments are comparable; within a block the seed picks the writes'
    # slots.  Small blocks: a write that moves past a read of a query it
    # invalidates turns a 2-message hit into a 200-message walk, and
    # with 300-op blocks that moved the message count 0.6 % between
    # seeds - too near the 1 % bound.
    rng = random.Random(seed)
    blocks = max(1, count // SIM_BLOCK)
    timed: list[Op] = []
    read_supply, write_supply = iter(reads), iter(writes)
    for size, block_writes in zip(
        apportion([1] * blocks, count), apportion([1] * blocks, len(writes))
    ):
        slots = set(rng.sample(range(size), block_writes))
        timed += [next(write_supply if i in slots else read_supply) for i in range(size)]
    return Plan(preload=_inserts(records[:base]), timed=timed)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "superset-fanout",
            "Uncached full superset queries over TCP: ~127 sequential RPCs each, so "
            "net.aio, net.wire, net.codec and IndexShard.scan do the work; cache and store idle.",
            clients=2, ops_per_second=2 * 420 / ISSUE_SECONDS, deploy=_deploy_fanout,
            plan=_plan_fanout,
        ),
        Workload(
            "superset-cached",
            "The same fleet with root caches and threshold 10: 1-2 RPCs per query, so the "
            "cache hit path and client set-up dominate and the fan-out is bypassed.",
            clients=2, ops_per_second=20_000 / ISSUE_SECONDS, deploy=_deploy_cached,
            plan=_plan_cached,
        ),
        Workload(
            "write-durable",
            "Inserts and deletes over TCP into WAL-backed nodes: routing, hindex.put, two WAL "
            "appends and a batched cache-invalidation fan-out per write; reads are bypassed.",
            clients=2, ops_per_second=4096 / ISSUE_SECONDS, deploy=_deploy_durable,
            plan=_plan_durable,
        ),
        Workload(
            "mixed-sim",
            "Searches, prefix queries, inserts and deletes on the simulator, one thread: no "
            "sockets, so net.* is bypassed and core.*, prefix.directory and sim.network do all.",
            clients=1, ops_per_second=8000 / ISSUE_SECONDS, deploy=_deploy_sim,
            plan=_plan_sim,
        ),
    )
}
