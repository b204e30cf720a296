"""Fault tolerance: hypercube index vs distributed inverted index.

Section 3.4 argues that because a popular keyword's objects are spread
over many hypercube nodes, "no single node failure can block all
queries involving the keyword" — whereas in DII each keyword lives on
exactly one node.  This experiment fails a growing fraction of physical
nodes and measures, per scheme, the recall queries still achieve:

* hypercube — the search (with ``skip_unreachable``) loses only the
  entries hosted on dead nodes: recall degrades gracefully, roughly
  linearly in the failure fraction;
* DII — a query loses *everything* whenever any of its keywords' single
  home nodes is dead: the blocked fraction grows like 1-(1-f)^m;
* hypercube+replica — Section 3.4's secondary-hypercube replication:
  a dead node's entries are served from the replica, so recall stays
  near 1 until both hosts of an entry die;
* hypercube-noretry / hypercube-resilient — the same fail-stop failures
  seen through the messaging layer: a strict searcher raises on the
  first unreachable node (losing whole queries), while a searcher on a
  :class:`~repro.sim.resilience.ResilientChannel` (default
  :class:`RetryPolicy` + circuit breaker) degrades past dead subcubes
  via surrogate routing and keeps every live node's entries.

A second sweep replaces fail-stop failures with *transient* message
loss (:meth:`SimulatedNetwork.set_loss_rate`) and crosses the loss rate
with the retry budget: with one attempt a lost message kills the query;
with retries the search re-sends after a backoff and recall recovers,
at a measurable cost in messages per query.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.dii import DistributedInvertedIndex
from repro.core.replication import ReplicatedHypercubeIndex
from repro.core.search import SuperSetSearch
from repro.dht.chord import RoutingError
from repro.experiments.harness import ExperimentResult, build_loaded_index, default_corpus
from repro.sim.network import NodeUnreachableError, SimulatedNetwork
from repro.sim.resilience import BreakerPolicy, RetryPolicy
from repro.util.rng import make_rng
from repro.workload.queries import QueryLogGenerator

__all__ = ["run"]


def run(
    *,
    num_objects: int = 8_192,
    seed: int = 0,
    dimension: int = 10,
    num_dht_nodes: int = 128,
    failure_fractions: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3),
    num_queries: int = 60,
    replicas: int = 2,
    loss_rates: Sequence[float] = (0.1, 0.2),
    retry_attempts: Sequence[int] = (1, 3),
) -> ExperimentResult:
    """Mean recall and blocked-query fraction vs failure fraction.

    ``loss_rates`` × ``retry_attempts`` adds the transient-loss sweep
    (rows with ``failure_mode == "transient"``); pass empty sequences to
    skip it.
    """
    corpus = default_corpus(num_objects, seed)
    index = build_loaded_index(corpus, dimension, num_dht_nodes=num_dht_nodes, seed=seed)
    # This experiment fails nodes, violating the static-membership
    # assumption route memoization rests on — every route must pay
    # (and risk) real lookups, or failure modes would be masked.
    index.mapping.memoize_routes(False)
    dii = DistributedInvertedIndex(index.dolr)
    dii.bulk_load((record.object_id, record.keywords) for record in corpus.records)
    searcher = SuperSetSearch(index, skip_unreachable=True)
    # These two resolve the channel dynamically from the DOLR layer, so
    # configure_resilience() below switches their failure behaviour.
    strict_searcher = SuperSetSearch(index)
    resilient_searcher = SuperSetSearch(index)
    from repro.hypercube.hypercube import Hypercube

    replicated = ReplicatedHypercubeIndex(
        Hypercube(dimension), index.dolr, replicas=replicas
    )
    replicated.bulk_load((record.object_id, record.keywords) for record in corpus.records)
    replicated_searcher = replicated.searcher()

    generator = QueryLogGenerator(corpus, seed=seed + 1)
    queries = [q.keywords for q in generator.generate(num_queries)]
    postings = corpus.inverted_index()
    truth = {
        query: frozenset.intersection(*(postings.get(k, frozenset()) for k in query))
        for query in set(queries)
    }
    queries = [q for q in queries if truth[q]]

    network = index.dolr.network
    rng = make_rng(seed + 2)
    addresses = index.dolr.addresses()
    rows: list[dict] = []
    for fraction in failure_fractions:
        failed = rng.sample(addresses, int(round(fraction * len(addresses))))
        # Never fail every node, and keep at least one live origin.
        failed = failed[: max(0, len(addresses) - 2)]
        for address in failed:
            network.fail(address)
        origin = next(a for a in addresses if network.is_alive(a))
        try:
            rows.append(
                _measure(
                    "hypercube", fraction, queries, truth, origin,
                    searcher=searcher, network=network,
                )
            )
            rows.append(
                _measure(
                    f"hypercube+{replicas}x",
                    fraction,
                    queries,
                    truth,
                    origin,
                    searcher=replicated_searcher,
                    network=network,
                )
            )
            rows.append(
                _measure(
                    "dii", fraction, queries, truth, origin, dii=dii, network=network
                )
            )
            # The same failures through the messaging layer: strict
            # (raise on first unreachable node) vs resilient (retry,
            # then degrade via surrogate routing).
            rows.append(
                _measure(
                    "hypercube-noretry", fraction, queries, truth, origin,
                    searcher=strict_searcher, network=network,
                )
            )
            index.dolr.configure_resilience(
                RetryPolicy.default(),
                breaker=BreakerPolicy(failure_threshold=3, reset_timeout=128.0),
                rng=make_rng(seed + 5),
            )
            rows.append(
                _measure(
                    "hypercube-resilient", fraction, queries, truth, origin,
                    searcher=resilient_searcher, network=network,
                )
            )
        finally:
            index.dolr.configure_resilience(None)
            for address in failed:
                network.recover(address)

    # Transient message loss x retry budget: every node is alive, but a
    # fraction of requests is dropped in flight.  Retries genuinely
    # recover these failures (the destination is healthy on re-send).
    origin = addresses[0]
    for loss in loss_rates:
        for attempts in retry_attempts:
            index.dolr.configure_resilience(
                RetryPolicy(max_attempts=attempts, base_delay=2.0, max_delay=16.0),
                rng=make_rng(seed + 7),
            )
            network.set_loss_rate(loss, rng=make_rng(seed + 11))
            try:
                row = _measure(
                    f"loss-retry{attempts}", loss, queries, truth, origin,
                    searcher=resilient_searcher, network=network,
                )
            finally:
                network.set_loss_rate(0.0)
                index.dolr.configure_resilience(None)
            row["failure_mode"] = "transient"
            row["max_attempts"] = attempts
            rows.append(row)

    metrics = network.metrics
    resilience_counters = {
        name: value
        for name, value in sorted(metrics.counters().items())
        if name.startswith(("rpc.", "breaker.", "network.dropped", "search."))
    }
    return ExperimentResult(
        experiment="fault",
        description="Query recall under node failures: hypercube vs DII",
        parameters={
            "num_objects": num_objects,
            "seed": seed,
            "dimension": dimension,
            "num_dht_nodes": num_dht_nodes,
            "num_queries": len(queries),
            "loss_rates": list(loss_rates),
            "retry_attempts": list(retry_attempts),
        },
        rows=rows,
        notes=[f"{name}={value}" for name, value in resilience_counters.items()],
    )


def _measure(
    scheme: str,
    fraction: float,
    queries,
    truth,
    origin: int,
    *,
    searcher: SuperSetSearch | None = None,
    dii: DistributedInvertedIndex | None = None,
    network: SimulatedNetwork | None = None,
) -> dict:
    recalls = []
    blocked = 0
    raised = 0
    degraded = 0
    messages = 0
    for query in queries:
        expected = truth[query]
        found: set = set()
        with network.trace() as trace:
            try:
                if searcher is not None:
                    result = searcher.run(query, origin=origin)
                    found = set(result.object_ids)
                    degraded += len(result.degraded_visits)
                else:
                    assert dii is not None
                    found = set(dii.query(query, origin=origin).object_ids)
            except (NodeUnreachableError, RoutingError):
                raised += 1
        messages += trace.message_count
        recall = len(found & expected) / len(expected)
        recalls.append(recall)
        blocked += recall == 0.0
    return {
        "scheme": scheme,
        "failure_fraction": fraction,
        "mean_recall": sum(recalls) / len(recalls),
        "blocked_fraction": blocked / len(queries),
        "raised_fraction": raised / len(queries),
        "degraded_visits": degraded / len(queries),
        "mean_messages": messages / len(queries),
    }
