"""Golden parity pins: the reproduction's outputs, byte for byte.

fig8/fig9 rows and the message count of a fixed mixed stream are what
make this a reproduction, so a refactor that claims to change no
behaviour must leave every digest below untouched.  The pins are
literals on purpose: there is no flag that rewrites them.  A change that
moves one is a behaviour change and says why, with the new value.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.core.config import SearchOptions, ServiceConfig
from repro.core.search import SuperSetSearch, TraversalOrder
from repro.core.service import KeywordSearchService
from repro.experiments import fig8, fig9
from repro.experiments.harness import build_loaded_index, default_corpus
from repro.workload.queries import QueryLogGenerator

N = 4_000  # the scaled-down corpus tests/test_experiments.py uses

FIG8_ROWS = "626c6e6b508159ab75711c999bce458ab8cb487bee4d34949a177a5c4433dde8"
FIG9_ROWS = "c58e1da3bdd7ab4215d2685c3dcf5058770a49033c5b64a029b2eea2bf325fc7"
HARNESS_MESSAGES = 3249
# The mixed stream's messages and answers, per op kind, so a change to
# one kind's path can show that the others did not move.
MIXED_MESSAGES = {"superset": 44387, "prefix": 364, "write": 8218}
MIXED_RESULTS = {
    "superset": "10dd83cd0acadf42ed41f7d55cdef5ca68a56665b70008b9dc888b66d5328b24",
    "prefix": "87af5a96d5161da9cc24159dc51450d80831392abb6a2e3a5c54f9f5f1545cbd",
    "write": "2ecd6f666794dba6b34e661daefc1cd93dcf1fac021918a91d98d1105f0fa961",
}


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def test_fig8_rows():
    result = fig8.run(
        num_objects=N,
        seed=0,
        dimensions=(8, 10),
        query_sizes=(1, 2, 3),
        queries_per_size=3,
        recall_points=(0.5, 1.0),
    )
    assert _digest(result.rows) == FIG8_ROWS


def test_fig9_rows():
    result = fig9.run(
        num_objects=N,
        seed=0,
        dimensions=(10,),
        recall_rates=(1.0,),
        alphas=(0.0, 1.0),
        num_queries=800,
        pool_size=60,
        baseline_sample=200,
    )
    assert _digest(result.rows) == FIG9_ROWS


def test_harness_route_messages():
    """The figures' index memoizes routes (a known owner answers with
    zero hops); its message count pins that shortcut's reach."""
    corpus = default_corpus(N, 0)
    index = build_loaded_index(corpus, 8, seed=0)
    searcher = SuperSetSearch(index)
    queries = QueryLogGenerator(corpus, pool_size=40, seed=1).generate(60)
    network = index.dolr.network
    before = network.metrics.counter("network.messages")
    for query in queries:
        searcher.run(query.keywords, 5)
    assert network.metrics.counter("network.messages") - before == HARNESS_MESSAGES


def _mixed_stream(rng: random.Random):
    """300 ops on the mixed-sim shape: 165 searches with t=10, 45 full
    searches, 30 prefix queries and 60 writes (40 inserts, 20 deletes
    of objects inserted earlier in the stream)."""
    records = default_corpus(2048, 11).records
    preload, fresh = records[:150], records[150:190]
    queries = QueryLogGenerator(default_corpus(2048, 11), pool_size=60, seed=12).generate(210)
    prefixes = sorted({keyword[:3] for record in records[:30] for keyword in record.keywords})
    prefix_options = SearchOptions(prefix=True, threshold=10, max_expansions=8)
    ops = [("search", q.keywords, SearchOptions(threshold=10)) for q in queries[:165]]
    ops += [("search", q.keywords, SearchOptions()) for q in queries[165:]]
    ops += [("prefix", prefix, prefix_options) for prefix in rng.sample(prefixes, 30)]
    rng.shuffle(ops)
    inserted: list = []
    for position, record in enumerate(fresh):
        ops.insert(5 + 7 * position, ("insert", record.keywords, record.object_id))
        inserted.append(record)
        if position % 2:
            doomed = inserted.pop(0)
            ops.insert(9 + 7 * position, ("delete", doomed.keywords, doomed.object_id))
    return preload, ops


def test_mixed_stream_messages_and_results():
    service = KeywordSearchService.create(
        ServiceConfig(
            dimension=10, num_dht_nodes=64, seed=11, cache_capacity=8, prefix_directory=True
        )
    )
    client = service.client()
    holder = service.dolr.any_address()
    preload, ops = _mixed_stream(random.Random(11))
    assert len(ops) == 300
    for record in preload:
        client.insert(record.object_id, record.keywords, holder=holder)
    messages = dict.fromkeys(MIXED_MESSAGES, 0)
    answers: dict[str, list] = {kind: [] for kind in MIXED_RESULTS}
    for kind, query, extra in ops:
        before = service.messages_sent()
        if kind == "insert":
            published = client.insert(extra, query, holder=holder)
            kind, answer = "write", [published.object_id, sorted(published.keywords)]
        elif kind == "delete":
            client.delete(extra, holder=holder)
            kind, answer = "write", [extra, None]
        else:
            result = client.search(query, extra)
            kind = "superset" if kind == "search" else kind
            answer = [list(result.results()), result.complete]
        messages[kind] += service.messages_sent() - before
        answers[kind].append(answer)
    assert messages == MIXED_MESSAGES
    assert {kind: _digest(rows) for kind, rows in answers.items()} == MIXED_RESULTS


# sha256 of every walk's (visits, object_ids, complete, messages, rounds)
# over the grid below, per traversal order, healthy and with one failed
# non-origin host.
WALKS = {
    ("top_down", False): "9a23a78b693531e42877eab1c5eb9c2928176b1a77fb9138cb7f9410cf90fbc8",
    ("top_down", True): "241cad19b5342e260e272f5119ed8ffa2b07d77a17c88726098340a2c6f6e9d2",
    ("bottom_up", False): "60961c96e31a99829535061dbb79c04041880f4e9ec7c59c1ac1fbba91c389c4",
    ("bottom_up", True): "b50d94da1698bcdda98ecee10357a6cfd60cccb68e555376ddcb981303799196",
    ("parallel", False): "1b86412a604ef57fcd804195ea19820c2f5e8ed5bef8cd5059f34f4c40cf182f",
    ("parallel", True): "4f1eb91e913aa5e3809653c03e116ff52104ac03e722c0a995fbcb2092dc9cf7",
}


def _walks(order: TraversalOrder, failed: bool) -> list:
    """Every walk of ``order`` over a fixed grid: r = 6 and 8, 20
    queries of 1-3 keywords, thresholds None/1/3/exact, cache off and
    on (cooperative for the subtree-shaped orders)."""
    corpus = default_corpus(1_500, 7)
    rows = []
    for dimension in (6, 8):
        index = build_loaded_index(
            corpus, dimension, num_dht_nodes=16, seed=dimension, cache_capacity=4
        )
        origin = index.dolr.any_address()
        if failed:
            addresses = index.dolr.addresses()
            index.dolr.network.fail(addresses[len(addresses) // 2])
        plain = SuperSetSearch(index, skip_unreachable=failed)
        coop = SuperSetSearch(index, skip_unreachable=failed, cooperative=True)
        queries = QueryLogGenerator(corpus, pool_size=20, seed=dimension).generate(20)
        for query in queries:
            exact = sum(1 for record in corpus.records if query.keywords <= record.keywords)
            for threshold in (None, 1, 3, exact or None):
                for use_cache in (False, True):
                    searcher = coop if use_cache and order != TraversalOrder.BOTTOM_UP else plain
                    result = searcher.run(
                        query.keywords, threshold, origin=origin, order=order, use_cache=use_cache
                    )
                    if use_cache and threshold is None:
                        # Evict the root's entry so the next cached walk
                        # of this query consults the path caches.
                        index.shard_at(result.root_physical).reset_cache()
                    rows.append(
                        [
                            [dataclasses.astuple(visit) for visit in result.visits],
                            list(result.object_ids),
                            result.complete,
                            result.messages,
                            result.rounds,
                        ]
                    )
    return rows


@pytest.mark.parametrize("failed", [False, True], ids=["healthy", "failed"])
@pytest.mark.parametrize("order", list(TraversalOrder), ids=lambda order: order.value)
def test_walks(order, failed):
    assert _digest(_walks(order, failed)) == WALKS[(order.value, failed)]
