"""Recall under continuous churn, with and without index maintenance.

The paper assumes a "reliable and self-organizing" overlay (§2.1) and
leaves data maintenance to the DHT.  This extension quantifies what the
index layer must actually do under churn:

* **no maintenance** — nodes join (taking over key ranges without the
  data) and leave abruptly (taking their shard tables with them):
  recall decays epoch after epoch;
* **maintained** — after each epoch the index runs
  :meth:`~repro.core.index.HypercubeIndex.rebalance` and departures are
  graceful (:meth:`~repro.core.index.HypercubeIndex.evacuate` first):
  recall stays at 1.0 while entries migrate.

Each epoch performs a fixed number of joins and leaves, then probes a
fixed query set against ground truth.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.index import HypercubeIndex
from repro.core.search import SuperSetSearch
from repro.dht.chord import ChordNetwork
from repro.experiments.harness import ExperimentResult, default_corpus
from repro.hypercube.hypercube import Hypercube
from repro.util.rng import make_rng
from repro.workload.queries import QueryLogGenerator

__all__ = ["run"]


def run(
    *,
    num_objects: int = 4_096,
    seed: int = 0,
    dimension: int = 8,
    num_dht_nodes: int = 48,
    epochs: int = 6,
    joins_per_epoch: int = 4,
    leaves_per_epoch: int = 4,
    num_queries: int = 12,
    query_sizes: Sequence[int] = (1, 2),
) -> ExperimentResult:
    """Recall per epoch, maintained vs unmaintained."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    corpus = default_corpus(num_objects, seed)
    generator = QueryLogGenerator(corpus, seed=seed + 1)
    queries = [
        query
        for m in query_sizes
        for query in generator.popular_sets(m, num_queries // len(query_sizes))
    ]
    truth = {query: set(corpus.matching(query)) for query in queries}
    items = [(record.object_id, record.keywords) for record in corpus.records]

    rows: list[dict] = []
    for maintained in (False, True):
        ring = ChordNetwork.build(bits=20, num_nodes=num_dht_nodes, seed=seed)
        index = HypercubeIndex(Hypercube(dimension), ring)
        index.bulk_load(items)
        searcher = SuperSetSearch(index, skip_unreachable=True)
        rng = make_rng(seed + 2)
        label = "maintained" if maintained else "no-maintenance"
        rows.append(_probe(label, 0, index, searcher, queries, truth, moved=0))
        for epoch in range(1, epochs + 1):
            moved = 0
            for _ in range(joins_per_epoch):
                address = ring.space.random_id(rng)
                if address not in ring.nodes:
                    ring.join(address, ring.any_address())
            ring.stabilize_all(rounds=2)
            # Converge routing state fully before measuring: the probe
            # isolates *index* maintenance, not transient DHT routing
            # staleness (which extra stabilization rounds remove in real
            # Chord too).
            ring.rewire_from_global_knowledge()
            if maintained:
                moved += index.rebalance()
            departures = rng.sample(
                ring.addresses(), min(leaves_per_epoch, len(ring.nodes) - 4)
            )
            for address in departures:
                if maintained:
                    moved += index.evacuate(address)
                ring.leave(address)
            ring.stabilize_all(rounds=2)
            ring.rewire_from_global_knowledge()
            rows.append(
                _probe(label, epoch, index, searcher, queries, truth, moved=moved)
            )
    return ExperimentResult(
        experiment="churn",
        description="Recall over churn epochs, with and without index maintenance",
        parameters={
            "num_objects": num_objects,
            "seed": seed,
            "dimension": dimension,
            "num_dht_nodes": num_dht_nodes,
            "epochs": epochs,
            "joins_per_epoch": joins_per_epoch,
            "leaves_per_epoch": leaves_per_epoch,
        },
        rows=rows,
    )


def _probe(label, epoch, index, searcher, queries, truth, *, moved) -> dict:
    recalls = []
    for query in queries:
        expected = truth[query]
        if not expected:
            continue
        found = set(searcher.run(query).object_ids)
        recalls.append(len(found & expected) / len(expected))
    return {
        "scheme": label,
        "epoch": epoch,
        "mean_recall": sum(recalls) / len(recalls),
        "indexed_references": index.total_indexed(),
        "moved_references": moved,
    }
