"""DHT substrate comparison: the keyword layer is overlay-agnostic.

Section 2.1 deliberately assumes only a *generalized* DHT, and Section
3.2 adds that the hypercube can even be a physical overlay.  This
experiment quantifies what the choice of substrate costs and what it
cannot change:

* identical *logical* behaviour — same objects found, same number of
  hypercube nodes contacted per query on every substrate;
* different *physical* cost — DHT routing hops per lookup (O(log N)
  for Chord/Pastry/Kademlia, Hamming distance for the native cube).

Substrates: Chord, Kademlia, Pastry (hash mapping g), and the native
HyperCuP-style hypercube (identity g).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.index import HypercubeIndex
from repro.core.mapping import HypercubeMapping
from repro.core.search import SuperSetSearch
from repro.dht.chord import ChordNetwork
from repro.dht.hypercup import HypercubeOverlay
from repro.dht.kademlia import KademliaNetwork
from repro.dht.pastry import PastryNetwork
from repro.experiments.harness import ExperimentResult, default_corpus
from repro.hypercube.hypercube import Hypercube
from repro.workload.queries import QueryLogGenerator

__all__ = ["run"]


def _build_stack(substrate: str, dimension: int, num_nodes: int, seed: int):
    cube = Hypercube(dimension)
    if substrate == "hypercup":
        dolr = HypercubeOverlay.build(bits=dimension)
        mapping = HypercubeMapping(cube, dolr, identity=True)
    else:
        builder = {
            "chord": ChordNetwork.build,
            "kademlia": KademliaNetwork.build,
            "pastry": PastryNetwork.build,
        }[substrate]
        dolr = builder(bits=32, num_nodes=num_nodes, seed=seed)
        mapping = HypercubeMapping(cube, dolr)
    index = HypercubeIndex(cube, dolr, mapping=mapping)
    index.mapping.memoize_routes()
    return index


def run(
    *,
    num_objects: int = 4_096,
    seed: int = 0,
    dimension: int = 8,
    num_dht_nodes: int = 64,
    substrates: Sequence[str] = ("chord", "kademlia", "pastry", "hypercup"),
    num_lookups: int = 200,
    query_sizes: Sequence[int] = (1, 2),
    queries_per_size: int = 4,
) -> ExperimentResult:
    """Routing hops and search equivalence per substrate."""
    corpus = default_corpus(num_objects, seed)
    generator = QueryLogGenerator(corpus, seed=seed + 1)
    queries = [
        query
        for m in query_sizes
        for query in generator.popular_sets(m, queries_per_size)
    ]
    items = [(record.object_id, record.keywords) for record in corpus.records]

    rows: list[dict] = []
    reference: dict[frozenset[str], tuple[frozenset[str], int]] = {}
    for substrate in substrates:
        index = _build_stack(substrate, dimension, num_dht_nodes, seed)
        index.bulk_load(items)
        dolr = index.dolr
        origin = dolr.any_address()
        hops = []
        for step in range(num_lookups):
            key = dolr.space.hash_name(f"probe-{step}")
            hops.append(dolr.lookup(key, origin=origin).hops)
        searcher = SuperSetSearch(index)
        agreement = True
        visit_counts = []
        for query in queries:
            result = searcher.run(query)
            visit_counts.append(result.logical_nodes_contacted)
            found = frozenset(result.object_ids)
            expected = reference.setdefault(
                query, (found, result.logical_nodes_contacted)
            )
            agreement &= expected == (found, result.logical_nodes_contacted)
        rows.append(
            {
                "substrate": substrate,
                "physical_nodes": len(dolr.nodes),
                "mean_lookup_hops": sum(hops) / len(hops),
                "max_lookup_hops": max(hops),
                "mean_visits_per_query": sum(visit_counts) / len(visit_counts),
                "matches_reference": agreement,
            }
        )
    return ExperimentResult(
        experiment="dhtcmp",
        description="Keyword layer over four substrates: same logic, different hops",
        parameters={
            "num_objects": num_objects,
            "seed": seed,
            "dimension": dimension,
            "num_dht_nodes": num_dht_nodes,
            "num_lookups": num_lookups,
        },
        rows=rows,
    )
