"""Index replication through secondary hypercubes (Section 3.4).

"If one wishes, (index) replication can be done in two ways.  One is to
deal with it directly in the index layer, for example, by building a
secondary hypercube."  This module implements exactly that: ``k``
replicas of the index, all sharing the same hypercube geometry and the
same ``F_h`` (so logical placement is identical), but each mapped onto
the DHT through an independently salted ``g_i`` — replica i of logical
node u lives on a different physical peer than replica j, except for
hash coincidences.

Writes (insert/delete) go to every replica.  Reads prefer replica 0
and fail over *per logical node*: when a visited node's primary host
is dead, the same logical node is scanned on the next replica, so one
failure costs nothing — the behaviour the fault-tolerance experiment
quantifies against the unreplicated index.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.index import HypercubeIndex, PinResult
from repro.core.keywords import KeywordSetMapper, normalize_keywords
from repro.core.mapping import HypercubeMapping
from repro.core.search import FoundObject, SearchResult, SuperSetSearch, TraversalOrder
from repro.dht.dolr import DolrNetwork
from repro.hypercube.hypercube import Hypercube
from repro.net.errors import PeerUnreachableError

__all__ = ["ReplicatedHypercubeIndex", "ReplicatedSuperSetSearch"]


class ReplicatedHypercubeIndex:
    """k-way replicated hypercube index over one DOLR network."""

    def __init__(
        self,
        cube: Hypercube,
        dolr: DolrNetwork,
        *,
        replicas: int = 2,
        salt: str = "repl",
        cache_capacity: int = 0,
        cache_factory=None,
        stores=None,
    ):
        """``cache_capacity`` / ``cache_factory`` / ``stores`` are
        forwarded to the underlying :class:`HypercubeIndex` instances —
        all replicas share one :class:`~repro.core.index.IndexShard`
        per physical node (the first construction installs it), so the
        durable backends and caches configured here serve every
        replica's tables."""
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.cube = cube
        self.dolr = dolr
        self.replicas = replicas
        mapper = KeywordSetMapper(cube)
        extra = {}
        if cache_factory is not None:
            extra["cache_factory"] = cache_factory
        self.indexes: list[HypercubeIndex] = [
            HypercubeIndex(
                cube,
                dolr,
                mapper=mapper,
                mapping=HypercubeMapping(cube, dolr, salt=f"{salt}/g{i}"),
                namespace=f"{salt}/r{i}",
                cache_capacity=cache_capacity,
                stores=stores,
                **extra,
            )
            for i in range(replicas)
        ]

    @property
    def primary(self) -> HypercubeIndex:
        return self.indexes[0]

    @property
    def mapper(self) -> KeywordSetMapper:
        return self.primary.mapper

    # -- writes go everywhere ---------------------------------------------

    def insert(self, object_id: str, keywords: Iterable[str], holder: int) -> int:
        """Publish and index on every replica.  Returns the number of
        replica writes (0 when a copy already existed)."""
        normalized = normalize_keywords(keywords)
        first_copy = self.dolr.insert(object_id, holder)
        if not first_copy:
            return 0
        logical = self.mapper.node_for(normalized)
        written = 0
        for index in self.indexes:
            self.dolr.route_rpc(
                index.mapping.dht_key(logical),
                "hindex.put",
                {
                    "namespace": index.namespace,
                    "logical": logical,
                    "keywords": sorted(normalized),
                    "object_id": object_id,
                },
                origin=holder,
            )
            index.invalidate_caches(normalized, object_id, "insert", origin=holder)
            written += 1
        return written

    def delete(self, object_id: str, keywords: Iterable[str], holder: int) -> int:
        """Withdraw a replica of the object; with the last copy, remove
        the entry from every index replica."""
        normalized = normalize_keywords(keywords)
        last_copy = self.dolr.delete(object_id, holder)
        if not last_copy:
            return 0
        logical = self.mapper.node_for(normalized)
        removed = 0
        for index in self.indexes:
            self.dolr.route_rpc(
                index.mapping.dht_key(logical),
                "hindex.remove",
                {
                    "namespace": index.namespace,
                    "logical": logical,
                    "keywords": sorted(normalized),
                    "object_id": object_id,
                },
                origin=holder,
            )
            index.invalidate_caches(normalized, object_id, "remove", origin=holder)
            removed += 1
        return removed

    def bulk_load(self, items: Iterable[tuple[str, Iterable[str]]]) -> int:
        """Out-of-band bootstrap of all replicas (see
        :meth:`HypercubeIndex.bulk_load`)."""
        materialized = [(oid, normalize_keywords(kw)) for oid, kw in items]
        count = 0
        for index in self.indexes:
            count = index.bulk_load(materialized)
        return count

    # -- reads fail over -----------------------------------------------------

    def pin_search(self, keywords: Iterable[str], *, origin: int | None = None) -> PinResult:
        """Pin search on the first replica whose responsible node is
        reachable."""
        last_error: PeerUnreachableError | None = None
        for index in self.indexes:
            try:
                return index.pin_search(keywords, origin=origin)
            except PeerUnreachableError as error:
                last_error = error
        assert last_error is not None
        raise last_error

    def searcher(self, **kwargs) -> "ReplicatedSuperSetSearch":
        return ReplicatedSuperSetSearch(self, **kwargs)

    def superset_search(
        self,
        keywords: Iterable[str],
        threshold: int | None = None,
        *,
        origin: int | None = None,
        order: TraversalOrder = TraversalOrder.TOP_DOWN,
    ) -> SearchResult:
        return self.searcher().run(keywords, threshold, origin=origin, order=order)


class ReplicatedSuperSetSearch(SuperSetSearch):
    """Superset search with per-logical-node replica failover."""

    def __init__(self, replicated: ReplicatedHypercubeIndex, **kwargs):
        kwargs.setdefault("skip_unreachable", True)
        super().__init__(replicated.primary, **kwargs)
        self.replicated = replicated

    def _resolve_target(
        self,
        query: frozenset[str],
        remaining: int | None,
        origin: int,
        logical: int,
        physical: int | None,
        sender: int,
    ) -> tuple[int | None, int, tuple[list[FoundObject], str] | None]:
        """Target the primary's true placement owner; when that node is
        dead, settle the visit straight from the replicas.

        This also covers the root visit, where DHT surrogate routing
        would otherwise deliver the query to an empty stand-in node and
        the primary's data loss would go unnoticed.  Every traversal
        order resolves its visits through this hook, so the replica
        failover applies identically to all of them.
        """
        owner = self.index.mapping.physical_owner(logical)
        network = self.index.dolr.network
        if not network.is_alive(owner):
            fallback = self._visit_fallback(sender, logical, query, remaining)
            found = fallback or []
            if found and sender != origin:
                network.send(
                    sender, origin, "hindex.results", {"count": len(found)}, deliver=False
                )
            status = "replica" if fallback is not None else "failed"
            if status == "failed":
                network.metrics.increment("search.degraded_visits")
            return None, 0, (found, status)
        return owner, 0, None

    def _visit_fallback(
        self, sender: int, logical: int, query: frozenset[str], remaining: int | None
    ) -> list[FoundObject] | None:
        """Scan the same logical node on the next live replica."""
        for index in self.replicated.indexes[1:]:
            physical = index.mapping.physical_owner(logical)
            try:
                return self._scan(sender, physical, index.namespace, logical, query, remaining)
            except PeerUnreachableError:
                continue
        return None
