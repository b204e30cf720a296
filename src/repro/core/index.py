"""The hypercube index: per-node shards and Insert / Delete / Pin.

Every logical hypercube node ``u`` keeps an index table ``Tbl_u`` of
entries ``⟨keyword_set, {object ids}⟩`` (Section 3.3).  A physical DHT
node may play several logical nodes (when r exceeds log2 of the network
size), so its :class:`IndexShard` keys tables by ``(namespace, logical
node)`` — the namespace isolates coexisting indexes (e.g. the groups of
a decomposed index, Section 3.4) and a superset scan is always scoped
to one logical node of one namespace, which keeps results exact and
duplicate-free even under heavy logical-to-physical sharing.

:class:`HypercubeIndex` is the network-facing orchestrator.  Operations
follow the paper's flow: an object publish first records the replica
reference at ``L(σ)`` through the DOLR layer; only the *first* copy
triggers index insertion at ``g(F_h(K_σ))``.  Pin search routes one
message to the responsible node.  (Superset search lives in
:mod:`repro.core.search`.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from collections.abc import Iterable

from repro.core.cache import (
    CachedResult,
    CacheSizing,
    FifoQueryCache,
    QueryCache,
    optimum_capacities,
)
from repro.core.keywords import KeywordSetMapper, normalize_keywords
from repro.core.mapping import HypercubeMapping
from repro.dht.dolr import DolrNetwork, DolrNode
from repro.hypercube.hypercube import Hypercube
from repro.net.codec import PostingList
from repro.net.transport import RpcCall
from repro.obs.trace import active_recorder
from repro.sim.network import Message
from repro.store.backend import MemoryStore, StoreBackend

__all__ = ["HypercubeIndex", "IndexEntry", "IndexShard", "PinResult"]

TableKey = tuple[str, int]


@dataclass(frozen=True)
class IndexEntry:
    """One index-table entry ⟨K, {σ_1, ..., σ_n}⟩."""

    keywords: frozenset[str]
    object_ids: frozenset[str]


@dataclass(frozen=True)
class PinResult:
    """Outcome of a pin search."""

    keywords: frozenset[str]
    object_ids: tuple[str, ...]
    logical_node: int
    physical_node: int
    dht_hops: int

    def results(self) -> tuple[str, ...]:
        """The matching object IDs — the accessor shared by every search
        result type (see :meth:`repro.core.search.SearchResult.results`)."""
        return self.object_ids


def _entry_sort_key(item: tuple[frozenset[str], set[str]]) -> tuple[int, tuple[str, ...]]:
    keywords, _ = item
    return (len(keywords), tuple(sorted(keywords)))


class IndexShard:
    """Per-physical-node application holding the index tables of every
    logical node that physical node plays, plus the query cache.

    Message kinds (prefix ``hindex``):

    * ``hindex.put`` / ``hindex.remove`` — entry maintenance,
    * ``hindex.pin`` — exact-set lookup,
    * ``hindex.scan`` — superset scan at one logical node (the body of a
      T_QUERY step),
    * ``hindex.results`` — receipt of directly-forwarded result IDs,
    * ``hindex.transfer`` — bulk table hand-off for churn maintenance,
    * ``hindex.cache_get`` / ``hindex.cache_put`` — root-side result
      cache for repeated queries,
    * ``hindex.cache_invalidate`` — coherence sweep after a write (or a
      table handoff) below cached queries; see ``docs/protocol.md`` §16.

    The shard holds **one** query cache with the full per-physical-node
    budget, keyed ``(namespace, logical, query)`` — so a node playing
    many logical hypercube nodes shares one α-budget across them instead
    of multiplying it per hosted table.  Per-namespace *coherence
    epochs* guard cache fills: every write sweep (local or received)
    bumps the namespace's epoch, and a ``cache_put`` carrying an older
    epoch is rejected — it was computed from scans that predate a write.
    """

    prefix = "hindex"

    def __init__(
        self,
        cache_factory=None,
        cache_capacity: int = 0,
        store: StoreBackend | None = None,
    ):
        # Durable backend: every table mutation is recorded through it,
        # and whatever state it recovered becomes the boot tables.  The
        # default MemoryStore records nothing and recovers nothing.
        self.store: StoreBackend = store if store is not None else MemoryStore()
        recovered = self.store.recover()
        self.tables: dict[TableKey, dict[frozenset[str], set[str]]] = {
            key: {keywords: set(objects) for keywords, objects in table.items()}
            for key, table in recovered.tables.items()
        }
        self.store.bind(tables=lambda: self.tables)
        # One query cache per *physical* node, shared by every logical
        # node (and namespace) this shard plays: keys are
        # (namespace, logical, query).  The capacity is the node's whole
        # budget — hosting many logical nodes does not multiply it.
        self.cache_factory = cache_factory if cache_factory is not None else FifoQueryCache
        self.cache_capacity = cache_capacity
        self.cache: QueryCache = self.cache_factory(cache_capacity)
        # Per-namespace coherence epoch: bumped by every invalidation
        # sweep; stale cache fills (computed before the bump) carry the
        # old epoch and are rejected.
        self.cache_epochs: dict[str, int] = {}
        # Scans iterate entries in sorted order; the order is cached per
        # table and invalidated on mutation (scans vastly outnumber
        # mutations in the query experiments).
        self._scan_order: dict[TableKey, list[frozenset[str]]] = {}
        # Scans and cache requests run on the transport's event loop,
        # writes on handler threads, local calls on the caller's thread.
        # The lock makes a table mutation plus its scan-order reset
        # atomic against a scan (no scan keeps an order sorted before a
        # write), and a fill's epoch check plus install atomic against
        # an invalidation sweep.  Held for in-memory work only, never
        # across store I/O or an RPC.
        self._lock = threading.Lock()

    # -- query cache -------------------------------------------------------

    def cache_epoch(self, namespace: str) -> int:
        return self.cache_epochs.get(namespace, 0)

    def reset_cache(self, cache_capacity: int | None = None, cache_factory=None) -> None:
        """Replace the cache (dropping every entry), optionally with a
        new capacity or policy.  Epochs are kept — a reset is not a
        coherence event, but fills in flight must still be judged
        against the same epoch line."""
        if cache_capacity is not None:
            self.cache_capacity = cache_capacity
        if cache_factory is not None:
            self.cache_factory = cache_factory
        metrics = self.cache.metrics
        if metrics is not None:
            metrics.increment("cache.used", -self.cache.used)
        self.cache = self.cache_factory(self.cache_capacity)
        self.cache.metrics = metrics

    def cache_get(
        self, namespace: str, logical: int, query: frozenset[str], threshold: int | None
    ) -> CachedResult | None:
        return self.cache.get((namespace, logical, query), threshold)

    def cache_put(
        self,
        namespace: str,
        logical: int,
        query: frozenset[str],
        results: tuple,
        *,
        complete: bool,
        epoch: int | None = None,
        speculative: bool = False,
    ) -> bool:
        """Install one entry; a fill whose ``epoch`` predates the current
        coherence epoch is rejected (its scans may have read pre-write
        tables, and the invalidation that bumped the epoch cannot reach
        an entry that does not exist yet).  ``speculative`` marks
        cooperative path fills, which are admission-controlled so they
        never displace demand entries (see
        :meth:`repro.core.cache.QueryCache.put`)."""
        with self._lock:
            if epoch is not None and epoch != self.cache_epoch(namespace):
                return False
            return self.cache.put(
                (namespace, logical, query),
                results,
                complete=complete,
                speculative=speculative,
            )

    def invalidate_queries(
        self,
        namespace: str,
        *,
        keywords: frozenset[str] | None = None,
        object_id: str | None = None,
        op: str = "insert",
        logical: int | None = None,
    ) -> int:
        """The receiver side of ``hindex.cache_invalidate``.

        Fine-grained form (``keywords`` given): a write touched table
        ⟨keywords⟩, so every cached query K ⊆ keywords may cover it.  On
        ``remove``, complete entries are *patched* — the object filtered
        out in place, which preserves fresh-walk result order — and
        partial entries dropped (their prefix may shift); on ``insert``
        every affected entry is dropped (the new object's position in a
        fresh walk is unknowable here).

        Coarse form (``logical`` given): a whole table moved hosts
        (churn handoff / repair), so every cached query rooted at a
        bit-subset of ``logical`` is dropped — mid-handoff walks may
        have scanned an empty table.

        Either form bumps the namespace's coherence epoch, even when no
        entry matched: in-flight fills may carry pre-write scans for
        entries not installed yet.  Returns entries invalidated.
        """
        if keywords is not None:
            def affected(key) -> bool:
                key_namespace, _, key_query = key
                return key_namespace == namespace and key_query <= keywords
        else:
            if logical is None:
                raise ValueError("invalidate_queries needs keywords or logical")
            def affected(key) -> bool:
                key_namespace, key_logical, _ = key
                return key_namespace == namespace and (key_logical & logical) == key_logical
        count = 0
        with self._lock:
            for key in self.cache.matching_keys(affected):
                entry = self.cache.peek(key)
                if (
                    op == "remove"
                    and entry is not None
                    and entry.complete
                    and object_id is not None
                ):
                    patched = tuple(
                        (cached_id, cached_keywords)
                        for cached_id, cached_keywords in entry.results
                        if cached_id != object_id
                    )
                    if len(patched) < len(entry.results):
                        self.cache.replace(key, CachedResult(patched, True))
                        count += 1
                    # A complete entry not holding the object needs
                    # nothing: the removed object never matched this query.
                    continue
                if self.cache.drop(key):
                    count += 1
            self.cache_epochs[namespace] = self.cache_epoch(namespace) + 1
        return count

    def cache_stats(self) -> tuple[int, int]:
        """(hits, misses) of this shard's cache."""
        return self.cache.hits, self.cache.misses

    # -- local operations (also the handler bodies) -----------------------

    def put(self, key: TableKey, keywords: frozenset[str], object_id: str) -> None:
        with self._lock:
            table = self.tables.setdefault(key, {})
            table.setdefault(keywords, set()).add(object_id)
            self._scan_order.pop(key, None)
        self.store.record_put(key[0], key[1], keywords, object_id)
        self.store.maybe_compact()

    def remove(self, key: TableKey, keywords: frozenset[str], object_id: str) -> bool:
        with self._lock:
            table = self.tables.get(key)
            if table is None or keywords not in table:
                return False
            objects = table[keywords]
            objects.discard(object_id)
            if not objects:
                del table[keywords]
                if not table:
                    del self.tables[key]
            self._scan_order.pop(key, None)
        self.store.record_remove(key[0], key[1], keywords, object_id)
        self.store.maybe_compact()
        return True

    def pin(self, key: TableKey, keywords: frozenset[str]) -> tuple[str, ...]:
        table = self.tables.get(key, {})
        return tuple(sorted(table.get(keywords, ())))

    def scan(
        self, key: TableKey, keywords: frozenset[str], limit: int | None
    ) -> tuple[PostingList, bool]:
        """Entries at ``key`` whose keyword set contains ``keywords``,
        smallest/lexicographically-first keyword sets first, truncated to
        ``limit`` object ids.  Returns (matches, truncated).

        The matches come back as a
        :class:`~repro.net.codec.PostingList` — a plain list to every
        in-process consumer, but the wire layer recognizes the type and
        ships a scan reply in the binary codec's flat posting-set form
        (one pass over the strings, no per-element type bytes).
        """
        matches: PostingList = PostingList()
        budget = limit
        truncated = False
        with self._lock:
            table = self.tables.get(key)
            if table is None:
                return matches, False
            order = self._scan_order.get(key)
            if order is None:
                order = sorted(table, key=lambda k: (len(k), tuple(sorted(k))))
                self._scan_order[key] = order
            for entry_keywords in order:
                if not keywords <= entry_keywords:
                    continue
                ordered = tuple(sorted(table[entry_keywords]))
                if budget is not None:
                    if budget <= 0:
                        truncated = True
                        break
                    if len(ordered) > budget:
                        ordered = ordered[:budget]
                        truncated = True
                    budget -= len(ordered)
                matches.append((entry_keywords, ordered))
        return matches, truncated

    # -- churn handoff ------------------------------------------------------

    def snapshot_records(self, key: TableKey) -> list[tuple[list[str], list[str]]]:
        """One table's entries as deterministic ``(keywords, ids)``
        rows — the stream churn handoff ships and snapshots fold (same
        order as :func:`repro.store.wal.entry_records`)."""
        with self._lock:
            table = self.tables.get(key, {})
            return [
                (sorted(keywords), sorted(table[keywords]))
                for keywords in sorted(table, key=lambda k: (len(k), tuple(sorted(k))))
            ]

    def drop_table(self, key: TableKey) -> None:
        """Forget one table (it was handed off); the drop is durable, so
        a restarted node does not resurrect entries it gave away."""
        with self._lock:
            if self.tables.pop(key, None) is None:
                return
            self._scan_order.pop(key, None)
        self.store.record_drop(key[0], key[1])
        self.store.maybe_compact()

    # -- introspection ------------------------------------------------------

    def entries(self, key: TableKey) -> list[IndexEntry]:
        table = self.tables.get(key, {})
        return [
            IndexEntry(keywords, frozenset(objects))
            for keywords, objects in sorted(table.items(), key=_entry_sort_key)
        ]

    def load(self, key: TableKey | None = None, *, namespace: str | None = None) -> int:
        """Object references stored — for one table, one namespace, or in
        total."""
        if key is not None:
            return sum(len(objects) for objects in self.tables.get(key, {}).values())
        return sum(
            len(objects)
            for (table_namespace, _), table in self.tables.items()
            if namespace is None or table_namespace == namespace
            for objects in table.values()
        )

    # -- message handling ---------------------------------------------------

    def handle(self, node: DolrNode, message: Message):
        payload = message.payload
        if self.cache.metrics is None:
            # First message wires the node's registry in: cache counters
            # (hits/misses/evictions/invalidations/used) then surface in
            # this node's MetricsSnapshot and /metrics endpoint.
            self.cache.metrics = node.network.metrics
        if message.kind in ("hindex.put", "hindex.remove", "hindex.pin", "hindex.scan"):
            key = (payload["namespace"], payload["logical"])
            keywords = frozenset(payload["keywords"])
            if message.kind == "hindex.put":
                self.put(key, keywords, payload["object_id"])
                return {}
            if message.kind == "hindex.remove":
                return {"removed": self.remove(key, keywords, payload["object_id"])}
            if message.kind == "hindex.pin":
                return {"object_ids": self.pin(key, keywords)}
            epoch = self.cache_epoch(key[0])
            if payload.get("consult"):
                # Cooperative path cache (docs/protocol.md §16): when a
                # complete subtree result for this exact query is cached
                # here and fits the scan limit, answer from it and let
                # the walker skip the whole subtree.
                entry = self.cache.peek((key[0], key[1], keywords))
                limit = payload.get("limit")
                if (
                    entry is not None
                    and entry.complete
                    and (limit is None or len(entry.results) <= limit)
                ):
                    self.cache.get((key[0], key[1], keywords), None)  # count the hit
                    # A fill that actually pruned a walk has earned
                    # demand-tier protection from later fills.
                    self.cache.promote((key[0], key[1], keywords))
                    return {"cache_hit": True, "results": entry.results, "epoch": epoch}
                self.cache.misses += 1
                self.cache._count("cache.misses")
            matches, truncated = self.scan(key, keywords, payload.get("limit"))
            # Payloads stay in-process: entries cross as (frozenset,
            # tuple) pairs without serialization round-trips.  The epoch
            # rides along so the walker can guard its later cache fills.
            return {"matches": matches, "truncated": truncated, "epoch": epoch}
        if message.kind == "hindex.transfer":
            key = (payload["namespace"], payload["logical"])
            for keywords, object_ids in payload["table"]:
                for object_id in object_ids:
                    self.put(key, frozenset(keywords), object_id)
            return {"accepted": sum(len(ids) for _, ids in payload["table"])}
        if message.kind == "hindex.snapshot":
            # Read-only counterpart of hindex.transfer: ship one table's
            # deterministic rows *without* dropping it — the pull side of
            # re-replication after a crash (see repro.membership).
            key = (payload["namespace"], payload["logical"])
            return {"table": self.snapshot_records(key)}
        if message.kind == "hindex.results":
            # Receipt of object IDs a queried node forwarded directly to
            # the requester; the requester-side driver already collected
            # them, so this is accounting-only.
            return {}
        if message.kind == "hindex.cache_get":
            namespace = payload["namespace"]
            entry = self.cache_get(
                namespace,
                payload["logical"],
                frozenset(payload["keywords"]),
                payload.get("threshold"),
            )
            epoch = self.cache_epoch(namespace)
            if entry is None:
                return {"hit": False, "epoch": epoch}
            return {
                "hit": True,
                "complete": entry.complete,
                "results": entry.results,
                "epoch": epoch,
            }
        if message.kind == "hindex.cache_put":
            stored = self.cache_put(
                payload["namespace"],
                payload["logical"],
                frozenset(payload["keywords"]),
                tuple(payload["results"]),
                complete=payload["complete"],
                epoch=payload.get("epoch"),
                speculative=payload.get("speculative", False),
            )
            if not stored and payload.get("epoch") is not None:
                self.cache._count("cache.stale_fills_rejected")
            return {"stored": stored}
        if message.kind == "hindex.cache_invalidate":
            keywords = payload.get("keywords")
            count = self.invalidate_queries(
                payload["namespace"],
                keywords=frozenset(keywords) if keywords is not None else None,
                object_id=payload.get("object_id"),
                op=payload.get("op", "insert"),
                logical=payload.get("logical"),
            )
            return {"invalidated": count, "epoch": self.cache_epoch(payload["namespace"])}
        raise LookupError(f"unknown hindex message kind {message.kind!r}")


class HypercubeIndex:
    """The keyword index over a hypercube mapped onto a DOLR network."""

    def __init__(
        self,
        cube: Hypercube,
        dolr: DolrNetwork,
        *,
        mapper: KeywordSetMapper | None = None,
        mapping: HypercubeMapping | None = None,
        namespace: str = "main",
        cache_capacity: int = 0,
        cache_factory=FifoQueryCache,
        stores: dict[int, StoreBackend] | None = None,
    ):
        """``stores`` maps physical addresses to durable backends; a
        node's shard boots from (and records into) its entry.  Absent
        addresses get the no-op :class:`~repro.store.MemoryStore`."""
        self.cube = cube
        self.dolr = dolr
        self.mapper = mapper if mapper is not None else KeywordSetMapper(cube)
        self.mapping = mapping if mapping is not None else HypercubeMapping(cube, dolr)
        self.namespace = namespace
        self.cache_capacity = cache_capacity
        stores = stores or {}
        dolr.ensure_application(
            lambda node: IndexShard(cache_factory, cache_capacity, store=stores.get(node.address)),
            "hindex",
        )

    # -- shard access -------------------------------------------------------

    def shard_at(self, physical: int) -> IndexShard:
        shard = self.dolr.node(physical).application("hindex")
        assert isinstance(shard, IndexShard)
        return shard

    def shard_for_logical(self, logical: int) -> IndexShard:
        return self.shard_at(self.mapping.physical_owner(logical))

    def table_key(self, logical: int) -> TableKey:
        return (self.namespace, logical)

    # -- the paper's operations ------------------------------------------------

    def insert(
        self, object_id: str, keywords: Iterable[str], holder: int, *, origin: int | None = None
    ) -> bool:
        """Publish a replica of ``object_id`` held at node ``holder``.

        The reference is recorded at L(σ); if this was the first copy,
        the index entry ⟨K_σ, σ⟩ is placed at g(F_h(K_σ)).  Returns True
        when the index entry was created (first copy).
        """
        normalized = normalize_keywords(keywords)
        first_copy = self.dolr.insert(object_id, holder, origin=origin)
        if not first_copy:
            return False
        logical = self.mapper.node_for(normalized)
        reference_owner = self.dolr.local_owner(self.dolr.object_key(object_id))
        self.dolr.route_rpc(
            self.mapping.dht_key(logical),
            "hindex.put",
            {
                "namespace": self.namespace,
                "logical": logical,
                "keywords": sorted(normalized),
                "object_id": object_id,
            },
            origin=reference_owner,
        )
        self.invalidate_caches(normalized, object_id, "insert", origin=reference_owner)
        return True

    def delete(
        self, object_id: str, keywords: Iterable[str], holder: int, *, origin: int | None = None
    ) -> bool:
        """Withdraw a replica; the index entry is removed with the last
        copy.  Returns True when the index entry was removed."""
        normalized = normalize_keywords(keywords)
        last_copy = self.dolr.delete(object_id, holder, origin=origin)
        if not last_copy:
            return False
        logical = self.mapper.node_for(normalized)
        reference_owner = self.dolr.local_owner(self.dolr.object_key(object_id))
        self.dolr.route_rpc(
            self.mapping.dht_key(logical),
            "hindex.remove",
            {
                "namespace": self.namespace,
                "logical": logical,
                "keywords": sorted(normalized),
                "object_id": object_id,
            },
            origin=reference_owner,
        )
        self.invalidate_caches(normalized, object_id, "remove", origin=reference_owner)
        return True

    # -- cache coherence ---------------------------------------------------

    def coherence_targets(self, logical: int, *, without: int | None = None) -> list[int]:
        """Physical hosts that may cache a query covering table
        ``logical``.

        A cached entry for query K at logical node w can cover ⟨K_σ⟩ at
        ``u = F_h(K_σ)`` only when ``w ⊆ u`` bitwise (the root of K's
        walk, or an interior node of it, is always a bit-subset of every
        table the walk reads).  The candidates are therefore the
        ``2**popcount(u) - 1`` nonzero bit-subsets of ``u`` — small,
        since ``popcount(u) <= |K_σ|`` — deduplicated to physical
        owners; when the subset lattice outnumbers the live cluster, one
        message per live host is cheaper and equally exact.  ``without``
        answers as if that node had already left.
        """
        bits = [i for i in range(self.cube.dimension) if (logical >> i) & 1]
        live = [address for address in self.dolr.live_addresses() if address != without]
        if (1 << len(bits)) - 1 >= len(live):
            return live
        owners: set[int] = set()
        for mask in range(1, 1 << len(bits)):
            subset = 0
            for j, bit in enumerate(bits):
                if (mask >> j) & 1:
                    subset |= 1 << bit
            owners.add(self.mapping.physical_owner(subset, without=without))
        return sorted(owners)

    def _send_invalidations(
        self, payload: dict, logical: int, origin: int, *, without: int | None = None
    ) -> int:
        """Fan one ``hindex.cache_invalidate`` to every coherence target
        of ``logical`` in a single batch; unreachable targets are
        skipped (a crashed node's cache dies with it).  Returns entries
        invalidated cluster-wide."""
        targets = self.coherence_targets(logical, without=without)
        calls = [
            RpcCall(origin, target, "hindex.cache_invalidate", payload) for target in targets
        ]
        outcomes = self.dolr.channel.rpc_many(calls)
        invalidated = sum(
            outcome.value["invalidated"] for outcome in outcomes if outcome.ok
        )
        self.dolr.network.metrics.increment("cache.invalidate_rpcs", len(calls))
        recorder = active_recorder()
        if recorder is not None:
            recorder.emit(
                "cache_invalidate",
                namespace=payload["namespace"],
                op=payload["op"],
                logical=logical,
                targets=len(targets),
                invalidated=invalidated,
            )
        return invalidated

    def invalidate_caches(
        self, keywords: frozenset[str], object_id: str, op: str, *, origin: int
    ) -> int:
        """Write-path coherence: after a put/remove of ⟨keywords⟩, sweep
        every cache that could hold a query covering that table.  A
        no-op while caching is off (``cache_capacity == 0``) so the
        cacheless experiments keep their exact message counts."""
        if self.cache_capacity <= 0:
            return 0
        logical = self.mapper.node_for(keywords)
        payload = {
            "namespace": self.namespace,
            "op": op,
            "keywords": sorted(keywords),
            "object_id": object_id,
        }
        return self._send_invalidations(payload, logical, origin)

    def invalidate_coverage(
        self, logical: int, *, origin: int, without: int | None = None
    ) -> int:
        """Churn-path coherence: a whole table changed hosts (handoff or
        replica repair), so drop every cached query rooted at a
        bit-subset of ``logical`` — a walk that raced the move may have
        scanned an empty table and cached the miss as authoritative.
        ``without`` picks the hosts as if that node had already left."""
        if self.cache_capacity <= 0:
            return 0
        payload = {"namespace": self.namespace, "op": "table", "logical": logical}
        return self._send_invalidations(payload, logical, origin, without=without)

    def pin_search(self, keywords: Iterable[str], *, origin: int | None = None) -> PinResult:
        """Exact-keyword-set search: one routed message to F_h(K)."""
        normalized = normalize_keywords(keywords)
        logical = self.mapper.node_for(normalized)
        result, route = self.dolr.route_rpc(
            self.mapping.dht_key(logical),
            "hindex.pin",
            {
                "namespace": self.namespace,
                "logical": logical,
                "keywords": sorted(normalized),
            },
            origin=origin,
        )
        return PinResult(
            keywords=normalized,
            object_ids=tuple(result["object_ids"]),
            logical_node=logical,
            physical_node=route.owner,
            dht_hops=route.hops,
        )

    # -- churn maintenance -------------------------------------------------

    def rebalance(self) -> int:
        """Move misplaced index tables to their current owners.

        After nodes *join*, keys change owners but data does not move by
        itself (the DHT layer stores what it is given).  This sweep
        transfers every table of this namespace hosted on the wrong node
        to the right one, one ``hindex.transfer`` message per (logical
        node, destination).  Returns the number of object references
        moved.
        """
        moved = 0
        for address in list(self.dolr.addresses()):
            moved += self._push_misplaced_tables(address)
        return moved

    def evacuate(self, leaving: int) -> int:
        """Hand off a departing node's tables before a graceful leave.

        Owners are computed *as if* ``leaving`` were already gone, so
        the data lands exactly where post-departure lookups will go.
        Call this, then ``dolr.leave(leaving)``.  Returns the number of
        object references moved.
        """
        if leaving not in self.dolr.nodes:
            raise ValueError(f"unknown node {leaving}")
        return self._push_misplaced_tables(leaving, without=leaving)

    def _push_misplaced_tables(self, address: int, *, without: int | None = None) -> int:
        """Move this namespace's tables hosted at ``address`` but owned
        elsewhere — owned as if ``without`` had left, when given."""
        shard = self.shard_at(address)
        moved = 0
        for key in [k for k in shard.tables if k[0] == self.namespace]:
            _, logical = key
            owner = self.mapping.physical_owner(logical, without=without)
            if owner == address:
                continue
            # Stream the table as snapshot records, then drop it — the
            # receiving shard's puts and this drop both hit the stores,
            # so the handoff is durable on both ends and a restarted
            # sender does not resurrect what it gave away.
            payload_table = shard.snapshot_records(key)
            self.dolr.channel.rpc(
                address,
                owner,
                "hindex.transfer",
                {"namespace": self.namespace, "logical": logical, "table": payload_table},
            )
            shard.drop_table(key)
            # The table just changed hosts: queries that raced the move
            # may have cached scans of the receiver's then-empty table.
            self.invalidate_coverage(logical, origin=address, without=without)
            moved += sum(len(ids) for _, ids in payload_table)
        return moved

    # -- bulk/introspection helpers for experiments ---------------------------

    def reset_caches(self, cache_capacity: int | None = None, cache_factory=None) -> None:
        """Drop every node's query cache (optionally re-configuring the
        per-physical-node capacity/policy) — lets experiments sweep
        cache parameters without rebuilding the index."""
        if cache_capacity is not None:
            self.cache_capacity = cache_capacity
        for address in self.dolr.addresses():
            self.shard_at(address).reset_cache(cache_capacity, cache_factory)

    def apportion_cache_capacity(
        self,
        total_budget: int,
        *,
        sizing: CacheSizing = CacheSizing.SQRT_LOAD,
        cache_factory=None,
    ) -> dict[int, int]:
        """Split one cluster-wide cache budget across physical nodes per
        the Sarshar & Roychowdhury optimum-size rule (see
        :func:`repro.core.cache.optimum_capacities`), weighting each
        node by the object references it currently indexes.  Resets
        every shard's cache to its allocation and returns the
        ``address -> capacity`` map."""
        loads = self.load_by_physical_node()
        addresses = sorted(loads)
        capacities = optimum_capacities(
            total_budget, [loads[address] for address in addresses], sizing=sizing
        )
        allocation = dict(zip(addresses, capacities))
        for address, capacity in allocation.items():
            self.shard_at(address).reset_cache(capacity, cache_factory)
        self.cache_capacity = max(capacities, default=0)
        return allocation

    def cache_stats(self) -> tuple[int, int]:
        """(hits, misses) aggregated over all shards."""
        hits = misses = 0
        for address in self.dolr.addresses():
            shard_hits, shard_misses = self.shard_at(address).cache_stats()
            hits += shard_hits
            misses += shard_misses
        return hits, misses

    def bulk_load(self, items: Iterable[tuple[str, Iterable[str]]]) -> int:
        """Load index entries directly into shards, bypassing the
        network protocol.

        An out-of-band bootstrap for experiments that study *query*
        behaviour over a large pre-built index: placement is identical
        to :meth:`insert` (same ``F_h`` and ``g``), only the per-object
        routed messages are skipped.  Returns the number of entries
        loaded.  Replica references are *not* registered.
        """
        placement = self.mapping.placement()
        shards = {address: self.shard_at(address) for address in self.dolr.addresses()}
        count = 0
        for object_id, keywords in items:
            normalized = normalize_keywords(keywords)
            logical = self.mapper.node_for(normalized)
            shards[placement[logical]].put(self.table_key(logical), normalized, object_id)
            count += 1
        return count

    def load_by_logical_node(self) -> dict[int, int]:
        """Object references indexed per logical node of this namespace
        (zero-load nodes included).  O(2**r) — experiment scale only."""
        loads = dict.fromkeys(self.cube.nodes(), 0)
        for address in self.dolr.addresses():
            node = self.dolr.node(address)
            if not node.has_application("hindex"):
                continue
            shard = node.application("hindex")
            assert isinstance(shard, IndexShard)
            for (namespace, logical), table in shard.tables.items():
                if namespace == self.namespace:
                    loads[logical] += sum(len(objects) for objects in table.values())
        return loads

    def load_by_physical_node(self) -> dict[int, int]:
        """Object references of this namespace indexed per physical node."""
        loads = dict.fromkeys(self.dolr.addresses(), 0)
        for address in self.dolr.addresses():
            node = self.dolr.node(address)
            if node.has_application("hindex"):
                shard = node.application("hindex")
                assert isinstance(shard, IndexShard)
                loads[address] = shard.load(namespace=self.namespace)
        return loads

    def total_indexed(self) -> int:
        return sum(self.load_by_physical_node().values())
