"""High-level façade: the keyword/attribute search layer of Figure 2.

:class:`KeywordSearchService` wires the four-layer architecture the
paper draws — application / keyword-search layer / P2P overlay /
physical network — into one object: describe the stack with a
:class:`~repro.core.config.ServiceConfig` (which DHT, hypercube
dimension, caching, resilience policy) and publish / search objects
through a small, stable API.  Examples and downstream applications
should only need this module.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.cache import FifoQueryCache, LruQueryCache
from repro.core.config import CachePolicy, ContactMode, DhtKind, SearchOptions, ServiceConfig
from repro.core.cumulative import CumulativeSearchSession
from repro.core.index import HypercubeIndex, PinResult
from repro.core.keywords import normalize_keywords
from repro.core.replication import ReplicatedHypercubeIndex, ReplicatedSuperSetSearch
from repro.core.search import (
    PrefixSearch,
    PrefixSearchResult,
    SearchResult,
    SuperSetSearch,
    TraversalOrder,
)
from repro.dht.chord import ChordNetwork
from repro.dht.dolr import DolrNetwork
from repro.dht.kademlia import KademliaNetwork
from repro.dht.pastry import PastryNetwork
from repro.hypercube.hypercube import Hypercube
from repro.net.qos import qos_scope
from repro.net.transport import Transport
from repro.prefix.directory import KeywordDirectory
from repro.store.backend import StoreBackend
from repro.util.rng import make_rng, spawn_rng

__all__ = ["KeywordSearchService", "PublishedObject"]

_DHT_BUILDERS = {
    DhtKind.CHORD: ChordNetwork.build,
    DhtKind.KADEMLIA: KademliaNetwork.build,
    DhtKind.PASTRY: PastryNetwork.build,
}

_CACHE_FACTORIES = {
    CachePolicy.FIFO: FifoQueryCache,
    CachePolicy.LRU: LruQueryCache,
}


def _as_prefix(query) -> str:
    """Accept a prefix query as a bare string or a one-element iterable
    (the shape ``Client.search`` naturally passes through)."""
    if isinstance(query, str):
        return query
    items = list(query)
    if len(items) != 1 or not isinstance(items[0], str):
        raise ValueError(
            f"a prefix query takes exactly one prefix string, got {items!r}"
        )
    return items[0]


@dataclass(frozen=True)
class PublishedObject:
    """Record of one published object, as the service tracks it."""

    object_id: str
    keywords: frozenset[str]
    holder: int


class KeywordSearchService:
    """The keyword/attribute search layer, end to end.

    >>> from repro.core.config import ServiceConfig
    >>> service = KeywordSearchService.create(
    ...     ServiceConfig(dimension=6, num_dht_nodes=16, seed=3)
    ... )
    >>> record = service.publish("paper.pdf", {"dht", "search", "p2p"})
    >>> service.pin_search({"dht", "search", "p2p"}).results()
    ('paper.pdf',)
    >>> service.superset_search({"dht"}).results()
    ('paper.pdf',)
    """

    def __init__(
        self,
        index: HypercubeIndex,
        *,
        contact_mode: ContactMode | str = ContactMode.DIRECT,
        config: ServiceConfig | None = None,
        replicated: ReplicatedHypercubeIndex | None = None,
    ):
        self.index = index
        self.dolr = index.dolr
        self.config = config
        # k-way replication (config.index_replicas > 1): writes fan out
        # to every replica and the searcher fails over per logical node.
        # None for the classic single-index stack.
        self.replicated = replicated
        # address -> durable backend; empty unless built with a
        # store_factory (see create()).
        self.stores: dict[int, StoreBackend] = {}
        contact_mode = ContactMode(contact_mode) if isinstance(contact_mode, str) else contact_mode
        cooperative = config.cooperative_cache if config is not None else False
        if replicated is not None:
            self.searcher: SuperSetSearch = ReplicatedSuperSetSearch(
                replicated, contact_mode=contact_mode.value, cooperative=cooperative
            )
        else:
            self.searcher = SuperSetSearch(
                index, contact_mode=contact_mode.value, cooperative=cooperative
            )
        self._published: dict[tuple[str, int], PublishedObject] = {}
        # The distributed keyword directory (repro.prefix), when the
        # config asked for one; attach_directory() wires it and the
        # prefix planner in.
        self.directory = None
        self.prefix_searcher: PrefixSearch | None = None

    def attach_directory(self, directory) -> None:
        """Wire a :class:`~repro.prefix.directory.KeywordDirectory` in:
        publishes/unpublishes maintain it and prefix queries run over
        it."""
        self.directory = directory
        self.prefix_searcher = PrefixSearch(directory)

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        config: ServiceConfig,
        *,
        network: Transport | None = None,
        store_factory=None,
    ) -> "KeywordSearchService":
        """Build the full stack: network transport, DHT, hypercube index.

        ``config`` is a :class:`~repro.core.config.ServiceConfig`.
        ``network`` injects a shared
        :class:`~repro.net.transport.Transport` — a
        :class:`~repro.sim.network.SimulatedNetwork` so several stacks
        can coexist on one medium, or an
        :class:`~repro.net.aio.AsyncioTransport` to run the same stack
        over real TCP sockets.

        ``store_factory(address)`` returns the durable
        :class:`~repro.store.backend.StoreBackend` for one node (e.g. a
        :class:`~repro.store.FileStore` under ``--data-dir``); each
        node's reference table and index shard then boot from recovered
        state and record every mutation.  None (the default) keeps all
        state in memory.
        """
        rng = make_rng(config.seed)
        dolr: DolrNetwork = _DHT_BUILDERS[config.dht](
            bits=config.dht_bits, num_nodes=config.num_dht_nodes, seed=rng, network=network
        )
        if config.resilience is not None or config.breaker is not None:
            dolr.configure_resilience(
                config.resilience,
                breaker=config.breaker,
                rng=spawn_rng(rng, "resilience"),
            )
        stores: dict[int, StoreBackend] = {}
        if store_factory is not None:
            # One backend per node, shared by the node's reference table
            # and its index shard (attach first so recovery happens once,
            # against the same instance the shard factory receives).
            for address in dolr.addresses():
                store = store_factory(address)
                if getattr(store, "metrics", None) is None:
                    store.metrics = dolr.network.metrics
                dolr.node(address).attach_store(store)
                stores[address] = store
        if config.index_replicas > 1:
            replicated = ReplicatedHypercubeIndex(
                Hypercube(config.dimension),
                dolr,
                replicas=config.index_replicas,
                cache_capacity=config.cache_capacity,
                cache_factory=_CACHE_FACTORIES[config.cache_policy],
                stores=stores,
            )
            service = cls(
                replicated.primary,
                contact_mode=config.contact_mode,
                config=config,
                replicated=replicated,
            )
            service.stores = stores
            return cls._finish_create(service)
        index = HypercubeIndex(
            Hypercube(config.dimension),
            dolr,
            cache_capacity=config.cache_capacity,
            cache_factory=_CACHE_FACTORIES[config.cache_policy],
            stores=stores,
        )
        service = cls(index, contact_mode=config.contact_mode, config=config)
        service.stores = stores
        return cls._finish_create(service)

    @classmethod
    def _finish_create(cls, service: "KeywordSearchService") -> "KeywordSearchService":
        config = service.config
        if config is not None and config.prefix_directory:
            service.attach_directory(
                KeywordDirectory(service.dolr, replicas=config.index_replicas)
            )
        return service

    # -- publishing -------------------------------------------------------

    def publish(
        self, object_id: str, keywords: Iterable[str], *, holder: int | None = None
    ) -> PublishedObject:
        """Share an object: register the replica and index its keyword set."""
        normalized = normalize_keywords(keywords)
        holder = self.dolr.any_address() if holder is None else holder
        existing = self._published.get((object_id, holder))
        if existing is not None:
            raise ValueError(f"{object_id!r} already published by node {holder}")
        if self.replicated is not None:
            first_copy = self.replicated.insert(object_id, normalized, holder) > 0
        else:
            first_copy = self.index.insert(object_id, normalized, holder)
        if first_copy and self.directory is not None:
            # Directory coherence rides the write path: the *first* copy
            # of an object registers its keywords (per-object records,
            # so later copies and repair re-pushes are idempotent).
            for keyword in sorted(normalized):
                self.directory.add_keyword(keyword, object_id, normalized, origin=holder)
        record = PublishedObject(object_id, normalized, holder)
        self._published[(object_id, holder)] = record
        return record

    def unpublish(self, object_id: str, *, holder: int) -> None:
        """Withdraw one replica of an object."""
        record = self._published.pop((object_id, holder), None)
        if record is None:
            raise KeyError(f"{object_id!r} was not published by node {holder}")
        if self.replicated is not None:
            last_copy = self.replicated.delete(object_id, record.keywords, holder) > 0
        else:
            last_copy = self.index.delete(object_id, record.keywords, holder)
        if last_copy and self.directory is not None:
            for keyword in sorted(record.keywords):
                self.directory.remove_keyword(
                    keyword, object_id, record.keywords, origin=holder
                )

    def published_count(self) -> int:
        return len(self._published)

    # -- search ------------------------------------------------------------

    def pin_search(self, keywords: Iterable[str], *, origin: int | None = None) -> PinResult:
        """Objects whose keyword set is *exactly* K (Section 2.2)."""
        if self.replicated is not None:
            return self.replicated.pin_search(keywords, origin=origin)
        return self.index.pin_search(keywords, origin=origin)

    def superset_search(
        self,
        keywords: Iterable[str],
        threshold: int | None = None,
        *,
        origin: int | None = None,
        order: TraversalOrder = TraversalOrder.TOP_DOWN,
        use_cache: bool | None = None,
        trace: bool = False,
        options: SearchOptions | None = None,
    ) -> SearchResult:
        """min(t, |O_K|) objects describable by K (Section 2.2).

        Per-query knobs may be given individually or bundled in a
        :class:`~repro.core.config.SearchOptions` (which wins when both
        are supplied).  ``options.deadline`` / ``options.priority``
        establish the query's ambient QoS scope (see
        :mod:`repro.net.qos`): the deadline bounds every retry budget
        along the walk and the priority rides on every request frame.
        """
        priority = 0
        deadline: float | None = None
        if options is not None:
            threshold = options.threshold
            origin = options.origin
            order = options.order
            use_cache = options.use_cache
            trace = options.trace
            priority = options.priority
            deadline = options.deadline
        if use_cache is None:
            use_cache = self.index.cache_capacity > 0
        if priority == 0 and deadline is None:
            # No QoS requested: skip the scope entirely, so the default
            # path stays byte-identical to pre-QoS behaviour.
            return self.searcher.run(
                keywords, threshold, origin=origin, order=order, use_cache=use_cache, trace=trace
            )
        deadline_at = None if deadline is None else self.network.now() + deadline
        with qos_scope(priority=priority, deadline_at=deadline_at):
            return self.searcher.run(
                keywords, threshold, origin=origin, order=order, use_cache=use_cache, trace=trace
            )

    def prefix_search(
        self,
        prefix: str,
        threshold: int | None = None,
        *,
        origin: int | None = None,
        order: TraversalOrder = TraversalOrder.TOP_DOWN,
        trace: bool = False,
        max_expansions: int | None = None,
        options: SearchOptions | None = None,
    ) -> PrefixSearchResult:
        """Objects carrying any keyword that extends ``prefix``
        (docs/protocol.md §17).

        Needs ``ServiceConfig(prefix_directory=True)``.  Knobs mirror
        :meth:`superset_search`; ``options`` wins when supplied, and its
        ``deadline``/``priority`` establish the QoS scope of the
        directory resolution.  ``options.use_cache`` does not apply: the
        answer comes from directory rows, never from the index or its
        query caches.
        """
        if self.prefix_searcher is None:
            raise RuntimeError(
                "prefix search requires a keyword directory — build the service "
                "with ServiceConfig(prefix_directory=True)"
            )
        priority = 0
        deadline: float | None = None
        if options is not None:
            threshold = options.threshold
            origin = options.origin
            order = options.order
            trace = options.trace
            priority = options.priority
            deadline = options.deadline
            max_expansions = options.max_expansions
        if priority == 0 and deadline is None:
            return self.prefix_searcher.run(
                prefix,
                threshold,
                origin=origin,
                order=order,
                trace=trace,
                max_expansions=max_expansions,
            )
        deadline_at = None if deadline is None else self.network.now() + deadline
        with qos_scope(priority=priority, deadline_at=deadline_at):
            return self.prefix_searcher.run(
                prefix,
                threshold,
                origin=origin,
                order=order,
                trace=trace,
                max_expansions=max_expansions,
            )

    def search(
        self, keywords: Iterable[str], options: SearchOptions | None = None
    ) -> SearchResult | PrefixSearchResult:
        """The options-object form of :meth:`superset_search` — or, with
        ``options.prefix`` set, of :meth:`prefix_search` (``keywords``
        is then a prefix string, or an iterable holding exactly one)."""
        options = options or SearchOptions()
        if options.prefix:
            return self.prefix_search(_as_prefix(keywords), options=options)
        return self.superset_search(keywords, options=options)

    def client(self):
        """This service behind the unified :class:`~repro.client.Client`
        API (borrowing: closing the client does not close the service)."""
        from repro.client import ServiceClient

        return ServiceClient(self)

    def cumulative_search(
        self, keywords: Iterable[str], *, origin: int | None = None
    ) -> CumulativeSearchSession:
        """A browse-style session over a large matching set."""
        return CumulativeSearchSession(self.index, keywords, origin=origin)

    def read(self, object_id: str, *, origin: int | None = None) -> list[int]:
        """The DOLR Read: replica holders of an object."""
        return self.dolr.read(object_id, origin=origin)

    # -- introspection -------------------------------------------------------

    @property
    def cube(self) -> Hypercube:
        return self.index.cube

    @property
    def indexes(self) -> list[HypercubeIndex]:
        """Every index this service maintains: the replicas when
        replication is on, else just the one index.  The membership
        layer iterates this to rebalance/evacuate/repair all of them."""
        if self.replicated is not None:
            return list(self.replicated.indexes)
        return [self.index]

    @property
    def network(self) -> Transport:
        return self.dolr.network

    def messages_sent(self) -> int:
        return self.network.metrics.counter("network.messages")

    def resilience_metrics(self) -> dict[str, int]:
        """The retry/deadline/breaker counters accumulated so far."""
        return {
            name: value
            for name, value in sorted(self.network.metrics.counters().items())
            if name.startswith(("rpc.", "breaker.", "search.degraded", "search.surrogate"))
        }

    def metrics_snapshot(self):
        """A point-in-time :class:`~repro.obs.export.MetricsSnapshot` of
        every counter and sample series (diff two with ``.delta()``)."""
        return self.network.metrics.snapshot()

    def apportion_cache_capacity(self, total_budget: int) -> dict[int, int]:
        """Re-split one cluster-wide cache budget across physical nodes
        per the config's ``cache_sizing`` rule (see
        :meth:`~repro.core.index.HypercubeIndex.apportion_cache_capacity`).
        Call after loading content so the ``SQRT_LOAD`` rule sees real
        per-node demand.  Returns the per-address capacities applied."""
        sizing = self.config.cache_sizing if self.config is not None else None
        capacities: dict[int, int] = {}
        for index in self.indexes:
            kwargs = {} if sizing is None else {"sizing": sizing}
            capacities = index.apportion_cache_capacity(total_budget, **kwargs)
        return capacities

    # -- durability ----------------------------------------------------------

    def flush_stores(self) -> None:
        """Fsync every node's WAL (a no-op for in-memory backends)."""
        for store in self.stores.values():
            store.flush()

    def close_stores(self) -> None:
        """Graceful-shutdown flush + close of every durable backend."""
        for store in self.stores.values():
            store.close()
