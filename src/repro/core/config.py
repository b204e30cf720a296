"""Typed configuration for the service façade.

:class:`ServiceConfig` replaces the stringly-typed knobs
``KeywordSearchService.create`` grew over time (``dht="chord"``,
``cache_policy="fifo"``, ``contact_mode="direct"``) with enums and
dataclasses that fail at construction time instead of deep inside the
stack, and that carry the resilience policy (retries, deadlines,
circuit breaking) alongside the topology knobs.  :class:`SearchOptions`
does the same for per-query parameters.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace

from repro.core.cache import CacheSizing
from repro.core.search import TraversalOrder
from repro.net.codec import codec_by_name
from repro.sim.resilience import BreakerPolicy, RetryPolicy

__all__ = [
    "CachePolicy",
    "CacheSizing",
    "ContactMode",
    "DhtKind",
    "SearchOptions",
    "ServiceConfig",
]


class DhtKind(enum.Enum):
    """Which DHT implements the paper's generalized DOLR layer."""

    CHORD = "chord"
    KADEMLIA = "kademlia"
    PASTRY = "pastry"


class CachePolicy(enum.Enum):
    """Eviction policy of the per-logical-node query caches."""

    FIFO = "fifo"
    LRU = "lru"


class ContactMode(enum.Enum):
    """How the search root reaches tree nodes: cached physical contacts
    (one DHT message each, Section 3.4's observation) or a full DHT
    lookup per contact."""

    DIRECT = "direct"
    ROUTED = "routed"


def _coerce(value, kind):
    """Accept an enum member or its string value."""
    return value if isinstance(value, kind) else kind(value)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to build a :class:`KeywordSearchService`.

    ``dimension`` is the hypercube dimension r (Section 3's central
    tuning knob); ``num_dht_nodes`` the physical overlay size;
    ``cache_capacity`` the per-physical-node query cache in entry units,
    shared across the logical tables the node hosts (0 disables
    caching).  ``resilience`` / ``breaker`` configure the
    messaging channel every protocol RPC goes through — when set, a
    superset search degrades past unreachable nodes (reported in
    ``SearchResult.degraded_visits``) instead of raising.

    ``index_replicas`` builds the index ``k``-way replicated through
    Section 3.4's secondary hypercubes (see
    :mod:`repro.core.replication`): writes go to every replica, reads
    fail over per logical node, and the membership layer re-replicates
    a dead node's tables from the surviving replicas.  The default 1
    keeps the single-index stack byte-identical to pre-replication
    behaviour.

    ``prefix_directory`` builds the distributed keyword directory
    (:mod:`repro.prefix`, docs/protocol.md §17) alongside the index:
    every publish/unpublish also maintains a DHT-sharded trie of the
    indexed keywords, and :meth:`KeywordSearchService.prefix_search`
    (or ``SearchOptions(prefix=True)``) becomes available.  The default
    off adds zero messages and keeps every experiment byte-identical.

    ``cooperative_cache`` turns on the SBT-path caching tier
    (docs/protocol.md §16): interior tree nodes cache their subtree's
    complete results and walkers consult them before descending.  Only
    meaningful with ``cache_capacity > 0``; the default off keeps the
    root-only Figure 9 behaviour.  ``cache_sizing`` picks how
    :meth:`~repro.core.index.HypercubeIndex.apportion_cache_capacity`
    splits one cluster-wide budget across nodes — ``UNIFORM`` (the
    equal split, default) or ``SQRT_LOAD`` (the Sarshar & Roychowdhury
    optimum, allocation proportional to √demand).

    ``codec`` is the codec a node writes (docs/protocol.md §18):
    ``"binary"`` (default) writes v2 binary wire frames and v2 WAL
    records; ``"json"`` writes the v1 JSON formats.  Every node reads
    both — a frame or record decodes by its version byte — so mixed
    clusters interoperate and a store reopens under either codec; the
    knob sets bytes and speed, not correctness.
    """

    dimension: int
    num_dht_nodes: int
    dht: DhtKind = DhtKind.CHORD
    dht_bits: int = 32
    seed: int | random.Random | None = 0
    cache_capacity: int = 0
    cache_policy: CachePolicy = CachePolicy.FIFO
    contact_mode: ContactMode = ContactMode.DIRECT
    resilience: RetryPolicy | None = None
    breaker: BreakerPolicy | None = None
    index_replicas: int = 1
    cooperative_cache: bool = False
    cache_sizing: CacheSizing = CacheSizing.UNIFORM
    prefix_directory: bool = False
    codec: str = "binary"

    def __post_init__(self) -> None:
        # Tolerate string forms so configs read naturally from literals,
        # while normalizing eagerly: a constructed config always holds
        # enum members.
        object.__setattr__(self, "dht", _coerce(self.dht, DhtKind))
        object.__setattr__(self, "cache_policy", _coerce(self.cache_policy, CachePolicy))
        object.__setattr__(self, "contact_mode", _coerce(self.contact_mode, ContactMode))
        object.__setattr__(self, "cache_sizing", _coerce(self.cache_sizing, CacheSizing))
        # Normalize via the codec registry so typos fail here, not at
        # the first frame; a constructed config always holds the
        # canonical codec name ("binary" / "json").
        object.__setattr__(self, "codec", codec_by_name(self.codec).name)
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.num_dht_nodes < 1:
            raise ValueError(f"num_dht_nodes must be >= 1, got {self.num_dht_nodes}")
        if self.cache_capacity < 0:
            raise ValueError(f"cache_capacity must be >= 0, got {self.cache_capacity}")
        if self.index_replicas < 1:
            raise ValueError(f"index_replicas must be >= 1, got {self.index_replicas}")

    def with_resilience(
        self, resilience: RetryPolicy, breaker: BreakerPolicy | None = None
    ) -> "ServiceConfig":
        """A copy of this config with a resilience policy installed."""
        return replace(self, resilience=resilience, breaker=breaker)


@dataclass(frozen=True)
class SearchOptions:
    """Per-query knobs of a superset search.

    ``threshold`` is the paper's t (stop after min(t, |O_K|) objects);
    ``origin`` the requesting node (any live node when None); ``order``
    the tree-traversal strategy; ``use_cache`` overrides the service
    default (cache on iff a cache capacity was configured); ``trace``
    attaches a per-query :class:`~repro.obs.trace.QueryTrace` to the
    result (observable behaviour is unchanged either way).

    ``deadline`` bounds the whole query in transport time units: the
    service resolves it to an absolute instant once and every retry
    budget along the query (see
    :class:`~repro.sim.resilience.ResilientChannel`) races that same
    wall, via the ambient :mod:`repro.net.qos` context rather than
    per-call plumbing.  ``priority`` (>= 0, default 0) is stamped on
    every request frame the query sends; nodes under admission control
    shed low-priority traffic first.  The two fields are appended after
    the original five, so positional callers predating them are
    unaffected.

    ``prefix`` switches the query to prefix mode (docs/protocol.md
    §17): the query string is a keyword *prefix*, resolved through the
    service's keyword directory and answered from the directory rows
    it reads, cut to ``threshold``; ``use_cache`` does not apply.
    ``max_expansions`` bounds how many matched keywords the directory
    enumerates per query (None: unbounded).  Both fields are appended after the existing
    seven, keeping positional callers unaffected.
    """

    threshold: int | None = None
    origin: int | None = None
    order: TraversalOrder = TraversalOrder.TOP_DOWN
    use_cache: bool | None = None
    trace: bool = False
    deadline: float | None = None
    priority: int = 0
    prefix: bool = False
    max_expansions: int | None = None

    def __post_init__(self) -> None:
        if self.threshold is not None and self.threshold < 1:
            raise ValueError(f"threshold must be >= 1 or None, got {self.threshold}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive or None, got {self.deadline}")
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")
        if self.max_expansions is not None and self.max_expansions < 1:
            raise ValueError(
                f"max_expansions must be >= 1 or None, got {self.max_expansions}"
            )
