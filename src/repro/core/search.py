"""Superset search over the hypercube index (Section 3.3).

Given keyword set K and threshold t, return min(t, |O_K|) objects whose
keyword sets contain K.  By Lemma 3.1 the search space is the
subhypercube induced by ``F_h(K)``; the protocol explores its spanning
binomial tree so results arrive ordered by how many *extra* keywords
they carry (Lemma 3.2).

Three traversal orders are provided:

* ``TOP_DOWN`` — the paper's T_QUERY protocol, verbatim: the root keeps
  a FIFO queue ``U`` of ``(node, dimension)`` pairs, sends one query at
  a time, and every queried node w returns its matches (directly to the
  requester) plus its continuation list
  ``L = {(x, i) | i < d, i ∈ Zero(w)}`` — exactly the children of w in
  the induced spanning binomial tree.  General objects come back first.
* ``BOTTOM_UP`` — the variant sketched in Section 3.3: the same tree
  deepest-first (the T_QUERY visit sequence reversed), so the most
  specific objects come back first.
* ``PARALLEL`` — Section 3.5's speed-up: all nodes of a tree level are
  queried in one round, reducing time complexity from
  ``2**(r-|One|)`` to ``r - |One|`` rounds at the same message cost.
  Each level is dispatched *concurrently* through the transport's
  batch RPC API (:meth:`~repro.net.transport.Transport.rpc_many` via
  :meth:`~repro.sim.resilience.ResilientChannel.rpc_many`): virtual
  time advances by one round trip per level on the simulator, and over
  TCP the whole level's requests are genuinely in flight together — the
  round bound becomes a wall-clock bound.  Every visit in a level
  carries the result budget *as it stood at level entry*, and the
  overshoot is trimmed to the threshold afterwards.

One walk serves all three: :class:`~repro.hypercube.sbt.SbtFrontier`
holds the queue ``U``, the result budget and the completeness rule with
no I/O, and :meth:`SuperSetSearch._walk` drives it with one per-reply
path (target resolution, decode, failure ladder, result forwarding,
visit record).  Its one order-dependent choice of I/O: PARALLEL sends a
batch as one ``rpc_many``, the sequential orders one ``rpc`` per node.
A search is ``complete`` iff nothing was left in the frontier, no scan
was cut short by its limit, and no overshoot was trimmed — the same
rule for every order.

Contact modes: ``direct`` assumes the root reaches tree nodes by their
cached physical contacts (Section 3.4 observes each hypercube message
maps to one DHT message); ``routed`` pays a full DHT lookup per contact
instead.

Failure handling: scans go through the index's
:class:`~repro.sim.resilience.ResilientChannel`, so a visit to a flaky
node is retried per the channel's policy.  When the channel is
resilient (or ``skip_unreachable`` is set) a visit whose retries are
exhausted *degrades* instead of aborting the search: the searcher falls
back to DHT surrogate routing (the stand-in node may hold nothing, but
the traversal continues) and the visit is reported in
:attr:`SearchResult.degraded_visits` with status ``surrogate`` or
``failed`` — the fault-tolerance behaviour Section 3.4 calls for.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.core.index import HypercubeIndex
from repro.core.keywords import normalize_keywords, normalize_prefix
from repro.net.errors import PeerUnreachableError
from repro.net.transport import RpcCall
from repro.obs.trace import QueryTrace, TraceRecorder, active_recorder, recording
from repro.sim.resilience import ResilientChannel
from repro.hypercube.sbt import SbtFrontier, TraversalOrder, continuation

__all__ = [
    "FoundObject",
    "NodeVisit",
    "PrefixSearch",
    "PrefixSearchResult",
    "SearchResult",
    "SuperSetSearch",
    "TraversalOrder",
]


@dataclass(frozen=True)
class FoundObject:
    """One matching object with the keyword set it is indexed under."""

    object_id: str
    keywords: frozenset[str]

    def extra_keywords(self, query: frozenset[str]) -> frozenset[str]:
        """Keywords beyond the query — the refinement hints Section 1
        proposes returning alongside sampled objects."""
        return self.keywords - query

    def specificity(self, query: frozenset[str]) -> int:
        """Number of extra keywords (the ranking signal of Lemma 3.2)."""
        return len(self.keywords - query)


@dataclass(frozen=True)
class NodeVisit:
    """One visited tree node, in visit order.

    ``status`` is ``"ok"`` for a normal visit; ``"replica"`` when a
    replicated index served it from a secondary copy (full data);
    ``"surrogate"`` when the node's primary host was unreachable and the
    scan was served by the DHT surrogate (whose table may be missing the
    dead host's entries); ``"failed"`` when no host could be reached at
    all.  The last two are *degraded*: results may be incomplete.
    """

    order: int
    logical: int
    physical: int
    depth: int
    returned: int
    dht_hops: int
    status: str = "ok"

    @property
    def degraded(self) -> bool:
        return self.status in ("surrogate", "failed")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one superset search."""

    query: frozenset[str]
    threshold: int | None
    order: TraversalOrder
    root_logical: int
    root_physical: int
    objects: tuple[FoundObject, ...]
    visits: tuple[NodeVisit, ...]
    complete: bool
    messages: int
    rounds: int
    cache_hit: bool
    # The per-query event trace, when the search ran with tracing on
    # (excluded from equality: two identical searches differ only in
    # event timestamps).
    trace: QueryTrace | None = field(default=None, compare=False, repr=False)

    @property
    def object_ids(self) -> tuple[str, ...]:
        return tuple(found.object_id for found in self.objects)

    def results(self) -> tuple[str, ...]:
        """The matching object IDs — the accessor shared by every search
        result type (:class:`SearchResult`, :class:`~repro.core.index.PinResult`,
        :class:`~repro.core.decomposed.DecomposedSearchResult`)."""
        return self.object_ids

    @property
    def degraded_visits(self) -> tuple[NodeVisit, ...]:
        """Visits that could not be served by their primary host (their
        entries may be missing from ``objects``)."""
        return tuple(visit for visit in self.visits if visit.degraded)

    @property
    def degraded(self) -> bool:
        """True when at least one visit was served degraded, i.e. the
        result is complete only with respect to the reachable index."""
        return any(visit.degraded for visit in self.visits)

    @property
    def logical_nodes_contacted(self) -> int:
        """Distinct hypercube nodes contacted — the paper's cost metric."""
        return len({visit.logical for visit in self.visits})

    @property
    def physical_nodes_contacted(self) -> int:
        return len({visit.physical for visit in self.visits})

    def nodes_contacted_for_recall(self, fraction: float, total_matching: int) -> int:
        """Visits needed before ``fraction`` of ``total_matching`` objects
        had been returned — the x-axis/y-axis relation of Figure 8."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        needed = fraction * total_matching
        if needed <= 0:
            return 0  # a recall of nothing needs no visits
        collected = 0
        for count, visit in enumerate(self.visits, start=1):
            collected += visit.returned
            if collected >= needed:
                return count
        return len(self.visits)


def decode_scan(reply: dict) -> tuple[list[FoundObject], bool, bool]:
    """Decode one ``hindex.scan`` reply to (found objects, whether the
    limit cut the scan short, whether the node answered from its
    cooperative path cache).

    ``matches`` arrives as a :class:`~repro.net.codec.PostingList` of
    ``(frozenset[str], tuple[str, ...])`` rows whatever the medium:
    in-process it is the shard's own list, over sockets the binary codec
    ships it in its flat posting-set form and reconstitutes the same
    rows — so this decode is medium-agnostic.
    """
    if reply.get("cache_hit"):
        found = [FoundObject(object_id, keywords) for object_id, keywords in reply["results"]]
        return found, False, True
    found = [
        FoundObject(object_id, entry_keywords)
        for entry_keywords, object_ids in reply["matches"]
        for object_id in object_ids
    ]
    return found, bool(reply.get("truncated", False)), False


class SuperSetSearch:
    """Executor for superset searches against a :class:`HypercubeIndex`."""

    def __init__(
        self,
        index: HypercubeIndex,
        *,
        contact_mode: str = "direct",
        skip_unreachable: bool = False,
        channel: ResilientChannel | None = None,
        cooperative: bool = False,
    ):
        if contact_mode not in ("direct", "routed"):
            raise ValueError(f"contact_mode must be 'direct' or 'routed', got {contact_mode!r}")
        self.index = index
        self.contact_mode = contact_mode
        self.skip_unreachable = skip_unreachable
        # Cooperative SBT-path caching (docs/protocol.md §16): interior
        # tree nodes cache their subtree's complete results and walkers
        # consult them before descending.  Applies to the subtree-shaped
        # walks (TOP_DOWN, PARALLEL) when the query runs with use_cache.
        self.cooperative = cooperative
        # None means "follow the DOLR network's channel" (resolved per
        # call, so a later configure_resilience() is picked up).
        self._channel = channel

    @property
    def channel(self) -> ResilientChannel:
        """The messaging channel scans go through."""
        return self._channel if self._channel is not None else self.index.dolr.channel

    @property
    def degrades(self) -> bool:
        """Whether an unreachable visit degrades instead of raising."""
        return self.skip_unreachable or self.channel.resilient

    # -- public API -----------------------------------------------------

    def run(
        self,
        keywords: Iterable[str],
        threshold: int | None = None,
        *,
        origin: int | None = None,
        order: TraversalOrder = TraversalOrder.TOP_DOWN,
        use_cache: bool = False,
        trace: bool = False,
    ) -> SearchResult:
        """Execute one superset search and return its full trace.

        With ``trace=True`` a :class:`~repro.obs.trace.TraceRecorder` is
        active for the duration of the query and the returned result
        carries a :class:`~repro.obs.trace.QueryTrace` accounting for
        every event down to individual transport messages.  Tracing
        changes no message, clock, or RNG behaviour: the result is
        byte-identical either way.
        """
        if threshold is not None and threshold < 1:
            raise ValueError(f"threshold must be >= 1 or None, got {threshold}")
        query = normalize_keywords(keywords)
        index = self.index
        dolr = index.dolr
        origin = dolr.any_address() if origin is None else origin
        root_logical = index.mapper.node_for(query)

        recorder = TraceRecorder(clock=dolr.network.now) if trace else None
        scope = recording(recorder) if recorder is not None else nullcontext()
        with scope, dolr.network.trace() as window:
            if recorder is not None:
                recorder.emit(
                    "query",
                    query=sorted(query),
                    threshold=threshold,
                    order=order.value,
                    origin=origin,
                    root_logical=root_logical,
                    use_cache=use_cache,
                )
            route = index.mapping.route_to(root_logical, origin=origin)
            root_physical = route.owner

            if use_cache:
                cached = dolr.rpc_at(
                    origin,
                    root_physical,
                    "hindex.cache_get",
                    {
                        "namespace": index.namespace,
                        "logical": root_logical,
                        "keywords": query,
                        "threshold": threshold,
                    },
                )
                if recorder is not None:
                    recorder.emit(
                        "cache_get",
                        logical=root_logical,
                        hit=bool(cached["hit"]),
                        complete=bool(cached.get("complete", False)),
                        returned=len(cached.get("results", ())),
                    )
                if cached["hit"]:
                    objects = tuple(
                        FoundObject(obj, keywords) for obj, keywords in cached["results"]
                    )
                    complete = bool(cached["complete"])
                    if threshold is not None and len(objects) > threshold:
                        # Trimming dropped matches, so the hit answers
                        # like the equivalent fresh walk: threshold met
                        # with matches left behind -> not complete.
                        objects = objects[:threshold]
                        complete = False
                    visit = NodeVisit(0, root_logical, root_physical, 0, len(objects), route.hops)
                    return self._finish(
                        recorder,
                        query=query,
                        threshold=threshold,
                        order=order,
                        origin=origin,
                        root_logical=root_logical,
                        root_physical=root_physical,
                        objects=objects,
                        visits=(visit,),
                        complete=complete,
                        messages=window.message_count,
                        rounds=1,
                        cache_hit=True,
                    )

            coop = self.cooperative and use_cache and order is not TraversalOrder.BOTTOM_UP
            objects, visits, complete, rounds, epochs, pruned = self._walk(
                query, threshold, origin, root_logical, root_physical, route.hops, order, coop
            )

            if use_cache:
                # A walk with degraded visits (surrogate/failed) may be
                # missing results the dead hosts held: caching it would
                # poison the root's cache with a possibly-incomplete set
                # served as authoritative long after the hosts recover.
                degraded = any(visit.degraded for visit in visits)
                if not degraded:
                    stored = dolr.rpc_at(
                        root_physical,
                        root_physical,
                        "hindex.cache_put",
                        {
                            "namespace": index.namespace,
                            "logical": root_logical,
                            "keywords": query,
                            "results": [(f.object_id, f.keywords) for f in objects],
                            "complete": complete,
                            # The root's epoch from before the walk's
                            # first scan: a write that raced this walk
                            # bumped it, and the fill is then rejected
                            # instead of caching stale data.
                            "epoch": cached["epoch"],
                        },
                    )
                fills = 0
                if coop and complete and not degraded:
                    fills = self._cooperative_fill(
                        query, root_logical, root_physical, objects, visits, epochs, pruned
                    )
                if recorder is not None:
                    recorder.emit(
                        "cache_put",
                        logical=root_logical,
                        size=len(objects),
                        complete=complete,
                        stored=bool(stored["stored"]) if not degraded else False,
                        skipped_degraded=degraded,
                        cooperative_fills=fills,
                    )
            messages = window.message_count

        return self._finish(
            recorder,
            query=query,
            threshold=threshold,
            order=order,
            origin=origin,
            root_logical=root_logical,
            root_physical=root_physical,
            objects=tuple(objects),
            visits=tuple(visits),
            complete=complete,
            messages=messages,
            rounds=rounds,
            cache_hit=False,
        )

    @staticmethod
    def _finish(
        recorder: TraceRecorder | None,
        *,
        query: frozenset[str],
        threshold: int | None,
        order: TraversalOrder,
        origin: int,
        root_logical: int,
        root_physical: int,
        objects: tuple[FoundObject, ...],
        visits: tuple[NodeVisit, ...],
        complete: bool,
        messages: int,
        rounds: int,
        cache_hit: bool,
    ) -> SearchResult:
        """Assemble the result, freezing the trace when one was kept."""
        query_trace: QueryTrace | None = None
        if recorder is not None:
            query_trace = recorder.finish(
                {
                    "query": sorted(query),
                    "threshold": threshold,
                    "order": order.value,
                    "origin": origin,
                    "root_logical": root_logical,
                    "root_physical": root_physical,
                    "results": len(objects),
                    "complete": complete,
                    "messages": messages,
                    "rounds": rounds,
                    "cache_hit": cache_hit,
                }
            )
        return SearchResult(
            query=query,
            threshold=threshold,
            order=order,
            root_logical=root_logical,
            root_physical=root_physical,
            objects=objects,
            visits=visits,
            complete=complete,
            messages=messages,
            rounds=rounds,
            cache_hit=cache_hit,
            trace=query_trace,
        )

    # -- the walk ---------------------------------------------------------

    def _walk(
        self,
        query: frozenset[str],
        threshold: int | None,
        origin: int,
        root_logical: int,
        root_physical: int,
        route_hops: int,
        order: TraversalOrder,
        coop: bool,
    ) -> tuple[list[FoundObject], list[NodeVisit], bool, int, dict[int, int], set[int]]:
        """Drive one :class:`~repro.hypercube.sbt.SbtFrontier` to its end.

        Each batch is resolved (:meth:`_resolve_target`) and scanned, and
        every reply then takes one path: the epoch record, the decode
        (or cooperative cache hit), the failure ladder on
        unreachability, the forward to the requester, and the visit
        record.  The only order-dependent I/O: PARALLEL scans a batch in
        one ``rpc_many``, the sequential orders call ``rpc`` per entry.
        TOP_DOWN's root scan is sent by the requester (the initial
        T_QUERY); every other scan by the root.  The walk's first visit
        carries the route hops.  With ``coop`` every non-root scan
        consults the node's path cache, and a hit prunes its subtree
        (docs/protocol.md §16).

        Returns (objects, visits, complete, rounds, the epoch each host
        reported with its first scan, the nodes answered from a path
        cache); the last two feed :meth:`_cooperative_fill`.
        """
        frontier = SbtFrontier(root_logical, self.index.cube.dimension, threshold, order)
        channel = self.channel
        namespace = self.index.namespace
        objects: list[FoundObject] = []
        visits: list[NodeVisit] = []
        # A later scan's epoch could already include a write an earlier
        # scan of the same host missed, so each host keeps its first.
        epochs: dict[int, int] = {}
        pruned: set[int] = set()
        recorder = active_recorder()
        rounds = 0
        while not frontier.done:
            batch, limit = frontier.next_batch()
            rounds += 1
            targets = []
            scans = []  # (slot, sender, physical, payload) of each entry to scan
            for slot, (logical, _, _) in enumerate(batch):
                root = logical == root_logical
                sender = origin if root and order is TraversalOrder.TOP_DOWN else root_physical
                physical, hops, decided = self._resolve_target(
                    query, limit, origin, logical, root_physical if root else None, sender
                )
                targets.append((sender, physical, hops, decided))
                if decided is None:
                    payload = _scan_payload(namespace, logical, query, limit, coop and not root)
                    scans.append((slot, sender, physical, payload))
            # A reply is the scan's answer, the error it raised, or None
            # for a visit the resolver settled.
            replies: list = [None] * len(batch)
            if order is TraversalOrder.PARALLEL and scans:
                calls = [RpcCall(src, dst, "hindex.scan", body) for _, src, dst, body in scans]
                for (slot, _, _, _), outcome in zip(scans, channel.rpc_many(calls)):
                    replies[slot] = outcome.value if outcome.ok else outcome.error
            else:
                for slot, src, dst, payload in scans:
                    try:
                        replies[slot] = channel.rpc(src, dst, "hindex.scan", payload)
                    except PeerUnreachableError as error:
                        replies[slot] = error
            counts = []
            for (logical, _, depth), (sender, physical, hops, decided), reply in zip(
                batch, targets, replies
            ):
                cut = hit = False
                if decided is not None:
                    found, status = decided  # the resolver forwarded them
                    if physical is None:
                        physical = self._physical_of(logical)
                elif isinstance(reply, BaseException):
                    if not isinstance(reply, PeerUnreachableError):
                        raise reply
                    found, status, surrogate, extra_hops = self._failure_ladder(
                        sender, logical, query, limit, reply
                    )
                    if surrogate is not None:
                        physical = surrogate  # record the host that answered
                    hops += extra_hops
                else:
                    status = "ok"
                    if coop and "epoch" in reply:
                        epochs.setdefault(physical, reply["epoch"])
                    found, cut, hit = decode_scan(reply)
                    if hit:
                        pruned.add(logical)
                if decided is None:
                    self._notify_requester(physical, origin, found)
                if not visits:
                    hops += route_hops
                visit = NodeVisit(len(visits), logical, physical, depth, len(found), hops, status)
                visits.append(visit)
                if recorder is not None:
                    recorder.raw.append(visit)  # materialized lazily by the recorder
                objects.extend(found)
                counts.append((len(found), cut, hit))
            frontier.absorb(counts)
        del objects[frontier.kept :]  # a level's overshoot past the threshold
        return objects, visits, frontier.complete, rounds, epochs, pruned

    # -- mechanics --------------------------------------------------------

    def _resolve_target(
        self,
        query: frozenset[str],
        remaining: int | None,
        origin: int,
        logical: int,
        physical: int | None,
        sender: int,
    ) -> tuple[int | None, int, tuple[list[FoundObject], str] | None]:
        """Pick the physical destination for a visit to ``logical``.

        Returns ``(physical, hops_paid, decided)``.  ``decided`` is
        normally ``None``; when not, the visit is already settled
        without a scan — ``(found, status)`` — and the resolver has done
        any result forwarding itself (the routed-mode dead-route path
        here; the dead-primary replica path in
        :class:`~repro.core.replication.ReplicatedSuperSetSearch`).
        """
        del query, remaining  # used by overrides that scan replicas
        if physical is not None:
            return physical, 0, None
        if self.contact_mode == "routed":
            try:
                route = self.index.mapping.route_to(logical, origin=sender)
            except (PeerUnreachableError, RuntimeError):
                if not self.degrades:
                    raise
                self.index.dolr.network.metrics.increment("search.degraded_visits")
                return None, 0, ([], "failed")
            return route.owner, route.hops, None
        return self._physical_of(logical), 0, None

    def _failure_ladder(
        self,
        sender: int,
        logical: int,
        query: frozenset[str],
        remaining: int | None,
        error: PeerUnreachableError,
    ) -> tuple[list[FoundObject], str, int | None, int]:
        """The degradation ladder for a scan whose retries are exhausted:
        replica fallback, then DHT surrogate re-resolution, then a
        ``failed`` (empty) visit.  Returns ``(found, status,
        surrogate, extra_hops)``; re-raises ``error`` when this
        searcher does not degrade."""
        metrics = self.index.dolr.network.metrics
        fallback = self._visit_fallback(sender, logical, query, remaining)
        if fallback is not None:
            return fallback, "replica", None, 0
        if not self.degrades:
            raise error
        found, surrogate, extra_hops = self._surrogate_visit(sender, logical, query, remaining)
        if surrogate is None:
            metrics.increment("search.degraded_visits")
            return [], "failed", None, 0
        metrics.increment("search.surrogate_visits")
        metrics.increment("search.degraded_visits")
        return found, "surrogate", surrogate, extra_hops

    def _notify_requester(self, physical: int | None, origin: int, found: list[FoundObject]) -> None:
        """Forward a visit's matches directly to the requester, as the
        protocol specifies (one extra message when non-empty)."""
        if found and physical is not None and physical != origin:
            self.index.dolr.network.send(
                physical, origin, "hindex.results", {"count": len(found)}, deliver=False
            )

    def _cooperative_fill(
        self,
        query: frozenset[str],
        root_logical: int,
        root_physical: int,
        objects: list[FoundObject],
        visits: list[NodeVisit],
        epochs: dict[int, int],
        pruned: set[int],
    ) -> int:
        """Offer each interior node of a completed walk the aggregate
        results of its own subtree, in one batched ``hindex.cache_put``
        round (docs/protocol.md §16).

        Only sound after a *complete, non-degraded* walk: completeness
        means no scan was limit-cut and no subtree was left undescended,
        so the per-node aggregates really are each subtree's full answer
        (and ``objects`` is exactly the visits' results, in visit order).
        Only the root's *direct children* are filled: their subtrees
        partition the walk below the root, so a later walk whose root
        entry was evicted re-covers the whole answer in 1 + (number of
        children) visits — while adding only O(r) entries per query to
        the cluster's caches.  Filling every interior node was measured
        to thrash the shared per-physical caches (each walk would add
        O(2^z) entries, evicting the root entries that carry the hit
        rate).  Also skipped per target: nodes that answered from their
        own path cache (they already hold the aggregate), degraded /
        replica visits (the fill would land on a host that did not
        serve the scan), single-node subtrees (caching a node's own
        scan saves nothing the root cache does not), and hosts that
        reported no coherence epoch.  Each fill carries the epoch its
        host reported with its scan, so a write racing the walk
        invalidates first and the stale fill is rejected (see
        :meth:`~repro.core.index.IndexShard.cache_put`).  Best-effort:
        failed RPCs are ignored.  Returns the number of fills
        dispatched.
        """
        found_at: dict[int, list[FoundObject]] = {}
        cursor = 0
        for visit in visits:
            found_at[visit.logical] = objects[cursor : cursor + visit.returned]
            cursor += visit.returned
        calls: list[RpcCall] = []
        for visit in visits:
            w = visit.logical
            if visit.depth != 1 or w in pruned or visit.status != "ok":
                continue
            d = (w ^ root_logical).bit_length() - 1  # the child's SBT bound
            if not continuation(w, d):
                continue  # leaf subtree: just w itself
            epoch = epochs.get(visit.physical)
            if epoch is None:
                continue
            # Subtree of w under bound d: supersets of w whose extra
            # bits all lie below d — exactly the nodes the walk reached
            # (or pruned via a path-cache hit) beneath w.
            aggregated = [
                found
                for inner in visits
                if inner.logical & w == w and (inner.logical & ~w) >> d == 0
                for found in found_at[inner.logical]
            ]
            calls.append(
                RpcCall(
                    root_physical,
                    visit.physical,
                    "hindex.cache_put",
                    {
                        "namespace": self.index.namespace,
                        "logical": w,
                        "keywords": query,
                        "results": [(f.object_id, f.keywords) for f in aggregated],
                        "complete": True,
                        "epoch": epoch,
                        # Admission-controlled: never displaces a demand
                        # entry at the receiving node.
                        "speculative": True,
                    },
                )
            )
        if calls:
            self.channel.rpc_many(calls)  # best-effort; outcomes unchecked
        return len(calls)

    def _surrogate_visit(
        self, sender: int, logical: int, query: frozenset[str], remaining: int | None
    ) -> tuple[list[FoundObject], int | None, int]:
        """Last-resort fallback: re-resolve the logical node through DHT
        surrogate routing and scan whichever live node stands in for it.
        The surrogate's table may lack the dead host's entries — the
        visit completes, possibly with fewer results.  Returns
        (found, surrogate address or None, extra hops paid)."""
        try:
            # refresh=True: never answer from the placement cache here —
            # the cached owner is the node that just failed to answer.
            route = self.index.mapping.route_to(logical, origin=sender, refresh=True)
            found = self._scan(sender, route.owner, self.index.namespace, logical, query, remaining)
        except (PeerUnreachableError, RuntimeError):
            return [], None, 0
        return found, route.owner, route.hops

    def _scan(
        self,
        sender: int,
        physical: int,
        namespace: str,
        logical: int,
        query: frozenset[str],
        limit: int | None,
    ) -> list[FoundObject]:
        """One plain ``hindex.scan`` (retried per the channel's policy),
        decoded to its matches — the fallback and sampling scans."""
        payload = _scan_payload(namespace, logical, query, limit, False)
        return decode_scan(self.channel.rpc(sender, physical, "hindex.scan", payload))[0]

    def _visit_fallback(
        self, sender: int, logical: int, query: frozenset[str], remaining: int | None
    ) -> list[FoundObject] | None:
        """Hook for replicated indexes: produce the visit's results from
        a replica when the primary node is unreachable.  The base search
        has no replicas, so there is no fallback."""
        return None

    def _physical_of(self, logical: int) -> int:
        return self.index.mapping.physical_owner(logical)


def _scan_payload(
    namespace: str, logical: int, query: frozenset[str], limit: int | None, consult: bool
) -> dict:
    """A ``hindex.scan`` request.  ``consult`` asks the node to answer
    from its cooperative path cache when it holds a complete subtree
    aggregate that fits the limit."""
    payload = {"namespace": namespace, "logical": logical, "keywords": query, "limit": limit}
    if consult:
        payload["consult"] = True
    return payload


@dataclass(frozen=True)
class PrefixSearchResult:
    """Outcome of one prefix query (docs/protocol.md §17).

    A prefix query is one directory resolution and nothing else:
    ``matched_keywords`` are the full keywords the directory enumerated
    for the prefix, and ``objects`` the postings their terminal rows
    hold, one per object, ranked by (specificity, position in
    ``matched_keywords`` of the first matched keyword the object
    carries, object id).  Specificity is the extra-keyword count
    ``|K| - 1`` of Lemma 3.2: general objects first, most specific
    first under ``BOTTOM_UP``.  The ranked list is cut to
    ``threshold``.

    ``directory_messages`` counts the ``pfx.node`` fetches of the
    resolution (the quantity that must scale with matches, not
    vocabulary); ``messages`` counts every transport message the query
    sent, retries included.  ``complete`` is True iff the resolution
    enumerated every match, every matched row carried keyword sets,
    and the threshold trimmed nothing.  ``expanded_keywords`` is always
    empty and stays for readers that count expansions.
    """

    prefix: str
    threshold: int | None
    matched_keywords: tuple[str, ...]
    objects: tuple[FoundObject, ...]
    complete: bool
    directory_messages: int
    messages: int
    rounds: int
    expanded_keywords: tuple[str, ...] = ()
    trace: QueryTrace | None = field(default=None, compare=False, repr=False)

    @property
    def object_ids(self) -> tuple[str, ...]:
        return tuple(found.object_id for found in self.objects)

    def results(self) -> tuple[str, ...]:
        """The matching object IDs (shared search-result accessor)."""
        return self.object_ids


class PrefixSearch:
    """Expansion-bounded prefix query planner.

    Resolves a prefix against a :class:`~repro.prefix.directory.KeywordDirectory`
    and answers from the rows the resolution fetched: each word record
    carries its object's whole keyword set, so ranking and the
    ``threshold`` cut need no further message.  ``max_expansions``
    bounds how many keywords the directory enumerates — the guard
    against a one-letter prefix fanning out over the whole vocabulary.
    Query caches do not apply: a prefix query never reads the index.
    """

    def __init__(self, directory):
        self.directory = directory

    def run(
        self,
        prefix: str,
        threshold: int | None = None,
        *,
        origin: int | None = None,
        order: TraversalOrder = TraversalOrder.TOP_DOWN,
        trace: bool = False,
        max_expansions: int | None = None,
    ) -> PrefixSearchResult:
        if threshold is not None and threshold < 1:
            raise ValueError(f"threshold must be >= 1 or None, got {threshold}")
        if max_expansions is not None and max_expansions < 1:
            raise ValueError(
                f"max_expansions must be >= 1 or None, got {max_expansions}"
            )
        canonical = normalize_prefix(prefix)
        dolr = self.directory.dolr
        origin = dolr.any_address() if origin is None else origin

        recorder = TraceRecorder(clock=dolr.network.now) if trace else None
        scope = recording(recorder) if recorder is not None else nullcontext()
        with scope, dolr.network.trace() as window:
            resolution = self.directory.resolve(
                canonical, origin=origin, limit=max_expansions
            )
            matched = tuple(sorted(resolution.keywords))
            objects = _ranked(resolution.objects, matched, order)
            complete = resolution.complete
            if threshold is not None and len(objects) > threshold:
                objects = objects[:threshold]
                complete = False
            if recorder is not None:
                recorder.emit(
                    "prefix_resolve",
                    prefix=canonical,
                    matched=list(matched),
                    candidates=len(resolution.objects),
                    directory_messages=resolution.messages,
                    nodes_visited=resolution.nodes_visited,
                    truncated=resolution.truncated,
                    degraded=resolution.degraded,
                    bare_keywords=list(resolution.bare_keywords),
                )
            messages = window.message_count

        query_trace: QueryTrace | None = None
        if recorder is not None:
            query_trace = recorder.finish(
                {
                    "prefix": canonical,
                    "threshold": threshold,
                    "order": order.value,
                    "origin": origin,
                    "matched_keywords": list(matched),
                    "results": len(objects),
                    "complete": complete,
                    "directory_messages": resolution.messages,
                    "messages": messages,
                    "rounds": resolution.rounds,
                }
            )
        return PrefixSearchResult(
            prefix=canonical,
            threshold=threshold,
            matched_keywords=matched,
            objects=objects,
            complete=complete,
            directory_messages=resolution.messages,
            messages=messages,
            rounds=resolution.rounds,
            trace=query_trace,
        )


def _ranked(
    candidates: Iterable[FoundObject], matched: tuple[str, ...], order: TraversalOrder
) -> tuple[FoundObject, ...]:
    """``candidates`` ranked by (specificity, position in ``matched`` of
    the first matched keyword carried, object id), specificity reversed
    under ``BOTTOM_UP``; an object listed with several keyword sets
    keeps its best rank."""
    position = {keyword: i for i, keyword in enumerate(matched)}
    sign = -1 if order is TraversalOrder.BOTTOM_UP else 1
    best: dict[str, tuple[tuple[int, int, str], FoundObject]] = {}
    for found in candidates:
        first = min((position[k] for k in found.keywords if k in position), default=len(matched))
        key = (sign * (len(found.keywords) - 1), first, found.object_id)
        kept = best.get(found.object_id)
        if kept is None or key < kept[0]:
            best[found.object_id] = (key, found)
    return tuple(found for _, found in sorted(best.values(), key=lambda entry: entry[0]))
