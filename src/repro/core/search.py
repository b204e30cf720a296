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
* ``BOTTOM_UP`` — the variant sketched in Section 3.3: levels of the
  tree are visited deepest-first, so the most specific objects come
  back first.
* ``PARALLEL`` — Section 3.5's speed-up: all nodes of a tree level are
  queried in one round, reducing time complexity from
  ``2**(r-|One|)`` to ``r - |One|`` rounds at the same message cost.
  Since PR 5 the rounds are dispatched *concurrently* through the
  transport's batch RPC API
  (:meth:`~repro.net.transport.Transport.rpc_many` via
  :meth:`~repro.sim.resilience.ResilientChannel.rpc_many`): virtual
  time advances by one round trip per level on the simulator, and over
  TCP the whole level's requests are genuinely in flight together — the
  round bound becomes a wall-clock bound.  Budget rule: every visit in
  a level shares the result budget *as it stood at level entry* (the
  level is dispatched before any of its replies can be seen), the
  collected objects are truncated to the threshold afterwards, and a
  search that overshot its threshold reports ``complete=False`` exactly
  when matches were left behind — dropped overshoot, a limit-cut scan,
  or an undescended subtree.

All three walks share one traversal core: sequential orders dispatch
through :meth:`SuperSetSearch._visit`, the parallel order through the
level-batched :meth:`SuperSetSearch._visit_level`, and both paths share
the same target resolution, failure ladder, result forwarding, and
visit/threshold bookkeeping.

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

import enum
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator

from repro.core.index import HypercubeIndex
from repro.core.keywords import normalize_keywords, normalize_prefix
from repro.net.errors import PeerUnreachableError
from repro.net.transport import RpcCall
from repro.obs.trace import QueryTrace, TraceRecorder, active_recorder, recording
from repro.sim.resilience import ResilientChannel
from repro.hypercube.sbt import SpanningBinomialTree
from repro.util import bitops

__all__ = [
    "FoundObject",
    "NodeVisit",
    "PrefixSearch",
    "PrefixSearchResult",
    "SearchResult",
    "SuperSetSearch",
    "TraversalOrder",
]


class TraversalOrder(enum.Enum):
    """How the spanning binomial tree is explored."""

    TOP_DOWN = "top_down"
    BOTTOM_UP = "bottom_up"
    PARALLEL = "parallel"


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


class _TraversalRun:
    """Shared bookkeeping of one tree walk.

    Collects the found objects and visit records, and tracks the result
    budget (``remaining``) against the caller's threshold.  The walkers
    differ in traversal order and dispatch (sequential vs level-batched)
    but every one of them records visits and consumes budget through
    this one object — the invariant the §3.5 equivalence tests lean on.
    """

    __slots__ = (
        "objects",
        "visits",
        "remaining",
        "truncated",
        "epochs",
        "track",
        "by_logical",
        "bounds",
        "coop_hits",
    )

    def __init__(self, threshold: int | None, *, track: bool = False):
        self.objects: list[FoundObject] = []
        self.visits: list[NodeVisit] = []
        self.remaining = threshold
        self.truncated = False
        # Coherence-epoch bookkeeping: the epoch each physical host
        # reported with its *first* scan of the walk, consulted when
        # filling caches later — a write that lands after that scan
        # bumps the host's epoch, so a fill carrying the old one is
        # rejected.  A later scan's epoch could already include the
        # write while an earlier scan missed it.
        self.epochs: dict[int, int] = {}
        # Cooperative-cache bookkeeping (``track=True``): per-logical
        # results, each visit's SBT dimension bound (which pins its
        # subtree), and which visits were answered from a path cache.
        self.track = track
        self.by_logical: dict[int, list[FoundObject]] = {}
        self.bounds: dict[int, int] = {}
        self.coop_hits: set[int] = set()

    def absorb(
        self,
        logical: int,
        physical: int,
        depth: int,
        found: list[FoundObject],
        hops: int,
        status: str,
    ) -> None:
        """Record one completed visit and keep its objects."""
        self.objects.extend(found)
        if self.track:
            self.by_logical[logical] = found
        SuperSetSearch._record_visit(
            self.visits, logical, physical, depth, len(found), hops, status
        )

    def consume(self, count: int) -> bool:
        """Charge ``count`` results against the budget.  True when the
        threshold is now met (unlimited searches never meet it)."""
        if self.remaining is None:
            return False
        self.remaining -= count
        return self.remaining <= 0

    def finish(self, rounds: int) -> tuple[list[FoundObject], list[NodeVisit], bool, int]:
        return self.objects, self.visits, not self.truncated, rounds


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

            walker = {
                TraversalOrder.TOP_DOWN: self._walk_top_down,
                TraversalOrder.BOTTOM_UP: self._walk_bottom_up,
                TraversalOrder.PARALLEL: self._walk_parallel,
            }[order]
            coop = (
                self.cooperative
                and use_cache
                and order in (TraversalOrder.TOP_DOWN, TraversalOrder.PARALLEL)
            )
            run, rounds = walker(
                query, threshold, origin, root_logical, root_physical, route.hops, coop
            )
            objects, visits, complete, rounds = run.finish(rounds)

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
                    fills = self._cooperative_fill(run, query, root_logical, root_physical)
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

    # -- traversals -----------------------------------------------------
    #
    # All three walks drive the same machinery: `_TraversalRun` holds the
    # collected objects / visit records / result budget, `_visit` performs
    # one sequential visit, and `_visit_level` dispatches a whole SBT
    # level concurrently through the channel's batch RPC API.  The
    # walkers differ only in *which* nodes they hand to that machinery,
    # and in what order.

    def _walk_top_down(
        self,
        query: frozenset[str],
        threshold: int | None,
        origin: int,
        root_logical: int,
        root_physical: int,
        root_hops: int,
        coop: bool = False,
    ) -> tuple[_TraversalRun, int]:
        """The paper's T_QUERY protocol.

        The queue ``U`` holds ``(node, d)`` pairs; popping FIFO yields a
        breadth-first walk of ``SBT_{H_r}(root)``.  The continuation
        list a visited node w would return is
        ``{(neighbour_i(w), i) | i < d, i ∈ Zero(w)}`` — computed here
        from w's identifier, which root knows (the bits are the message
        content either way).

        With ``coop`` the walk consults each interior node's path cache
        before descending: a node holding a complete cached aggregate
        for its whole subtree answers from it, and its subtree is pruned
        from the queue (docs/protocol.md §16).
        """
        dimension = self.index.cube.dimension
        run = _TraversalRun(threshold, track=coop)
        run.bounds[root_logical] = dimension

        # Root examines its own table first (the initial T_QUERY).
        returned, hops, status, scan_truncated, _ = self._visit(
            query,
            run.remaining,
            origin,
            root_logical,
            root_physical,
            responder_hops=root_hops,
            run=run,
        )
        run.absorb(root_logical, root_physical, 0, returned, hops, status)

        queue: deque[tuple[int, int]] = deque(
            (root_logical | (1 << i), i)
            for i in self._descending_zero_dims(root_logical, dimension)
        )
        if run.consume(len(returned)):
            # The root alone satisfied the threshold.  The search is
            # still *complete* when nothing was left unexplored: no
            # SBT children to descend into and the root's own scan
            # was not cut short by the limit.
            run.truncated = bool(queue) or scan_truncated
            return run, len(run.visits)

        while queue:
            w, d = queue.popleft()
            run.bounds[w] = d
            returned, hops, status, scan_truncated, coop_hit = self._visit(
                query, run.remaining, origin, w, None, via=root_physical, run=run, consult=coop
            )
            run.absorb(
                w, self._physical_of(w), bitops.popcount(w ^ root_logical), returned, hops, status
            )
            if coop_hit:
                # The node answered for its entire subtree from its path
                # cache: nothing below it is left to explore.
                run.coop_hits.add(w)
                continuation = []
            else:
                continuation = [
                    (w | (1 << i), i)
                    for i in self._descending_zero_dims(w, dimension)
                    if i < d
                ]
            if run.consume(len(returned)):
                # w answers T_STOP; root drops U.  Unexplored work —
                # queued pairs, w's own children, or a limit-cut
                # scan — is what makes the result incomplete.
                run.truncated = bool(queue) or bool(continuation) or scan_truncated
                break
            queue.extend(continuation)
        return run, len(run.visits)

    def _walk_bottom_up(
        self,
        query: frozenset[str],
        threshold: int | None,
        origin: int,
        root_logical: int,
        root_physical: int,
        root_hops: int,
        coop: bool = False,
    ) -> tuple[_TraversalRun, int]:
        """Deepest level first: most specific objects returned first.

        ``coop`` is accepted for walker-signature uniformity but never
        consults path caches: a bottom-up walk visits leaves before their
        ancestors, so a subtree aggregate would double-count the leaves
        already scanned.  ``run()`` never enables it for this order.
        """
        del coop
        tree = SpanningBinomialTree.induced(self.index.cube, root_logical)
        run = _TraversalRun(threshold)
        first = True
        for node, depth in tree.bfs_bottom_up():
            hops_for = root_hops if first else 0
            returned, hops, status, _, _ = self._visit(
                query,
                run.remaining,
                origin,
                node,
                root_physical if node == root_logical else None,
                via=root_physical,
                responder_hops=hops_for,
                run=run,
            )
            first = False
            run.absorb(node, self._physical_of(node), depth, returned, hops, status)
            if run.consume(len(returned)):
                run.truncated = True
                break
        return run, len(run.visits)

    def _walk_parallel(
        self,
        query: frozenset[str],
        threshold: int | None,
        origin: int,
        root_logical: int,
        root_physical: int,
        root_hops: int,
        coop: bool = False,
    ) -> tuple[_TraversalRun, int]:
        """Level-synchronized top-down: whole tree levels are dispatched
        concurrently, one batch RPC round per level, so a round that
        crosses the threshold still pays for its entire level (the
        latency/message trade of Section 3.5).

        This is the top-down walk with its child dispatch pipelined:
        each round's frontier is exactly the continuation lists of the
        previous round's visits (the queue ``U`` drained a whole level
        at a time), so the node set and per-level membership match the
        sequential protocol exactly, while the visits of one level are
        in flight together.

        Budget rule (deterministic under concurrency): every visit of a
        level carries the result budget *as it stood at level entry* —
        a level's scans cannot see each other's replies, on any
        transport.  The collected objects are truncated to the threshold
        afterwards, so the caller-visible contract (at most ``t``
        results) is order-independent; dropped overshoot marks the
        result incomplete, since matches existed that were not returned.
        """
        dimension = self.index.cube.dimension
        run = _TraversalRun(threshold, track=coop)
        frontier: list[tuple[int, int]] = [(root_logical, dimension)]
        rounds = 0
        depth = 0
        while frontier:
            rounds += 1
            entries = [
                (
                    node,
                    root_physical if node == root_logical else None,
                    root_hops if depth == 0 else 0,
                )
                for node, _ in frontier
            ]
            level = self._visit_level(
                query,
                run.remaining,
                origin,
                root_physical,
                entries,
                run=run,
                consult=coop and depth > 0,
            )
            next_frontier: list[tuple[int, int]] = []
            level_returned = 0
            scan_cut = False
            for (node, d), (found, physical, hops, status, scan_truncated, coop_hit) in zip(
                frontier, level
            ):
                run.bounds[node] = d
                run.absorb(node, physical, depth, found, hops, status)
                level_returned += len(found)
                scan_cut = scan_cut or scan_truncated
                if coop_hit:
                    # Path-cache answer covers the node's entire subtree:
                    # prune it from the next frontier.
                    run.coop_hits.add(node)
                    continue
                next_frontier.extend(
                    (node | (1 << i), i)
                    for i in self._descending_zero_dims(node, dimension)
                    if i < d
                )
            if run.consume(level_returned):
                # The whole level shared the entry budget, so the level
                # may have overshot the threshold; trim to the promised
                # min(t, |O_K|) — in visit order, deterministically.
                overshoot = threshold is not None and len(run.objects) > threshold
                if overshoot:
                    del run.objects[threshold:]
                run.truncated = bool(next_frontier) or scan_cut or overshoot
                break
            frontier = next_frontier
            depth += 1
        return run, rounds

    # -- mechanics --------------------------------------------------------

    @staticmethod
    def _record_visit(
        visits: list[NodeVisit],
        logical: int,
        physical: int,
        depth: int,
        returned: int,
        hops: int,
        status: str,
    ) -> NodeVisit:
        """Append one visit record and mirror it onto the active trace.

        The trace side is a bare append of the NodeVisit itself — the
        recorder materializes the event lazily (see repro.obs.trace).
        """
        visit = NodeVisit(len(visits), logical, physical, depth, returned, hops, status)
        visits.append(visit)
        recorder = active_recorder()
        if recorder is not None:
            recorder.raw.append(visit)
        return visit

    def _visit(
        self,
        query: frozenset[str],
        remaining: int | None,
        origin: int,
        logical: int,
        physical: int | None,
        *,
        via: int | None = None,
        responder_hops: int = 0,
        run: _TraversalRun | None = None,
        consult: bool = False,
    ) -> tuple[list[FoundObject], int, str, bool, bool]:
        """Deliver one T_QUERY to ``logical`` and collect its matches.

        Returns (found objects, DHT hops paid, visit status, whether the
        scan was cut short by the result limit — i.e. the node holds
        more matches than it returned, and whether the node answered
        from its cooperative path cache).  Matches are also forwarded
        directly to the requester, as the protocol specifies (one extra
        message when non-empty).

        Failure ladder, once the channel's retries are exhausted:
        replica fallback (:meth:`_visit_fallback`, for replicated
        indexes), then — when :attr:`degrades` — a re-resolution through
        DHT surrogate routing, then a ``failed`` (empty) visit.  Only a
        non-degrading searcher propagates the error, the legacy
        behaviour of ``skip_unreachable=False`` over a plain channel.
        """
        hops = responder_hops
        status = "ok"
        scan_truncated = False
        coop_hit = False
        sender = via if via is not None else origin
        physical, extra_hops, decided = self._resolve_target(
            query, remaining, origin, logical, physical, via
        )
        hops += extra_hops
        if decided is not None:
            found, status = decided
            return found, hops, status, False, False
        try:
            found, scan_truncated, coop_hit = self._scan_rpc(
                sender,
                physical,
                self.index.namespace,
                logical,
                query,
                remaining,
                run=run,
                consult=consult,
            )
        except PeerUnreachableError as error:
            found, status, new_physical, extra_hops = self._failure_ladder(
                sender, logical, query, remaining, error
            )
            if new_physical is not None:
                physical = new_physical
            hops += extra_hops
        self._notify_requester(physical, origin, found)
        return found, hops, status, scan_truncated, coop_hit

    def _resolve_target(
        self,
        query: frozenset[str],
        remaining: int | None,
        origin: int,
        logical: int,
        physical: int | None,
        via: int | None,
    ) -> tuple[int | None, int, tuple[list[FoundObject], str] | None]:
        """Pick the physical destination for a visit to ``logical``.

        Returns ``(physical, hops_paid, decided)``.  ``decided`` is
        normally ``None``; when not, the visit is already settled
        without a scan — ``(found, status)`` — and the resolver has done
        any result forwarding itself (the routed-mode dead-route path
        here; the dead-primary replica path in
        :class:`~repro.core.replication.ReplicatedSuperSetSearch`).
        Shared by the sequential and the level-batched dispatch paths.
        """
        del query, remaining  # used by overrides that scan replicas
        if physical is not None:
            return physical, 0, None
        if self.contact_mode == "routed":
            try:
                route = self.index.mapping.route_to(logical, origin=via)
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
        physical_override, extra_hops)``; re-raises ``error`` when this
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

    def _visit_level(
        self,
        query: frozenset[str],
        budget: int | None,
        origin: int,
        root_physical: int,
        entries: list[tuple[int, int | None, int]],
        *,
        run: _TraversalRun | None = None,
        consult: bool = False,
    ) -> list[tuple[list[FoundObject], int, int, str, bool, bool]]:
        """Deliver one whole SBT level of T_QUERYs concurrently.

        ``entries`` lists ``(logical, physical_or_None, responder_hops)``
        per visit; every scan is issued in one
        :meth:`~repro.sim.resilience.ResilientChannel.rpc_many` batch
        carrying the shared level-entry ``budget`` as its limit.
        Returns ``(found, physical, hops, status, scan_truncated,
        coop_hit)`` per entry, in entry order — message accounting,
        failure ladder, and result forwarding identical to
        ``len(entries)`` sequential :meth:`_visit` calls, only
        overlapped in time.  ``consult`` marks every scan of the level
        as a cooperative path-cache consult (never set for the root
        level).
        """
        sender = root_physical  # level dispatch always goes through the root
        prepared: list[tuple[int, int | None, int, tuple[list[FoundObject], str] | None]] = []
        for logical, physical, responder_hops in entries:
            target, extra_hops, decided = self._resolve_target(
                query, budget, origin, logical, physical, root_physical
            )
            prepared.append((logical, target, responder_hops + extra_hops, decided))
        calls: list[RpcCall] = []
        slots: list[int] = []
        for slot, (logical, target, _, decided) in enumerate(prepared):
            if decided is not None:
                continue
            payload = {
                "namespace": self.index.namespace,
                "logical": logical,
                "keywords": query,
                "limit": budget,
            }
            if consult:
                payload["consult"] = True
            calls.append(RpcCall(sender, target, "hindex.scan", payload))
            slots.append(slot)
        outcomes = dict(zip(slots, self.channel.rpc_many(calls))) if calls else {}
        level: list[tuple[list[FoundObject], int, int, str, bool, bool]] = []
        for slot, (logical, target, hops, decided) in enumerate(prepared):
            physical = target if target is not None else self._physical_of(logical)
            if decided is not None:
                found, status = decided
                level.append((found, physical, hops, status, False, False))
                continue
            outcome = outcomes[slot]
            scan_truncated = False
            coop_hit = False
            status = "ok"
            if outcome.ok:
                reply = outcome.value
                if run is not None and "epoch" in reply:
                    run.epochs.setdefault(physical, reply["epoch"])
                if reply.get("cache_hit"):
                    found = [
                        FoundObject(object_id, entry_keywords)
                        for object_id, entry_keywords in reply["results"]
                    ]
                    coop_hit = True
                else:
                    found, scan_truncated = self._decode_scan(reply)
            elif isinstance(outcome.error, PeerUnreachableError):
                found, status, new_physical, extra_hops = self._failure_ladder(
                    sender, logical, query, budget, outcome.error
                )
                if new_physical is not None:
                    physical = new_physical
                hops += extra_hops
            else:
                raise outcome.error
            self._notify_requester(physical, origin, found)
            level.append((found, physical, hops, status, scan_truncated, coop_hit))
        return level

    def _cooperative_fill(
        self, run: _TraversalRun, query: frozenset[str], root_logical: int, root_physical: int
    ) -> int:
        """Offer each interior node of a completed walk the aggregate
        results of its own subtree, in one batched ``hindex.cache_put``
        round (docs/protocol.md §16).

        Only sound after a *complete, non-degraded* walk: completeness
        means no scan was limit-cut and no subtree was left undescended,
        so the per-node aggregates really are each subtree's full answer.
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
        calls: list[RpcCall] = []
        for visit in run.visits:
            w = visit.logical
            if (
                w == root_logical
                or visit.depth != 1
                or w in run.coop_hits
                or visit.status != "ok"
            ):
                continue
            d = run.bounds.get(w)
            if d is None:
                continue
            if not any(True for i in self._descending_zero_dims(w, d)):
                continue  # leaf subtree: just w itself
            epoch = run.epochs.get(visit.physical)
            if epoch is None:
                continue
            # Subtree of w under bound d: supersets of w whose extra
            # bits all lie below d — exactly the nodes the walk reached
            # (or pruned via a path-cache hit) beneath w.
            subtree = [
                inner
                for inner in run.visits
                if inner.logical & w == w and (inner.logical & ~w) >> d == 0
            ]
            aggregated = [
                found
                for inner in subtree
                for found in run.by_logical.get(inner.logical, ())
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
            found, _, _ = self._scan_rpc(
                sender, route.owner, self.index.namespace, logical, query, remaining
            )
        except (PeerUnreachableError, RuntimeError):
            return [], None, 0
        return found, route.owner, route.hops

    def _scan_rpc(
        self,
        sender: int,
        physical: int,
        namespace: str,
        logical: int,
        query: frozenset[str],
        remaining: int | None,
        *,
        run: _TraversalRun | None = None,
        consult: bool = False,
    ) -> tuple[list[FoundObject], bool, bool]:
        """One hindex.scan request/reply (retried per the channel's
        policy), decoded to (FoundObjects, limit-truncated flag,
        answered-from-path-cache flag).

        ``consult`` asks the scanned node to answer from its cooperative
        path cache when it holds a complete subtree aggregate that fits
        the limit.  ``run`` records the coherence epoch the host reports,
        for the epoch-guarded cache fills issued after the walk.
        """
        payload = {
            "namespace": namespace,
            "logical": logical,
            "keywords": query,
            "limit": remaining,
        }
        if consult:
            payload["consult"] = True
        reply = self.channel.rpc(sender, physical, "hindex.scan", payload)
        if run is not None and "epoch" in reply:
            run.epochs.setdefault(physical, reply["epoch"])
        if reply.get("cache_hit"):
            found = [
                FoundObject(object_id, entry_keywords)
                for object_id, entry_keywords in reply["results"]
            ]
            return found, False, True
        found, truncated = self._decode_scan(reply)
        return found, truncated, False

    @staticmethod
    def _decode_scan(reply: dict) -> tuple[list[FoundObject], bool]:
        """Decode one hindex.scan reply to (FoundObjects, truncated).

        ``matches`` arrives as a
        :class:`~repro.net.codec.PostingList` of ``(frozenset[str],
        tuple[str, ...])`` rows whatever the medium: in-process it is
        the shard's own list, over sockets the binary codec ships it in
        its flat posting-set form and reconstitutes the same rows — so
        this decode (and the level-batched ``rpc_many`` walk that
        funnels through it) is medium-agnostic.
        """
        found = [
            FoundObject(object_id, entry_keywords)
            for entry_keywords, object_ids in reply["matches"]
            for object_id in object_ids
        ]
        return found, bool(reply.get("truncated", False))

    def _visit_fallback(
        self, sender: int, logical: int, query: frozenset[str], remaining: int | None
    ) -> list[FoundObject] | None:
        """Hook for replicated indexes: produce the visit's results from
        a replica when the primary node is unreachable.  The base search
        has no replicas, so there is no fallback."""
        return None

    def _physical_of(self, logical: int) -> int:
        return self.index.mapping.physical_owner(logical)

    @staticmethod
    def _descending_zero_dims(node: int, dimension: int) -> Iterator[int]:
        for i in range(dimension - 1, -1, -1):
            if not (node >> i) & 1:
                yield i


@dataclass(frozen=True)
class PrefixSearchResult:
    """Outcome of one prefix query (docs/protocol.md §17).

    A prefix query is a directory resolution followed by one superset
    expansion per matched keyword.  ``matched_keywords`` are the full
    keywords the directory enumerated for the prefix;
    ``expanded_keywords`` the subset actually expanded before the
    result budget ran out.  ``objects`` are deduplicated across
    expansions and ranked general-first by extra-keyword count — the
    same Lemma 3.2 ordering single-keyword search uses.

    ``directory_messages`` counts only the ``pfx.node`` fetches of the
    resolution (the quantity that must scale with matches, not
    vocabulary); ``messages`` counts every transport message the whole
    query sent.  ``complete`` is True iff the resolution enumerated
    every match and every expansion finished unclipped.
    """

    prefix: str
    threshold: int | None
    matched_keywords: tuple[str, ...]
    expanded_keywords: tuple[str, ...]
    objects: tuple[FoundObject, ...]
    complete: bool
    directory_messages: int
    messages: int
    rounds: int
    cache_hits: int
    trace: QueryTrace | None = field(default=None, compare=False, repr=False)

    @property
    def object_ids(self) -> tuple[str, ...]:
        return tuple(found.object_id for found in self.objects)

    def results(self) -> tuple[str, ...]:
        """The matching object IDs (shared search-result accessor)."""
        return self.object_ids


class PrefixSearch:
    """Expansion-bounded prefix query planner.

    Resolves a prefix against a :class:`~repro.prefix.directory.KeywordDirectory`,
    then expands each matched keyword through the ordinary superset
    machinery (so replication, caching, admission control, and
    degradation all apply per expansion).  The caller's ``threshold``
    is one shared budget: each expansion asks only for what earlier
    expansions have not already produced, and expansion stops once the
    budget is spent.  ``max_expansions`` bounds how many keywords the
    directory enumerates in the first place — the guard against a
    one-letter prefix fanning out over the whole vocabulary.
    """

    def __init__(self, directory, searcher: SuperSetSearch):
        self.directory = directory
        self.searcher = searcher

    def run(
        self,
        prefix: str,
        threshold: int | None = None,
        *,
        origin: int | None = None,
        order: TraversalOrder = TraversalOrder.TOP_DOWN,
        use_cache: bool = False,
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
        dolr = self.searcher.index.dolr
        origin = dolr.any_address() if origin is None else origin

        recorder = TraceRecorder(clock=dolr.network.now) if trace else None
        scope = recording(recorder) if recorder is not None else nullcontext()
        with scope, dolr.network.trace() as window:
            resolution = self.directory.resolve(
                canonical, origin=origin, limit=max_expansions
            )
            if recorder is not None:
                recorder.emit(
                    "prefix_resolve",
                    prefix=canonical,
                    matched=sorted(resolution.keywords),
                    directory_messages=resolution.messages,
                    nodes_visited=resolution.nodes_visited,
                    truncated=resolution.truncated,
                    degraded=resolution.degraded,
                )
            matched = tuple(sorted(resolution.keywords))
            complete = resolution.complete
            # objects found so far: object_id -> (specificity, arrival, found)
            merged: dict[str, tuple[int, int, FoundObject]] = {}
            expanded: list[str] = []
            remaining = threshold
            rounds = 1
            cache_hits = 0
            for keyword in matched:
                if remaining is not None and remaining <= 0:
                    # Budget spent with matches left unexpanded.
                    complete = False
                    break
                sub = self.searcher.run(
                    [keyword],
                    remaining,
                    origin=origin,
                    order=order,
                    use_cache=use_cache,
                    trace=False,
                )
                expanded.append(keyword)
                rounds += sub.rounds
                cache_hits += 1 if sub.cache_hit else 0
                complete = complete and sub.complete
                if recorder is not None:
                    recorder.emit(
                        "prefix_expand",
                        keyword=keyword,
                        returned=len(sub.objects),
                        complete=sub.complete,
                        cache_hit=sub.cache_hit,
                        messages=sub.messages,
                    )
                query = frozenset({keyword})
                new = 0
                for found in sub.objects:
                    specificity = found.specificity(query)
                    previous = merged.get(found.object_id)
                    if previous is None:
                        merged[found.object_id] = (specificity, len(merged), found)
                        new += 1
                    elif specificity < previous[0]:
                        # The object also matches a keyword it is less
                        # specific against — rank by its best match.
                        merged[found.object_id] = (specificity, previous[1], found)
                if remaining is not None:
                    remaining -= new
            ranked = sorted(merged.values(), key=lambda entry: (entry[0], entry[1]))
            objects = tuple(entry[2] for entry in ranked)
            if threshold is not None and len(objects) > threshold:
                objects = objects[:threshold]
                complete = False
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
                    "rounds": rounds,
                }
            )
        return PrefixSearchResult(
            prefix=canonical,
            threshold=threshold,
            matched_keywords=matched,
            expanded_keywords=tuple(expanded),
            objects=objects,
            complete=complete,
            directory_messages=resolution.messages,
            messages=messages,
            rounds=rounds,
            cache_hits=cache_hits,
            trace=query_trace,
        )
