"""Cumulative superset search (Sections 2.2 and 3.3).

"Superset search can be designated as *cumulative*, where the results
returned by consecutive searches with the same keyword set must be
different" — the browse-through-pages behaviour of large information
systems.  The paper implements it by letting the root node keep the
frontier queue ``U`` between queries; a session object plays that role
here: each :meth:`next_batch` resumes the T_QUERY walk exactly where the
previous one stopped, including mid-node (a node whose scan was
truncated is re-scanned and its already-served prefix skipped).  An
unreachable node degrades exactly as in
:class:`~repro.core.search.SuperSetSearch` (or raises where it would),
and its visit carries the ladder's status.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.index import HypercubeIndex
from repro.core.keywords import normalize_keywords
from repro.core.search import FoundObject, NodeVisit, SuperSetSearch, decode_scan
from repro.hypercube.sbt import SbtFrontier
from repro.net.errors import PeerUnreachableError

__all__ = ["CumulativeBatch", "CumulativeSearchSession"]


@dataclass(frozen=True)
class CumulativeBatch:
    """One page of results from a cumulative session."""

    objects: tuple[FoundObject, ...]
    visits: tuple[NodeVisit, ...]
    exhausted: bool


class CumulativeSearchSession:
    """A stateful superset search rooted at ``F_h(K)``.

    State kept across batches (conceptually at the root node): the
    T_QUERY frontier (:class:`~repro.hypercube.sbt.SbtFrontier`), the
    entry currently being drained, and how many of its objects have been
    served.
    """

    def __init__(
        self,
        index: HypercubeIndex,
        keywords: Iterable[str],
        *,
        origin: int | None = None,
    ):
        self.index = index
        self.query = normalize_keywords(keywords)
        self.origin = index.dolr.any_address() if origin is None else origin
        self.root_logical = index.mapper.node_for(self.query)
        route = index.mapping.route_to(self.root_logical, origin=self.origin)
        self.root_physical = route.owner
        self._frontier = SbtFrontier(self.root_logical, index.cube.dimension)
        self._searcher = SuperSetSearch(index)
        self._current: tuple[int, int, int] | None = None
        self._served_of_current = 0
        self._visit_counter = 0
        self._total_served = 0

    @property
    def exhausted(self) -> bool:
        """True once the whole subhypercube has been drained."""
        return self._current is None and self._frontier.done

    @property
    def total_served(self) -> int:
        return self._total_served

    def next_batch(self, count: int) -> CumulativeBatch:
        """Serve the next ``count`` objects (fewer iff exhausted)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        objects: list[FoundObject] = []
        visits: list[NodeVisit] = []
        while len(objects) < count and not self.exhausted:
            if self._current is None:
                [self._current], _ = self._frontier.next_batch()
                self._served_of_current = 0
            node, _, depth = self._current
            need = count - len(objects)
            found, drained, physical, status = self._scan_node(
                node, self._served_of_current, need
            )
            objects.extend(found)
            self._served_of_current += len(found)
            self._total_served += len(found)
            visits.append(
                NodeVisit(self._visit_counter, node, physical, depth, len(found), 0, status)
            )
            self._visit_counter += 1
            if drained:
                # Only now is the node's continuation list queued.
                self._frontier.absorb([(self._served_of_current, False, False)])
                self._current = None
        return CumulativeBatch(tuple(objects), tuple(visits), self.exhausted)

    def drain(self, batch_size: int = 64) -> list[FoundObject]:
        """Serve everything remaining, for tests and small cubes."""
        everything: list[FoundObject] = []
        while not self.exhausted:
            batch = self.next_batch(batch_size)
            everything.extend(batch.objects)
            if not batch.objects and batch.exhausted:
                break
        return everything

    # -- internals ------------------------------------------------------

    def _scan_node(
        self, logical: int, skip: int, need: int
    ) -> tuple[list[FoundObject], bool, int, str]:
        """Scan one node, skipping the ``skip`` objects served earlier.

        Returns (newly served objects, node fully drained?, the host
        that answered, the visit status).  The skip re-reads previously
        returned IDs — the price of keeping only a cursor at the root,
        as the paper's design implies.  A degraded scan does not say
        whether its limit cut it, so a full one is re-read next batch.
        """
        dolr = self.index.dolr
        physical = self.index.mapping.physical_owner(logical)
        limit = skip + need
        payload = {
            "namespace": self.index.namespace,
            "logical": logical,
            "keywords": self.query,
            "limit": limit,
        }
        try:
            reply = dolr.rpc_at(self.root_physical, physical, "hindex.scan", payload)
            flat, cut, _ = decode_scan(reply)
            status = "ok"
        except PeerUnreachableError as error:
            flat, status, surrogate, _ = self._searcher._failure_ladder(
                self.root_physical, logical, self.query, limit, error
            )
            physical = physical if surrogate is None else surrogate
            cut = len(flat) >= limit
        fresh = flat[skip:]
        drained = not cut and len(flat) <= limit
        if fresh and physical != self.origin:
            dolr.network.send(
                physical, self.origin, "hindex.results", {"count": len(fresh)}, deliver=False
            )
        return fresh, drained, physical, status
