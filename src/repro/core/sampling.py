"""Category sampling and query refinement (Section 1's ranking sketch).

The introduction promises that the index scheme "may also sample some
objects in each category ... objects that have an extra keyword σ1, an
extra keyword σ2, ..., two extra keywords σ1, σ2, ...; and then return
these sample objects along with their extra keyword(s) to help users
refine their queries.  Note that no global knowledge is required."

:class:`SampledSearch` implements that: walk the subhypercube top-down
(so shallow, general categories fill first), group results by their
*extra-keyword set*, keep a bounded number of samples per category, and
stop once enough categories are filled.  :func:`suggest_refinements`
turns a sample into ranked single-keyword refinements, scored by how
often the keyword appears and how much the refined query would shrink
the search space (Lemma 3.3's subcube reduction) — all computed from
the returned samples, with no global statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.core.index import HypercubeIndex
from repro.core.keywords import normalize_keywords
from repro.core.search import FoundObject, NodeVisit, SuperSetSearch
from repro.hypercube.sbt import SbtFrontier
from repro.net.errors import PeerUnreachableError

__all__ = ["Refinement", "SampleResult", "SampledSearch", "suggest_refinements"]


@dataclass(frozen=True)
class SampleResult:
    """Samples grouped by extra-keyword category.

    ``degraded_visits`` are the visits whose host was unreachable and
    that the superset search's failure ladder served instead (their
    entries may be missing); any of them makes the sample non-
    ``exhaustive``.
    """

    query: frozenset[str]
    categories: dict[frozenset[str], tuple[FoundObject, ...]]
    visits: int
    exhaustive: bool
    degraded_visits: tuple[NodeVisit, ...] = ()

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    def samples(self) -> list[FoundObject]:
        """All samples, categories interleaved in discovery order."""
        return [found for group in self.categories.values() for found in group]

    def general_first(self) -> list[frozenset[str]]:
        """Category keys ordered by ascending extra-keyword count."""
        return sorted(self.categories, key=lambda extra: (len(extra), sorted(extra)))


@dataclass(frozen=True)
class Refinement:
    """One suggested query refinement."""

    keyword: str
    refined_query: frozenset[str]
    support: int
    subcube_reduction: float

    @property
    def score(self) -> float:
        """Support weighted by how much the search space shrinks."""
        return self.support * self.subcube_reduction


class SampledSearch:
    """Collect bounded per-category samples from a superset search."""

    def __init__(self, index: HypercubeIndex, *, contact_mode: str = "direct"):
        self.index = index
        self._searcher = SuperSetSearch(index, contact_mode=contact_mode)

    def run(
        self,
        keywords: Iterable[str],
        *,
        per_category: int = 2,
        max_categories: int = 16,
        max_visits: int | None = None,
        origin: int | None = None,
    ) -> SampleResult:
        """Sample the matching set of ``keywords``.

        Walks the induced subhypercube breadth-first (the T_QUERY order)
        and stops early once ``max_categories`` categories each hold
        ``per_category`` samples, or after ``max_visits`` nodes.  An
        unreachable node degrades exactly as in
        :class:`~repro.core.search.SuperSetSearch` (or raises where it
        would).
        """
        if per_category < 1:
            raise ValueError(f"per_category must be >= 1, got {per_category}")
        if max_categories < 1:
            raise ValueError(f"max_categories must be >= 1, got {max_categories}")
        query = normalize_keywords(keywords)
        index = self.index
        dolr = index.dolr
        origin = dolr.any_address() if origin is None else origin
        root = index.mapper.node_for(query)
        route = index.mapping.route_to(root, origin=origin)

        categories: dict[frozenset[str], list[FoundObject]] = {}
        visits = 0

        def full() -> bool:
            return len(categories) >= max_categories and all(
                len(group) >= per_category for group in categories.values()
            )

        def absorb(found: list[FoundObject]) -> None:
            for sample in found:
                extra = sample.keywords - query
                group = categories.get(extra)
                if group is None:
                    if len(categories) >= max_categories:
                        continue
                    group = categories[extra] = []
                if len(group) < per_category:
                    group.append(sample)

        frontier = SbtFrontier(root, index.cube.dimension)
        exhaustive = True
        degraded: list[NodeVisit] = []
        while not frontier.done:
            if full() or (max_visits is not None and visits >= max_visits):
                exhaustive = False
                break
            [(node, _, depth)], _ = frontier.next_batch()
            physical = (
                route.owner if node == root else index.mapping.physical_owner(node)
            )
            sender = origin if node == root else route.owner
            try:
                found = self._searcher._scan(sender, physical, index.namespace, node, query, None)
            except PeerUnreachableError as error:
                found, status, surrogate, hops = self._searcher._failure_ladder(
                    sender, node, query, None, error
                )
                host = physical if surrogate is None else surrogate
                degraded.append(NodeVisit(visits, node, host, depth, len(found), hops, status))
                exhaustive = False
            visits += 1
            absorb(found)
            frontier.absorb([(len(found), False, False)])
        return SampleResult(
            query=query,
            categories={key: tuple(group) for key, group in categories.items()},
            visits=visits,
            exhaustive=exhaustive,
            degraded_visits=tuple(degraded),
        )


def suggest_refinements(
    sample: SampleResult, index: HypercubeIndex, *, limit: int = 5
) -> list[Refinement]:
    """Rank single-keyword refinements of the sampled query.

    Support = number of sampled objects carrying the keyword; subcube
    reduction = 1 - |H_r(F_h(K ∪ {w}))| / |H_r(F_h(K))| (0 when the new
    keyword hashes into a dimension the query already occupies).
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    cube = index.cube
    base_node = index.mapper.node_for(sample.query) if sample.query else 0
    base_size = cube.subcube_size(base_node) if sample.query else cube.num_nodes
    support: dict[str, int] = {}
    for found in sample.samples():
        for keyword in found.keywords - sample.query:
            support[keyword] = support.get(keyword, 0) + 1
    suggestions = []
    for keyword, count in support.items():
        refined = sample.query | {keyword}
        refined_size = cube.subcube_size(index.mapper.node_for(refined))
        reduction = 1.0 - refined_size / base_size
        suggestions.append(
            Refinement(
                keyword=keyword,
                refined_query=frozenset(refined),
                support=count,
                subcube_reduction=reduction,
            )
        )
    suggestions.sort(key=lambda r: (-r.score, -r.support, r.keyword))
    return suggestions[:limit]
