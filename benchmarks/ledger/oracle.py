"""The posting-list oracle every answer is checked against.

Built from the objects a deployment was loaded with and updated by the
operation stream.  One rule per answer (ROADMAP item 4 states it, the
smokes and ``bench_cache`` each re-implement it):

* result ⊆ truth, without duplicates;
* ``threshold=None`` or ``complete`` ⇒ result = truth;
* ``threshold=t`` ⇒ |result| = min(t, |truth|).

A prefix answer is judged against the keywords the directory reported
as matched: they must all extend the prefix, ``complete`` means none is
missing, and truth is the objects *they* carry (an expansion cap
legitimately hides the rest).  Its budget rule is an upper bound only:
the planner spends the shared threshold keyword by keyword, and an
expansion that returns objects already seen leaves the answer short of
``min(t, |truth|)`` without being wrong.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["Oracle"]


class Oracle:
    """keyword -> ids of the objects carrying it, kept current."""

    def __init__(self, items: Iterable[tuple[str, frozenset[str]]] = ()):
        self.objects: dict[str, frozenset[str]] = {}
        self.postings: dict[str, set[str]] = {}
        for object_id, keywords in items:
            self.insert(object_id, keywords)

    # -- the op stream's writes --------------------------------------

    def insert(self, object_id: str, keywords: frozenset[str]) -> None:
        self.objects[object_id] = keywords
        for keyword in keywords:
            self.postings.setdefault(keyword, set()).add(object_id)

    def delete(self, object_id: str) -> None:
        for keyword in self.objects.pop(object_id):
            holders = self.postings[keyword]
            holders.discard(object_id)
            if not holders:
                del self.postings[keyword]

    # -- truth -------------------------------------------------------

    def matching(self, query: frozenset[str]) -> set[str]:
        """Ids of the objects whose keyword set contains ``query``."""
        lists = sorted((self.postings.get(keyword, set()) for keyword in query), key=len)
        return set.intersection(*lists) if lists else set()

    def extending(self, prefix: str) -> set[str]:
        """Indexed keywords that start with ``prefix``."""
        return {keyword for keyword in self.postings if keyword.startswith(prefix)}

    # -- the rule ----------------------------------------------------

    @staticmethod
    def _judge(
        result: tuple[str, ...], truth: set[str], threshold, complete, *, exact_budget=True
    ) -> str | None:
        found = set(result)
        if len(found) != len(result):
            return f"duplicate ids in a result of {len(result)}"
        if not found <= truth:
            return f"{len(found - truth)} ids outside the truth (e.g. {sorted(found - truth)[0]})"
        if (threshold is None or complete) and found != truth:
            return f"incomplete: {len(found)} of {len(truth)} (threshold={threshold})"
        if threshold is not None:
            budget = min(threshold, len(truth))
            if len(found) > budget or (exact_budget and len(found) != budget):
                return f"{len(found)} results, expected min({threshold}, {len(truth)})"
        return None

    def check_search(
        self, query: frozenset[str], threshold: int | None, result: tuple[str, ...], complete: bool
    ) -> str | None:
        """None when the superset answer obeys the rule, else why not."""
        return self._judge(result, self.matching(query), threshold, complete)

    def check_prefix(
        self,
        prefix: str,
        threshold: int | None,
        result: tuple[str, ...],
        complete: bool,
        matched: tuple[str, ...],
    ) -> str | None:
        """None when the prefix answer obeys the rule, else why not."""
        vocabulary = self.extending(prefix)
        stray = set(matched) - vocabulary
        if stray:
            return f"matched keywords not extending {prefix!r}: {sorted(stray)[:3]}"
        if complete and set(matched) != vocabulary:
            return f"complete, yet {len(vocabulary) - len(matched)} matching keywords missing"
        truth: set[str] = set()
        for keyword in matched:
            truth |= self.postings[keyword]
        return self._judge(result, truth, threshold, complete, exact_budget=False)
