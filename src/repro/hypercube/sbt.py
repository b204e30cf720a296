"""Spanning binomial trees (Definition 3.2).

For a root ``u`` in ``H_r``, the spanning binomial tree ``SBT(u)``
connects all 2**r nodes: for a non-root node ``v``, let ``p`` be the
*lowest* dimension at which ``v`` and ``u`` differ; the parent of ``v``
flips bit ``p`` back toward ``u`` and the children of ``v`` flip the
dimensions strictly below ``p`` (every dimension, for the root).  A node
at depth ``d`` has Hamming distance exactly ``d`` from the root — the
property the superset search exploits to return objects ordered by the
number of extra keywords (Lemma 3.2).

The same construction, restricted to the free (zero) dimensions of the
root, yields the *induced* tree ``SBT_{H_r}(u)`` spanning the
subhypercube ``H_r(u)``; this is the tree the T_QUERY protocol walks.
Both variants are served by one class, parameterized by the set of free
dimensions.

:class:`SbtFrontier` is the walk itself, with no I/O: the T_QUERY queue
of ``(node, d)`` pairs, the result budget, and the completeness rule.
Every superset walk drives it; the three :class:`TraversalOrder` values
only schedule the same tree differently.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Iterable, Iterator

from repro.hypercube.hypercube import Hypercube
from repro.hypercube.subcube import SubHypercube
from repro.util import bitops

__all__ = ["SbtFrontier", "SpanningBinomialTree", "TraversalOrder", "continuation"]


class TraversalOrder(enum.Enum):
    """How the spanning binomial tree is explored."""

    TOP_DOWN = "top_down"
    BOTTOM_UP = "bottom_up"
    PARALLEL = "parallel"


def continuation(node: int, bound: int, depth: int = 0) -> list[tuple[int, int, int]]:
    """The T_QUERY continuation list of ``node``, reached under bound
    ``d`` at ``depth``: ``{(node | 1 << i, i) | i < d, i ∈ Zero(node)}``,
    descending ``i`` — the node's children in the induced tree (the
    root's bound is the cube dimension) — as ``(child, i, depth + 1)``
    frontier entries.

    >>> continuation(0b0100, 4)
    [(12, 3, 1), (6, 1, 1), (5, 0, 1)]
    """
    below = depth + 1
    return [(node | 1 << i, i, below) for i in range(bound - 1, -1, -1) if not node >> i & 1]


class SbtFrontier:
    """One walk of the induced tree ``SBT_{H_r}(root)``, with no I/O.

    The caller alternates :meth:`next_batch` (the entries to scan and the
    limit they carry) and :meth:`absorb` (what each scan returned) until
    :attr:`done`.  Entries are ``(node, d, depth)``: ``d`` bounds the
    node's continuation list, ``depth`` is its distance from the root.
    The order only schedules the tree:

    * ``TOP_DOWN``: one entry per batch from the FIFO queue ``U`` — the
      paper's T_QUERY, a breadth-first walk;
    * ``BOTTOM_UP``: one entry per batch from the whole FIFO expansion
      reversed, deepest first — never pruned;
    * ``PARALLEL``: the whole queue per batch, which after a level is
      absorbed holds exactly the next level (Section 3.5).

    Budget: a batch carries the budget remaining when it is issued, so a
    sequential visit sees every earlier reply and a level shares its
    entry budget.  A batch that crosses the threshold has its overshoot
    trimmed (:attr:`trimmed`; the caller keeps the first :attr:`kept`
    results).  The walk is :attr:`complete` iff nothing is left in the
    queue, no absorbed scan was limit-cut, and nothing was trimmed.

    >>> frontier = SbtFrontier(0b0100, 4, threshold=2)
    >>> frontier.next_batch()
    ([(4, 4, 0)], 2)
    >>> frontier.absorb([(1, False, False)])
    >>> frontier.next_batch()
    ([(12, 3, 1)], 1)
    >>> frontier.absorb([(1, False, False)])
    >>> frontier.done, frontier.complete
    (True, False)
    """

    __slots__ = (
        "remaining",
        "kept",
        "cut",
        "trimmed",
        "_threshold",
        "_queue",
        "_batch",
        "_level",
        "_grow",
    )

    def __init__(
        self,
        root: int,
        dimension: int,
        threshold: int | None = None,
        order: TraversalOrder = TraversalOrder.TOP_DOWN,
    ):
        self.remaining = threshold
        self.kept = 0
        self.cut = False
        self.trimmed = 0
        self._threshold = threshold
        self._level = order is TraversalOrder.PARALLEL
        self._grow = order is not TraversalOrder.BOTTOM_UP
        self._batch: list[tuple[int, int, int]] = []
        entries = [(root, dimension, 0)]
        if not self._grow:
            # The whole FIFO expansion (the list grows while it is
            # read), deepest first.
            for node, d, depth in entries:
                entries.extend(continuation(node, d, depth))
            entries.reverse()
        self._queue = deque(entries)

    @property
    def done(self) -> bool:
        """True once nothing is queued or the threshold is met."""
        return not self._queue or (self.remaining is not None and self.remaining <= 0)

    @property
    def complete(self) -> bool:
        return not self._queue and not self.cut and not self.trimmed

    def next_batch(self) -> tuple[list[tuple[int, int, int]], int | None]:
        """The next entries to scan, and the result limit they carry."""
        queue = self._queue
        if self._level:
            self._batch = list(queue)
            queue.clear()
        else:
            self._batch = [queue.popleft()]
        return self._batch, self.remaining

    def absorb(self, replies: Iterable[tuple[int, bool, bool]]) -> None:
        """Take the last batch's replies, one ``(returned, cut, pruned)``
        per entry in batch order: queue each entry's children unless a
        cooperative hit answered for its whole subtree (``pruned``),
        charge the budget, and trim a threshold overshoot."""
        queue = self._queue
        grow = self._grow
        total = 0
        for (node, d, depth), (returned, cut, pruned) in zip(self._batch, replies):
            total += returned
            if cut:
                self.cut = True
            if grow and not pruned:
                queue.extend(continuation(node, d, depth))
        self.kept += total
        if self.remaining is not None:
            self.remaining -= total
            if self.kept > self._threshold:
                self.trimmed += self.kept - self._threshold
                self.kept = self._threshold


class SpanningBinomialTree:
    """A spanning binomial tree rooted at ``root``.

    ``free_mask`` selects the dimensions the tree spans: the full cube
    mask for ``SBT(u)``, or ``~u`` for the induced ``SBT_{H_r}(u)``.
    Use the :meth:`of_cube` / :meth:`induced` constructors.

    >>> cube = Hypercube(4)
    >>> tree = SpanningBinomialTree.induced(cube, 0b0100)
    >>> tree.children(0b0100)
    (12, 6, 5)
    >>> tree.parent(0b1100)
    4
    >>> tree.depth(0b1101)
    2
    """

    def __init__(self, cube: Hypercube, root: int, free_mask: int):
        cube.check_node(root)
        cube.check_node(free_mask)
        self.cube = cube
        self.root = root
        self.free_mask = free_mask
        self.free_dimensions = bitops.one_positions(free_mask, cube.dimension)

    @classmethod
    def of_cube(cls, cube: Hypercube, root: int) -> "SpanningBinomialTree":
        """``SBT(root)`` spanning the whole of ``H_r``."""
        return cls(cube, root, cube.mask)

    @classmethod
    def induced(cls, cube: Hypercube, root: int) -> "SpanningBinomialTree":
        """``SBT_{H_r}(root)`` spanning the subhypercube induced by
        ``root`` (free dimensions = Zero(root))."""
        return cls(cube, root, cube.mask & ~root)

    # -- membership -------------------------------------------------------

    @property
    def size(self) -> int:
        return 1 << len(self.free_dimensions)

    @property
    def height(self) -> int:
        """Maximum depth — the number of spanned dimensions."""
        return len(self.free_dimensions)

    def __contains__(self, node: int) -> bool:
        if not 0 <= node <= self.cube.mask:
            return False
        return (node ^ self.root) & ~self.free_mask == 0

    def _check_member(self, node: int) -> int:
        if node not in self:
            raise ValueError(f"node {node} not spanned by this tree")
        return node

    # -- structure ----------------------------------------------------------

    def depth(self, node: int) -> int:
        """Depth = Hamming distance from the root (Lemma 3.2)."""
        self._check_member(node)
        return bitops.popcount(node ^ self.root)

    def branch_dimension(self, node: int) -> int:
        """The paper's ``p``: the lowest dimension at which ``node``
        differs from the root, or -1 for the root itself."""
        self._check_member(node)
        return bitops.lowest_set_bit(node ^ self.root)

    def parent(self, node: int) -> int | None:
        """The parent per Definition 3.2 (None for the root)."""
        p = self.branch_dimension(node)
        if p == -1:
            return None
        return node ^ (1 << p)

    def children(self, node: int) -> tuple[int, ...]:
        """Children per Definition 3.2: flip each free dimension strictly
        below the branch dimension (all free dimensions, at the root).
        Ordered by descending dimension, matching the definition's
        ``Z_v = {p-1, ..., 1, 0}``."""
        p = self.branch_dimension(node)
        ceiling = self.cube.dimension if p == -1 else p
        return tuple(
            node ^ (1 << d)
            for d in reversed(self.free_dimensions)
            if d < ceiling
        )

    def child_dimensions(self, node: int) -> tuple[int, ...]:
        """The dimensions the children of ``node`` flip, descending."""
        p = self.branch_dimension(node)
        ceiling = self.cube.dimension if p == -1 else p
        return tuple(d for d in reversed(self.free_dimensions) if d < ceiling)

    # -- traversal ------------------------------------------------------------

    def bfs(self) -> Iterator[tuple[int, int]]:
        """Breadth-first (top-down) traversal: yields (node, depth) with
        depths non-decreasing — exactly the order a FIFO frontier (the
        protocol's queue U) visits the tree."""
        from collections import deque

        frontier: deque[int] = deque([self.root])
        while frontier:
            node = frontier.popleft()
            yield node, self.depth(node)
            frontier.extend(self.children(node))

    def bfs_bottom_up(self) -> Iterator[tuple[int, int]]:
        """Level order starting from the deepest level — the variant
        Section 3.3 sketches for preferring more specific objects."""
        for depth in range(self.height, -1, -1):
            for node in self.level(depth):
                yield node, depth

    def dfs(self) -> Iterator[tuple[int, int]]:
        """Depth-first preorder, children in definition order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node, self.depth(node)
            stack.extend(reversed(self.children(node)))

    def level(self, depth: int) -> Iterator[int]:
        """All nodes at a given depth.  On a level of more than one node
        the order is the *reverse* of the order :meth:`bfs` visits it,
        which is what makes :meth:`bfs_bottom_up` the BFS reversed."""
        if not 0 <= depth <= self.height:
            raise ValueError(f"depth must be in [0, {self.height}], got {depth}")
        sub = SubHypercube(self.cube, self.root & ~self.free_mask)
        if self.free_mask == sub.free_mask and self.root & self.free_mask == 0:
            yield from sub.nodes_at_depth(depth)
            return
        # General case (full-cube tree rooted anywhere): XOR the root
        # with every weight-`depth` pattern over the free dimensions.
        for positions in _combinations(self.free_dimensions, depth):
            delta = 0
            for dimension in positions:
                delta |= 1 << dimension
            yield self.root ^ delta

    def path_to_root(self, node: int) -> list[int]:
        """The node's ancestor chain, starting at ``node`` and ending at
        the root."""
        self._check_member(node)
        path = [node]
        current = node
        while True:
            parent = self.parent(current)
            if parent is None:
                return path
            path.append(parent)
            current = parent


def _combinations(pool: tuple[int, ...], count: int) -> Iterator[tuple[int, ...]]:
    import itertools

    yield from itertools.combinations(pool, count)
