"""Unit tests for spanning binomial trees (Definition 3.2, Lemma 3.2)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypercube.hypercube import Hypercube
from repro.hypercube.sbt import SbtFrontier, SpanningBinomialTree, TraversalOrder


def build_figure4_tree() -> SpanningBinomialTree:
    """SBT_{H_4}(0100) — the tree of Figure 4(b)."""
    return SpanningBinomialTree.induced(Hypercube(4), 0b0100)


class TestFigure4:
    def test_root_children(self):
        tree = build_figure4_tree()
        assert tree.children(0b0100) == (0b1100, 0b0110, 0b0101)

    def test_parent_relationships(self):
        tree = build_figure4_tree()
        assert tree.parent(0b1100) == 0b0100
        assert tree.parent(0b0110) == 0b0100
        assert tree.parent(0b0101) == 0b0100
        assert tree.parent(0b1110) == 0b1100
        assert tree.parent(0b1101) == 0b1100
        assert tree.parent(0b0111) == 0b0110
        assert tree.parent(0b1111) == 0b1110

    def test_root_has_no_parent(self):
        assert build_figure4_tree().parent(0b0100) is None

    def test_size_spans_subcube(self):
        assert build_figure4_tree().size == 8


class TestStructuralInvariants:
    @pytest.mark.parametrize("dimension,root", [(4, 0), (4, 0b0110), (5, 0b10001), (6, 0)])
    def test_spans_every_node_exactly_once(self, dimension, root):
        tree = SpanningBinomialTree.induced(Hypercube(dimension), root)
        visited = [node for node, _ in tree.bfs()]
        assert len(visited) == tree.size
        assert len(set(visited)) == tree.size

    def test_full_cube_tree_spans_cube(self):
        cube = Hypercube(5)
        tree = SpanningBinomialTree.of_cube(cube, 0b10101)
        visited = {node for node, _ in tree.bfs()}
        assert visited == set(cube.nodes())

    def test_parent_child_consistency(self):
        tree = SpanningBinomialTree.induced(Hypercube(6), 0b001001)
        for node, _ in tree.bfs():
            for child in tree.children(node):
                assert tree.parent(child) == node

    def test_lemma32_depth_equals_hamming_distance(self):
        cube = Hypercube(6)
        tree = SpanningBinomialTree.induced(cube, 0b010010)
        for node, depth in tree.bfs():
            assert depth == cube.hamming(node, 0b010010)

    def test_level_sizes_binomial(self):
        tree = SpanningBinomialTree.induced(Hypercube(6), 0b100000)
        for depth in range(tree.height + 1):
            assert len(list(tree.level(depth))) == math.comb(tree.height, depth)

    def test_parent_edge_is_hypercube_edge(self):
        cube = Hypercube(5)
        tree = SpanningBinomialTree.induced(cube, 0b00010)
        for node, _ in tree.bfs():
            parent = tree.parent(node)
            if parent is not None:
                assert cube.hamming(node, parent) == 1

    def test_branch_dimension_is_lowest_differing(self):
        tree = SpanningBinomialTree.induced(Hypercube(5), 0b00100)
        assert tree.branch_dimension(0b00100) == -1
        assert tree.branch_dimension(0b00101) == 0
        assert tree.branch_dimension(0b01100) == 3

    def test_membership(self):
        tree = SpanningBinomialTree.induced(Hypercube(4), 0b0100)
        assert 0b0101 in tree
        assert 0b0001 not in tree  # does not contain the root
        with pytest.raises(ValueError):
            tree.depth(0b0001)


class TestTraversals:
    def test_bfs_depths_nondecreasing(self):
        tree = SpanningBinomialTree.induced(Hypercube(6), 0b000100)
        depths = [depth for _, depth in tree.bfs()]
        assert depths == sorted(depths)

    def test_bottom_up_depths_nonincreasing(self):
        tree = SpanningBinomialTree.induced(Hypercube(5), 0b00001)
        depths = [depth for _, depth in tree.bfs_bottom_up()]
        assert depths == sorted(depths, reverse=True)

    def test_bottom_up_visits_everything(self):
        tree = SpanningBinomialTree.induced(Hypercube(5), 0b01000)
        assert {n for n, _ in tree.bfs_bottom_up()} == {n for n, _ in tree.bfs()}

    def test_dfs_visits_everything(self):
        tree = SpanningBinomialTree.induced(Hypercube(5), 0b00100)
        assert {n for n, _ in tree.dfs()} == {n for n, _ in tree.bfs()}

    def test_dfs_preorder_parent_before_child(self):
        tree = SpanningBinomialTree.induced(Hypercube(5), 0)
        position = {node: i for i, (node, _) in enumerate(tree.dfs())}
        for node in position:
            parent = tree.parent(node)
            if parent is not None:
                assert position[parent] < position[node]

    def test_path_to_root(self):
        tree = build_figure4_tree()
        assert tree.path_to_root(0b1111) == [0b1111, 0b1110, 0b1100, 0b0100]
        assert tree.path_to_root(0b0100) == [0b0100]

    def test_path_length_is_depth(self):
        tree = SpanningBinomialTree.induced(Hypercube(6), 0b010000)
        for node, depth in tree.bfs():
            assert len(tree.path_to_root(node)) == depth + 1

    def test_level_invalid_depth(self):
        with pytest.raises(ValueError):
            list(build_figure4_tree().level(4))


class TestBfsMatchesProtocolQueue:
    def test_bfs_order_equals_tquery_queue_order(self):
        """The T_QUERY queue (FIFO of (node, d) pairs, children with
        dimensions below d) must walk exactly the SBT in BFS order."""
        from collections import deque

        cube = Hypercube(6)
        root = 0b001000
        tree = SpanningBinomialTree.induced(cube, root)

        order = [root]
        queue = deque(
            (root | (1 << i), i)
            for i in range(cube.dimension - 1, -1, -1)
            if not (root >> i) & 1
        )
        while queue:
            node, d = queue.popleft()
            order.append(node)
            queue.extend(
                (node | (1 << i), i)
                for i in range(cube.dimension - 1, -1, -1)
                if i < d and not (node >> i) & 1
            )
        assert order == [node for node, _ in tree.bfs()]


def _reference_batches(
    tree: SpanningBinomialTree, order: TraversalOrder, pruned: set[int]
) -> list[list[tuple[int, int]]]:
    """The tree's traversal for ``order``, minus every node below a
    pruned one (a cooperative hit answers for its whole subtree)."""
    if order is TraversalOrder.BOTTOM_UP:
        return [[entry] for entry in tree.bfs_bottom_up()]
    reached = [
        (node, depth)
        for node, depth in tree.bfs()
        if not pruned.intersection(tree.path_to_root(node)[1:])
    ]
    if order is TraversalOrder.TOP_DOWN:
        return [[entry] for entry in reached]
    levels: list[list[tuple[int, int]]] = [[] for _ in range(tree.height + 1)]
    for node, depth in reached:
        levels[depth].append((node, depth))
    return [level for level in levels if level]


class TestSbtFrontier:
    """The I/O-free walk every superset search drives: its batches are
    the tree's traversals, and its budget and completeness follow a
    brute-force model of the stated rules."""

    @pytest.mark.parametrize("order", list(TraversalOrder), ids=lambda order: order.value)
    @settings(max_examples=100, deadline=None)
    @given(
        dimension=st.integers(min_value=1, max_value=11),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        prune_rate=st.sampled_from((0.0, 0.1, 0.4)),
    )
    def test_batches_budget_and_completeness(self, order, dimension, data, seed, prune_rate):
        root = data.draw(st.integers(min_value=0, max_value=(1 << dimension) - 1))
        threshold = data.draw(st.none() | st.integers(min_value=1, max_value=12))
        tree = SpanningBinomialTree.induced(Hypercube(dimension), root)
        rng = random.Random(seed)
        matches = {node: rng.choice((0, 0, 0, 1, 2, 5)) for node, _ in tree.bfs()}
        # BOTTOM_UP never consults path caches, so nothing prunes it.
        pruned = (
            set()
            if order is TraversalOrder.BOTTOM_UP
            else {node for node in matches if rng.random() < prune_rate}
        )
        reference = _reference_batches(tree, order, pruned)

        # The model: each batch carries the budget left when it is
        # issued, the walk stops once the threshold is met, and a
        # crossing batch's overshoot is dropped.
        kept: list[tuple[int, int]] = []
        visited, cut, remaining = 0, False, threshold
        for batch in reference:
            limit = remaining
            for node, _ in batch:
                returned = matches[node] if limit is None else min(matches[node], limit)
                cut = cut or returned < matches[node]
                kept += [(node, k) for k in range(returned)]
                visited += 1
            if threshold is not None:
                remaining = threshold - len(kept)
                if remaining <= 0:
                    break
        dropped = kept[threshold:] if threshold is not None else []
        del kept[len(kept) - len(dropped) :]
        complete = visited == sum(map(len, reference)) and not cut and not dropped

        frontier = SbtFrontier(root, dimension, threshold, order)
        batches, objects = [], []
        while not frontier.done:
            batch, limit = frontier.next_batch()
            batches.append([(node, depth) for node, _, depth in batch])
            replies = []
            for node, _, _ in batch:
                returned = matches[node] if limit is None else min(matches[node], limit)
                objects += [(node, k) for k in range(returned)]
                replies.append((returned, returned < matches[node], node in pruned))
            frontier.absorb(replies)
        del objects[frontier.kept :]

        assert batches == reference[: len(batches)]
        assert sum(map(len, batches)) == visited
        assert frontier.complete == complete
        assert objects == kept
        assert frontier.trimmed == len(dropped)

    def test_bottom_up_is_the_top_down_walk_reversed(self):
        top_down = SbtFrontier(0b0010, 5)
        bottom_up = SbtFrontier(0b0010, 5, order=TraversalOrder.BOTTOM_UP)
        forward, backward = [], []
        for frontier, sequence in ((top_down, forward), (bottom_up, backward)):
            while not frontier.done:
                batch, _ = frontier.next_batch()
                sequence += batch
                frontier.absorb([(0, False, False)])
        assert backward == forward[::-1]
