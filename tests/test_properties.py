"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.balls import expected_one_count, one_count_distribution
from repro.core.cache import FifoQueryCache, LruQueryCache
from repro.core.keywords import KeywordSetMapper
from repro.core.mapping import HypercubeMapping
from repro.dht.chord import ChordNetwork
from repro.dht.kademlia import KademliaNetwork
from repro.dht.pastry import PastryNetwork
from repro.hypercube.hypercube import Hypercube
from repro.hypercube.sbt import SpanningBinomialTree
from repro.hypercube.subcube import SubHypercube
from repro.util import bitops
from repro.util.zipf import ZipfDistribution

dimensions = st.integers(min_value=1, max_value=10)

_BUILDERS = {
    "chord": ChordNetwork.build,
    "pastry": PastryNetwork.build,
    "kademlia": KademliaNetwork.build,
}


@st.composite
def cube_and_node(draw):
    r = draw(dimensions)
    node = draw(st.integers(min_value=0, max_value=(1 << r) - 1))
    return Hypercube(r), node


@st.composite
def cube_and_two_nodes(draw):
    r = draw(dimensions)
    u = draw(st.integers(min_value=0, max_value=(1 << r) - 1))
    v = draw(st.integers(min_value=0, max_value=(1 << r) - 1))
    return Hypercube(r), u, v


class TestBitopsProperties:
    @given(cube_and_node())
    def test_one_zero_partition(self, cube_node):
        cube, node = cube_node
        ones = set(bitops.one_positions(node, cube.dimension))
        zeros = set(bitops.zero_positions(node, cube.dimension))
        assert ones | zeros == set(range(cube.dimension))
        assert not ones & zeros
        assert len(ones) == bitops.popcount(node)

    @given(cube_and_two_nodes())
    def test_hamming_is_metric(self, cube_nodes):
        _, u, v = cube_nodes
        assert bitops.hamming_distance(u, v) == bitops.hamming_distance(v, u)
        assert (bitops.hamming_distance(u, v) == 0) == (u == v)

    @given(cube_and_two_nodes())
    def test_containment_antisymmetry(self, cube_nodes):
        _, u, v = cube_nodes
        if bitops.contains(u, v) and bitops.contains(v, u):
            assert u == v

    @given(cube_and_node())
    def test_flip_changes_hamming_by_one(self, cube_node):
        cube, node = cube_node
        for dim in range(cube.dimension):
            assert bitops.hamming_distance(node, bitops.flip_bit(node, dim)) == 1


class TestSubcubeProperties:
    @given(cube_and_node())
    def test_subcube_size_formula(self, cube_node):
        cube, inducer = cube_node
        sub = SubHypercube(cube, inducer)
        members = list(sub.nodes())
        assert len(members) == cube.subcube_size(inducer)
        assert len(set(members)) == len(members)

    @given(cube_and_node())
    def test_subcube_membership_characterization(self, cube_node):
        cube, inducer = cube_node
        sub = SubHypercube(cube, inducer)
        for node in cube.nodes():
            assert (node in sub) == cube.contains_node(node, inducer)

    @given(cube_and_two_nodes())
    def test_lemma33(self, cube_nodes):
        # inducer u2 contains u1  <=>  subcube(u2) ⊆ subcube(u1).
        cube, u1, u2 = cube_nodes
        sub1 = SubHypercube(cube, u1)
        sub2 = SubHypercube(cube, u2)
        if cube.contains_node(u2, u1):
            assert sub2.is_subcube_of(sub1)
            assert set(sub2.nodes()) <= set(sub1.nodes())

    @given(cube_and_node())
    def test_compact_expand_bijection(self, cube_node):
        cube, inducer = cube_node
        sub = SubHypercube(cube, inducer)
        seen = set()
        for node in sub.nodes():
            compact = sub.compact(node)
            assert 0 <= compact < sub.size
            assert sub.expand(compact) == node
            seen.add(compact)
        assert len(seen) == sub.size


class TestSbtProperties:
    @given(cube_and_node())
    def test_tree_spans_subcube_once(self, cube_node):
        cube, root = cube_node
        tree = SpanningBinomialTree.induced(cube, root)
        visited = [node for node, _ in tree.bfs()]
        assert sorted(visited) == sorted(SubHypercube(cube, root).nodes())
        assert len(set(visited)) == len(visited)

    @given(cube_and_node())
    def test_depth_equals_hamming(self, cube_node):
        cube, root = cube_node
        tree = SpanningBinomialTree.induced(cube, root)
        for node, depth in tree.bfs():
            assert depth == cube.hamming(node, root)

    @given(cube_and_node())
    def test_children_partition(self, cube_node):
        # Every non-root node appears as a child of exactly one node.
        cube, root = cube_node
        tree = SpanningBinomialTree.induced(cube, root)
        child_count: dict[int, int] = {}
        for node, _ in tree.bfs():
            for child in tree.children(node):
                child_count[child] = child_count.get(child, 0) + 1
        assert all(count == 1 for count in child_count.values())
        assert set(child_count) == {n for n, _ in tree.bfs()} - {root}

    @given(cube_and_node())
    def test_bfs_is_queue_order(self, cube_node):
        cube, root = cube_node
        tree = SpanningBinomialTree.induced(cube, root)
        depths = [depth for _, depth in tree.bfs()]
        assert depths == sorted(depths)


class TestMapperProperties:
    keyword_sets = st.sets(
        st.text(alphabet="abcdefghij", min_size=1, max_size=6), min_size=1, max_size=8
    )

    @given(dimensions, keyword_sets, keyword_sets)
    def test_fh_monotone(self, r, k1, k2):
        # K1 ⊆ K1 ∪ K2  ⇒  F_h(K1 ∪ K2) contains F_h(K1).
        cube = Hypercube(r)
        mapper = KeywordSetMapper(cube)
        union = k1 | k2
        assert cube.contains_node(mapper.node_for(union), mapper.node_for(k1))

    @given(dimensions, keyword_sets)
    def test_fh_weight_bounds(self, r, keywords):
        mapper = KeywordSetMapper(Hypercube(r))
        weight = mapper.one_count(keywords)
        normalized = {k.strip().casefold() for k in keywords}
        assert 1 <= weight <= min(len(normalized), r)

    @given(dimensions, keyword_sets)
    def test_fh_deterministic(self, r, keywords):
        a = KeywordSetMapper(Hypercube(r))
        b = KeywordSetMapper(Hypercube(r))
        assert a.node_for(keywords) == b.node_for(keywords)


class TestCacheProperties:
    operations = st.lists(
        st.tuples(
            st.sampled_from(["put", "get"]),
            st.integers(min_value=0, max_value=9),  # query id
            st.integers(min_value=0, max_value=5),  # result count
        ),
        max_size=60,
    )

    @given(st.integers(min_value=0, max_value=8), operations)
    def test_capacity_never_exceeded_entries(self, capacity, ops):
        cache = FifoQueryCache(capacity)
        self._run_ops(cache, ops)
        assert len(cache) <= capacity
        assert cache.used <= capacity

    @given(st.integers(min_value=0, max_value=12), operations)
    def test_capacity_never_exceeded_references(self, capacity, ops):
        cache = LruQueryCache(capacity, unit="references")
        self._run_ops(cache, ops)
        assert cache.used <= capacity

    @staticmethod
    def _run_ops(cache, ops):
        for op, query_id, count in ops:
            query = frozenset({f"q{query_id}"})
            if op == "put":
                results = tuple((f"o{i}", frozenset({"k"})) for i in range(count))
                cache.put(query, results, complete=count % 2 == 0)
            else:
                entry = cache.get(query, count or None)
                if entry is not None:
                    assert entry.satisfies(count or None)


class TestDhtProperties:
    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=30))
    @settings(deadline=None, max_examples=20)
    def test_chord_lookup_equals_local_owner(self, seed, num_nodes):
        from repro.dht.chord import ChordNetwork

        ring = ChordNetwork.build(bits=12, num_nodes=num_nodes, seed=seed)
        origin = ring.any_address()
        for key in range(0, 4096, 487):
            assert ring.lookup(key, origin=origin).owner == ring.local_owner(key)

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=30))
    @settings(deadline=None, max_examples=20)
    def test_pastry_lookup_equals_local_owner(self, seed, num_nodes):
        from repro.dht.pastry import PastryNetwork

        overlay = PastryNetwork.build(bits=12, num_nodes=num_nodes, seed=seed)
        origin = overlay.any_address()
        for key in range(0, 4096, 487):
            assert overlay.lookup(key, origin=origin).owner == overlay.local_owner(key)

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=2, max_value=30))
    @settings(deadline=None, max_examples=15)
    def test_kademlia_lookup_equals_local_owner(self, seed, num_nodes):
        from repro.dht.kademlia import KademliaNetwork

        overlay = KademliaNetwork.build(bits=12, num_nodes=num_nodes, seed=seed)
        origin = overlay.any_address()
        for key in range(0, 4096, 487):
            assert overlay.lookup(key, origin=origin).owner == overlay.local_owner(key)

    @staticmethod
    def _reference_owner(substrate: str, addresses: list[int], key: int, size: int) -> int:
        """Ownership by brute force over the address set: the formulas
        local_owner used before it bisected a cached tuple."""
        if substrate == "chord":
            ordered = sorted(addresses)
            return next((a for a in ordered if a >= key), ordered[0])
        if substrate == "pastry":
            return min(addresses, key=lambda a: (min(abs(a - key), size - abs(a - key)), a))
        return min(addresses, key=lambda a: (a ^ key, a))

    @pytest.mark.parametrize("substrate", ["chord", "pastry", "kademlia"])
    @given(
        seed=st.integers(min_value=0, max_value=200),
        num_nodes=st.integers(min_value=1, max_value=30),
        keys=st.lists(st.integers(min_value=0, max_value=4095), max_size=20),
        leaver=st.integers(min_value=0),
    )
    @settings(deadline=None, max_examples=25)
    def test_local_owner_matches_brute_force(self, substrate, seed, num_nodes, keys, leaver):
        overlay = _BUILDERS[substrate](bits=12, num_nodes=num_nodes, seed=seed)
        size = overlay.space.size
        addresses = overlay.addresses()
        # Add the edge cases: keys on, next to, and midway between nodes
        # (Pastry's equal-distance tie-break).
        ring = addresses + [addresses[0] + size]
        keys = list(keys) + [a % size for a in addresses for a in (a - 1, a, a + 1)]
        keys += [((a + b) // 2) % size for a, b in zip(ring, ring[1:])]
        gone = addresses[leaver % len(addresses)]
        rest = [a for a in addresses if a != gone]
        for key in keys:
            expected = self._reference_owner(substrate, addresses, key, size)
            assert overlay.local_owner(key) == expected
            if rest:
                expected = self._reference_owner(substrate, rest, key, size)
                assert overlay.local_owner(key, without=gone) == expected
        assert overlay.addresses() == addresses  # without= left membership alone

    @pytest.mark.parametrize("substrate", ["chord", "pastry", "kademlia"])
    @given(
        seed=st.integers(min_value=0, max_value=200),
        events=st.lists(
            st.tuples(
                st.sampled_from(["join", "leave", "admit", "expel"]),
                st.integers(min_value=0, max_value=(1 << 16) - 1),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(deadline=None, max_examples=15)
    def test_ownership_memo_follows_membership(self, substrate, seed, events):
        # With routes memoized and owners warmed, membership changes with
        # no invalidate call must leave the mapping equal to a fresh one.
        overlay = _BUILDERS[substrate](bits=16, num_nodes=8, seed=seed)
        cube = Hypercube(6)
        mapping = HypercubeMapping(cube, overlay)
        mapping.memoize_routes()
        mapping.placement()
        mapping.logical_nodes_of(overlay.any_address())
        for op, address in events:
            if op in ("join", "admit"):
                if address in overlay.nodes:
                    continue
                if op == "admit" and hasattr(overlay, "admit"):
                    overlay.admit(address)
                else:
                    overlay.join(address, overlay.any_address())
            else:
                if len(overlay.nodes) == 1:
                    continue
                victim = overlay.addresses()[address % len(overlay.nodes)]
                if op == "expel" and hasattr(overlay, "expel"):
                    overlay.expel(victim)
                else:
                    overlay.leave(victim)
            if hasattr(overlay, "rewire_from_global_knowledge"):
                overlay.rewire_from_global_knowledge()  # keeps later joins routable
            fresh = HypercubeMapping(cube, overlay)
            assert mapping.placement() == fresh.placement()
            for physical in overlay.addresses():
                assert mapping.logical_nodes_of(physical) == fresh.logical_nodes_of(physical)

    @pytest.mark.parametrize("seed", range(3))
    def test_owner_computed_across_a_membership_change_is_dropped(self, seed):
        # The interleaving a racing thread can produce, forced: while one
        # reader computes an owner, the membership changes and another
        # reader moves the memo on.  The first reader's (now old) answer
        # must not be served under the new membership.
        ring = ChordNetwork.build(bits=16, num_nodes=12, seed=seed)
        mapping = HypercubeMapping(Hypercube(6), ring)
        logical = next(n for n in range(64) if mapping.dht_key(n) not in ring.nodes)
        newcomer = mapping.dht_key(logical)  # will own the key once admitted
        compute = ring.local_owner
        raced = []

        def racing_local_owner(key, **kwargs):
            answer = compute(key, **kwargs)
            if not raced:
                raced.append(key)
                ring.admit(newcomer)
                mapping.physical_owner((logical + 1) % 64)
            return answer

        ring.local_owner = racing_local_owner
        assert mapping.physical_owner(logical) != newcomer  # the racing answer
        assert mapping.physical_owner(logical) == newcomer

    @pytest.mark.parametrize("seed", range(3))
    def test_ownership_memo_survives_racing_threads(self, seed):
        # One thread admits and expels while others read placement: once
        # the writer stops, nothing a reader cached may still be stale.
        ring = ChordNetwork.build(bits=16, num_nodes=12, seed=seed)
        cube = Hypercube(6)
        mapping = HypercubeMapping(cube, ring)
        mapping.memoize_routes()
        spare = [a for a in range(0, 1 << 16, 997) if a not in ring.nodes][:40]
        done = threading.Event()
        errors: list[BaseException] = []

        def churn():
            try:
                for address in spare:
                    ring.admit(address)
                    mapping.placement()
                    ring.expel(ring.addresses()[address % len(ring.nodes)])
            finally:
                done.set()

        def read():
            try:
                while not done.is_set():
                    mapping.placement()
                    ring.live_addresses()
                    mapping.logical_nodes_of(ring.any_address())
            except BaseException as error:  # surfaced in the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn)]
            threads += [threading.Thread(target=read) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert ring.addresses() == sorted(ring.nodes)
        fresh = HypercubeMapping(cube, ring)
        assert mapping.placement() == fresh.placement()
        for physical in ring.addresses():
            assert mapping.logical_nodes_of(physical) == fresh.logical_nodes_of(physical)
        for logical in cube.nodes():
            assert mapping.route_to(logical).owner == fresh.physical_owner(logical)

    @given(st.integers(min_value=2, max_value=7))
    @settings(deadline=None, max_examples=6)
    def test_hypercup_routing_is_shortest_path(self, bits):
        from repro.dht.hypercup import HypercubeOverlay

        overlay = HypercubeOverlay.build(bits=bits)
        origin = 0
        for key in range(1 << bits):
            result = overlay.lookup(key, origin=origin)
            assert result.owner == key
            assert len(result.path) == bin(origin ^ key).count("1") + 1


class TestAnalysisProperties:
    @given(
        st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=25)
    )
    @settings(deadline=None)
    def test_eq1_is_probability_distribution(self, r, m):
        pmf = one_count_distribution(r, m)
        assert all(p >= -1e-12 for p in pmf)
        assert math.fsum(pmf) == __import__("pytest").approx(1.0, abs=1e-9)

    @given(
        st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=25)
    )
    @settings(deadline=None)
    def test_eq2_bounds(self, r, m):
        value = expected_one_count(r, m)
        assert 0 <= value <= min(r, m) + 1e-9

    @given(
        st.integers(min_value=2, max_value=200),
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    )
    def test_zipf_pmf_valid(self, n, s):
        z = ZipfDistribution(n, s)
        total = math.fsum(z.pmf(k) for k in range(1, n + 1))
        assert total == __import__("pytest").approx(1.0, abs=1e-9)
