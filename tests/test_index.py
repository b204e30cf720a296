"""Unit tests for the hypercube index (shards, Insert/Delete/Pin)."""

import sys
import threading

from repro.core.index import HypercubeIndex, IndexShard
from repro.dht.chord import ChordNetwork
from repro.hypercube.hypercube import Hypercube

from tests.conftest import CATALOGUE


class TestIndexShardLocal:
    def test_put_and_pin(self):
        shard = IndexShard()
        key = ("main", 5)
        shard.put(key, frozenset({"a", "b"}), "obj-1")
        shard.put(key, frozenset({"a", "b"}), "obj-2")
        assert shard.pin(key, frozenset({"a", "b"})) == ("obj-1", "obj-2")

    def test_pin_misses_different_set(self):
        shard = IndexShard()
        shard.put(("main", 5), frozenset({"a", "b"}), "obj-1")
        assert shard.pin(("main", 5), frozenset({"a"})) == ()

    def test_remove_last_object_drops_entry(self):
        shard = IndexShard()
        key = ("main", 3)
        shard.put(key, frozenset({"x"}), "obj")
        assert shard.remove(key, frozenset({"x"}), "obj")
        assert shard.load(key) == 0
        assert shard.tables == {}

    def test_remove_missing_returns_false(self):
        shard = IndexShard()
        assert not shard.remove(("main", 1), frozenset({"x"}), "obj")

    def test_namespaces_isolated(self):
        shard = IndexShard()
        shard.put(("a", 5), frozenset({"kw"}), "obj-a")
        shard.put(("b", 5), frozenset({"kw"}), "obj-b")
        assert shard.pin(("a", 5), frozenset({"kw"})) == ("obj-a",)
        assert shard.pin(("b", 5), frozenset({"kw"})) == ("obj-b",)
        assert shard.load(namespace="a") == 1

    def test_logical_nodes_isolated(self):
        shard = IndexShard()
        shard.put(("main", 5), frozenset({"kw"}), "obj-5")
        shard.put(("main", 9), frozenset({"kw"}), "obj-9")
        matches, _ = shard.scan(("main", 5), frozenset({"kw"}), None)
        assert [ids for _, ids in matches] == [("obj-5",)]


class TestShardScan:
    def make_shard(self):
        shard = IndexShard()
        key = ("main", 1)
        shard.put(key, frozenset({"a"}), "general")
        shard.put(key, frozenset({"a", "b"}), "mid-1")
        shard.put(key, frozenset({"a", "c"}), "mid-2")
        shard.put(key, frozenset({"a", "b", "c"}), "specific")
        shard.put(key, frozenset({"z"}), "unrelated")
        return shard, key

    def test_scan_matches_supersets_only(self):
        shard, key = self.make_shard()
        matches, truncated = shard.scan(key, frozenset({"a"}), None)
        found = [ids[0] for _, ids in matches]
        assert found == ["general", "mid-1", "mid-2", "specific"]
        assert not truncated

    def test_scan_orders_small_sets_first(self):
        shard, key = self.make_shard()
        matches, _ = shard.scan(key, frozenset({"a"}), None)
        sizes = [len(keywords) for keywords, _ in matches]
        assert sizes == sorted(sizes)

    def test_scan_limit_truncates(self):
        shard, key = self.make_shard()
        matches, truncated = shard.scan(key, frozenset({"a"}), 2)
        total = sum(len(ids) for _, ids in matches)
        assert total == 2
        assert truncated

    def test_scan_limit_exact_boundary(self):
        shard, key = self.make_shard()
        matches, truncated = shard.scan(key, frozenset({"a"}), 4)
        assert sum(len(ids) for _, ids in matches) == 4
        assert not truncated

    def test_scan_empty_node(self):
        shard = IndexShard()
        assert shard.scan(("main", 42), frozenset({"a"}), None) == ([], False)

    def test_scan_order_cache_invalidated_on_put(self):
        shard, key = self.make_shard()
        shard.scan(key, frozenset({"a"}), None)  # populate order cache
        shard.put(key, frozenset({"a", "d"}), "late")
        matches, _ = shard.scan(key, frozenset({"a"}), None)
        assert any("late" in ids for _, ids in matches)

    def test_scan_order_cache_invalidated_on_remove(self):
        shard, key = self.make_shard()
        shard.scan(key, frozenset({"a"}), None)
        shard.remove(key, frozenset({"a"}), "general")
        matches, _ = shard.scan(key, frozenset({"a"}), None)
        assert all("general" not in ids for _, ids in matches)

    def test_scans_racing_writes_never_keep_a_stale_order(self):
        # Scans run on the transport's event loop while writes run on
        # handler threads.  A scan that sorted the table before a write
        # and stored the order after it would serve that stale order —
        # missing entries, or raising on removed ones — until the next
        # write to the table.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shard = IndexShard()
                key = ("main", 1)
                for i in range(200):
                    shard.put(key, frozenset({"a", f"k{i}"}), f"o{i}")
                stop = threading.Event()
                errors: list[BaseException] = []

                def scanner():
                    try:
                        while not stop.is_set():
                            shard.scan(key, frozenset({"a"}), None)
                    except BaseException as error:  # noqa: BLE001 - reported below
                        errors.append(error)

                thread = threading.Thread(target=scanner)
                thread.start()
                for i in range(200, 320):
                    shard.put(key, frozenset({"a", f"k{i}"}), f"o{i}")
                    if i % 3 == 0:
                        shard.remove(key, frozenset({"a", f"k{i - 100}"}), f"o{i - 100}")
                stop.set()
                thread.join(timeout=30)
                assert not thread.is_alive()
                assert errors == []
                matches, _ = shard.scan(key, frozenset({"a"}), None)
                found = {object_id for _, ids in matches for object_id in ids}
                assert found == {o for ids in shard.tables[key].values() for o in ids}
        finally:
            sys.setswitchinterval(interval)

    def test_a_fill_and_an_invalidation_sweep_never_interleave(self):
        # A fill checks the epoch, then installs.  A sweep that ran
        # between the two would bump the epoch with nothing to drop,
        # and the pre-write fill would then be installed for good.
        shard = IndexShard(cache_capacity=8)
        query = frozenset({"a"})
        install = shard.cache.put
        entered, proceed = threading.Event(), threading.Event()

        def slow_install(*args, **kwargs):
            entered.set()
            proceed.wait(timeout=5)
            return install(*args, **kwargs)

        shard.cache.put = slow_install
        fill = threading.Thread(
            target=shard.cache_put,
            args=("main", 1, query, (("o", query),)),
            kwargs={"complete": True, "epoch": shard.cache_epoch("main")},
        )
        sweep = threading.Thread(
            target=shard.invalidate_queries,
            args=("main",),
            kwargs={"keywords": frozenset({"a", "b"})},
        )
        fill.start()
        assert entered.wait(timeout=5)
        sweep.start()
        sweep.join(timeout=0.2)  # the sweep waits for the fill to finish
        proceed.set()
        fill.join(timeout=5)
        sweep.join(timeout=5)
        assert not fill.is_alive() and not sweep.is_alive()
        assert shard.cache.peek(("main", 1, query)) is None


class TestNetworkedIndex:
    def test_insert_places_entry_at_responsible_node(self, loaded_index):
        index = loaded_index
        for object_id, keywords in CATALOGUE.items():
            logical = index.mapper.node_for(keywords)
            shard = index.shard_for_logical(logical)
            assert object_id in shard.pin(index.table_key(logical), keywords)

    def test_pin_search_round_trip(self, loaded_index):
        result = loaded_index.pin_search({"mp3", "jazz", "saxophone"})
        assert result.object_ids == ("take-five",)

    def test_pin_search_empty(self, loaded_index):
        assert loaded_index.pin_search({"nothing-here"}).object_ids == ()

    def test_second_replica_does_not_reindex(self, loaded_index, chord_ring):
        other = chord_ring.addresses()[1]
        created = loaded_index.insert("take-five", CATALOGUE["take-five"], other)
        assert created is False
        logical = loaded_index.mapper.node_for(CATALOGUE["take-five"])
        shard = loaded_index.shard_for_logical(logical)
        pins = shard.pin(loaded_index.table_key(logical), CATALOGUE["take-five"])
        assert pins.count("take-five") == 1

    def test_delete_removes_with_last_copy(self, loaded_index, chord_ring):
        holder = chord_ring.any_address()
        removed = loaded_index.delete("moonlight", CATALOGUE["moonlight"], holder)
        assert removed is True
        assert loaded_index.pin_search(CATALOGUE["moonlight"]).object_ids == ()

    def test_delete_keeps_entry_while_replicas_remain(self, loaded_index, chord_ring):
        a, b = chord_ring.addresses()[:2]
        loaded_index.insert("so-what", CATALOGUE["so-what"], b)
        removed = loaded_index.delete("so-what", CATALOGUE["so-what"], a)
        assert removed is False
        assert loaded_index.pin_search(CATALOGUE["so-what"]).object_ids == ("so-what",)

    def test_load_accounting(self, loaded_index):
        by_logical = loaded_index.load_by_logical_node()
        by_physical = loaded_index.load_by_physical_node()
        assert sum(by_logical.values()) == len(CATALOGUE)
        assert sum(by_physical.values()) == len(CATALOGUE)
        assert loaded_index.total_indexed() == len(CATALOGUE)

    def test_bulk_load_matches_protocol_placement(self, chord_ring):
        protocol_index = HypercubeIndex(Hypercube(6), chord_ring)
        holder = chord_ring.any_address()
        for object_id, keywords in CATALOGUE.items():
            protocol_index.insert(object_id, keywords, holder)
        bulk_ring = ChordNetwork.build(bits=16, num_nodes=24, seed=5)
        bulk_index = HypercubeIndex(Hypercube(6), bulk_ring)
        bulk_index.bulk_load(CATALOGUE.items())
        assert bulk_index.load_by_logical_node() == protocol_index.load_by_logical_node()

    def test_reset_caches_changes_capacity(self, loaded_index):
        loaded_index.reset_caches(cache_capacity=7)
        shard = loaded_index.shard_at(loaded_index.dolr.any_address())
        assert shard.cache_capacity == 7
        assert shard.cache.capacity == 7


class TestMapping:
    def test_placement_is_deterministic(self, loaded_index):
        placement = loaded_index.mapping.placement()
        assert placement == loaded_index.mapping.placement()
        assert set(placement) == set(loaded_index.cube.nodes())

    def test_owners_are_ring_members(self, loaded_index, chord_ring):
        for owner in loaded_index.mapping.placement().values():
            assert owner in chord_ring.nodes

    def test_placement_cache_consistent(self, loaded_index):
        before = loaded_index.mapping.placement()
        loaded_index.mapping.memoize_routes()
        assert all(
            loaded_index.mapping.physical_owner(n) == before[n]
            for n in loaded_index.cube.nodes()
        )

    def test_placement_cache_invalidation(self, loaded_index, chord_ring):
        # No invalidate call: the ownership memo is keyed on the DHT's
        # membership version, so a leave is seen at once.
        mapping = loaded_index.mapping
        mapping.memoize_routes()
        stale = {n: mapping.physical_owner(n) for n in loaded_index.cube.nodes()}
        victim = next(iter(set(stale.values())))
        chord_ring.leave(victim)
        fresh = {n: mapping.physical_owner(n) for n in loaded_index.cube.nodes()}
        assert victim not in fresh.values()
        assert fresh == {n: chord_ring.local_owner(mapping.dht_key(n)) for n in fresh}

    def test_route_to_reaches_owner(self, loaded_index):
        logical = 5
        route = loaded_index.mapping.route_to(logical)
        assert route.owner == loaded_index.mapping.physical_owner(logical)

    def test_logical_nodes_of_inverts_placement(self, loaded_index):
        mapping = loaded_index.mapping
        placement = mapping.placement()
        some_physical = placement[0]
        inverse = mapping.logical_nodes_of(some_physical)
        assert all(placement[logical] == some_physical for logical in inverse)
        assert 0 in inverse

    def test_route_to_shares_placement_cache(self, loaded_index):
        mapping = loaded_index.mapping
        messages = loaded_index.dolr.network.metrics
        mapping.memoize_routes()
        first = mapping.route_to(5)
        # The paid lookup populated the cache; the repeat is free.
        before = messages.counter("network.messages")
        second = mapping.route_to(5)
        assert second.owner == first.owner == mapping.physical_owner(5)
        assert second.hops == 0
        assert messages.counter("network.messages") == before
        # physical_owner's population serves route_to too.
        owner7 = mapping.physical_owner(7)
        assert mapping.route_to(7).hops == 0
        assert mapping.route_to(7).owner == owner7

    @staticmethod
    def _remote_logical(index) -> int:
        """A logical node whose lookup pays at least one routing hop
        (the origin's first step is local and free), so an uncached
        route must send messages."""
        origin = index.dolr.any_address()
        return next(
            logical
            for logical in index.cube.nodes()
            if index.dolr.lookup(index.mapping.dht_key(logical), origin=origin).hops > 0
        )

    def test_route_to_refresh_bypasses_cache(self, loaded_index):
        mapping = loaded_index.mapping
        logical = self._remote_logical(loaded_index)
        mapping.memoize_routes()
        mapping.route_to(logical)
        messages = loaded_index.dolr.network.metrics
        before = messages.counter("network.messages")
        refreshed = mapping.route_to(logical, refresh=True)
        assert refreshed.owner == mapping.physical_owner(logical)
        assert messages.counter("network.messages") > before

    def test_route_to_invalidation_restores_lookups(self, loaded_index, chord_ring):
        # A membership change drops the route memo, as does turning it off.
        mapping = loaded_index.mapping
        logical = self._remote_logical(loaded_index)
        messages = loaded_index.dolr.network.metrics
        mapping.memoize_routes()
        mapping.route_to(logical)
        newcomer = next(a for a in range(chord_ring.space.size) if a not in chord_ring.nodes)
        chord_ring.admit(newcomer)
        before = messages.counter("network.messages")
        mapping.route_to(logical)
        assert messages.counter("network.messages") > before
        mapping.memoize_routes(False)
        before = messages.counter("network.messages")
        mapping.route_to(logical)
        assert messages.counter("network.messages") > before

    def test_logical_nodes_of_memoized(self, loaded_index, chord_ring):
        mapping = loaded_index.mapping
        placement = mapping.placement()
        owners = set(placement.values())
        expected = {p: [n for n in sorted(placement) if placement[n] == p] for p in owners}
        assert {p: mapping.logical_nodes_of(p) for p in owners} == expected
        assert mapping._memo.inverse is not None
        # A membership change drops the memo; the leaver then plays nothing.
        victim = min(owners)
        chord_ring.leave(victim)
        assert mapping.logical_nodes_of(victim) == []
        assert sorted(
            n for p in chord_ring.addresses() for n in mapping.logical_nodes_of(p)
        ) == sorted(placement)
