"""Tests for the superset-search protocol (T_QUERY and variants)."""

import pytest

from repro.core.index import HypercubeIndex
from repro.core.search import SuperSetSearch, TraversalOrder
from repro.hypercube.hypercube import Hypercube
from repro.hypercube.subcube import SubHypercube

from tests.conftest import CATALOGUE


@pytest.fixture()
def searcher(loaded_index):
    return SuperSetSearch(loaded_index)


def oracle(query: set) -> set:
    return {oid for oid, kw in CATALOGUE.items() if frozenset(query) <= kw}


class TestCorrectness:
    @pytest.mark.parametrize(
        "query",
        [{"mp3"}, {"jazz"}, {"mp3", "jazz"}, {"piano"}, {"mp3", "jazz", "piano"}],
    )
    def test_matches_oracle(self, searcher, query):
        result = searcher.run(query)
        assert set(result.object_ids) == oracle(query)
        assert result.complete

    def test_no_duplicates(self, searcher):
        result = searcher.run({"mp3"})
        assert len(result.object_ids) == len(set(result.object_ids))

    def test_no_matches(self, searcher):
        result = searcher.run({"does-not-exist"})
        assert result.objects == ()
        assert result.complete

    def test_found_keywords_contain_query(self, searcher):
        result = searcher.run({"jazz"})
        for found in result.objects:
            assert result.query <= found.keywords

    def test_all_orders_same_object_set(self, searcher):
        reference = set(searcher.run({"mp3"}).object_ids)
        for order in TraversalOrder:
            assert set(searcher.run({"mp3"}, order=order).object_ids) == reference

    def test_query_normalization(self, searcher):
        assert set(searcher.run({" MP3 ", "Jazz"}).object_ids) == oracle({"mp3", "jazz"})


class TestThreshold:
    def test_threshold_caps_results(self, searcher):
        result = searcher.run({"mp3"}, threshold=2)
        assert len(result.objects) == 2

    def test_threshold_larger_than_matches(self, searcher):
        result = searcher.run({"mp3"}, threshold=100)
        assert set(result.object_ids) == oracle({"mp3"})
        assert result.complete  # queue drained without truncation

    def test_threshold_stops_early(self, searcher):
        capped = searcher.run({"mp3"}, threshold=1)
        full = searcher.run({"mp3"})
        assert len(capped.visits) <= len(full.visits)
        assert not capped.complete or len(full.objects) == 1

    def test_invalid_threshold(self, searcher):
        with pytest.raises(ValueError):
            searcher.run({"mp3"}, threshold=0)


class TestRecallAccessor:
    def test_zero_recall_needs_no_visits(self, searcher):
        result = searcher.run({"mp3"})
        assert result.nodes_contacted_for_recall(0.0, len(result.objects)) == 0
        assert result.nodes_contacted_for_recall(0.5, 0) == 0

    def test_full_recall_counts_through_last_serving_visit(self, searcher):
        result = searcher.run({"mp3"})
        count = result.nodes_contacted_for_recall(1.0, len(result.objects))
        served = sum(visit.returned for visit in result.visits[:count])
        assert served == len(result.objects)

    def test_invalid_fraction(self, searcher):
        result = searcher.run({"mp3"})
        with pytest.raises(ValueError):
            result.nodes_contacted_for_recall(1.5, 4)


class TestVisitStructure:
    def test_search_space_is_induced_subcube(self, searcher, loaded_index):
        result = searcher.run({"jazz"})
        sub = SubHypercube(loaded_index.cube, result.root_logical)
        for visit in result.visits:
            assert visit.logical in sub

    def test_exhaustive_search_visits_whole_subcube(self, searcher, loaded_index):
        result = searcher.run({"jazz"})
        assert len(result.visits) == loaded_index.cube.subcube_size(result.root_logical)

    def test_top_down_depths_nondecreasing(self, searcher):
        result = searcher.run({"jazz"}, order=TraversalOrder.TOP_DOWN)
        depths = [visit.depth for visit in result.visits]
        assert depths == sorted(depths)

    def test_bottom_up_serves_deepest_nodes_first(self, searcher):
        # The guarantee is on visit depth (Lemma 3.2 gives a *lower*
        # bound on extra keywords per depth, not an exact ordering).
        result = searcher.run({"mp3", "jazz"}, order=TraversalOrder.BOTTOM_UP)
        depths = [visit.depth for visit in result.visits]
        assert depths == sorted(depths, reverse=True)
        serving_depths = [v.depth for v in result.visits if v.returned]
        assert serving_depths == sorted(serving_depths, reverse=True)

    def test_top_down_serves_general_first(self, searcher):
        result = searcher.run({"mp3", "jazz"}, order=TraversalOrder.TOP_DOWN)
        # Visit depth lower-bounds extra keywords (Lemma 3.2): the first
        # result must have the fewest extra keywords.
        specificities = [found.specificity(result.query) for found in result.objects]
        assert specificities[0] == min(specificities)

    def test_depth_lower_bounds_extra_keywords(self, searcher):
        # Lemma 3.2: an object indexed at depth d has >= d extra keywords.
        result = searcher.run({"jazz"})
        depth_of_visit = {visit.order: visit.depth for visit in result.visits}
        cursor = 0
        for visit in result.visits:
            for _ in range(visit.returned):
                found = result.objects[cursor]
                assert found.specificity(result.query) >= depth_of_visit[visit.order]
                cursor += 1

    def test_parallel_rounds_bounded(self, searcher, loaded_index):
        result = searcher.run({"jazz"}, order=TraversalOrder.PARALLEL)
        one = loaded_index.cube.weight(result.root_logical)
        assert result.rounds == loaded_index.cube.dimension - one + 1

    def test_message_bound(self, searcher, loaded_index):
        result = searcher.run({"jazz"})
        subcube = loaded_index.cube.subcube_size(result.root_logical)
        # <= 2 messages per node + 1 direct result message per node,
        # plus DHT routing to the root.
        assert result.messages <= 3 * subcube + 2 * 16


class TestContactModes:
    def test_routed_mode_same_results_more_hops(self, loaded_index):
        direct = SuperSetSearch(loaded_index, contact_mode="direct").run({"jazz"})
        routed = SuperSetSearch(loaded_index, contact_mode="routed").run({"jazz"})
        assert set(direct.object_ids) == set(routed.object_ids)
        direct_hops = sum(visit.dht_hops for visit in direct.visits)
        routed_hops = sum(visit.dht_hops for visit in routed.visits)
        assert routed_hops >= direct_hops

    def test_invalid_contact_mode(self, loaded_index):
        with pytest.raises(ValueError):
            SuperSetSearch(loaded_index, contact_mode="psychic")


class TestCacheIntegration:
    @pytest.fixture()
    def cached_index(self, chord_ring):
        index = HypercubeIndex(
            Hypercube(6), chord_ring, cache_capacity=4
        )
        holder = chord_ring.any_address()
        for object_id, keywords in CATALOGUE.items():
            index.insert(object_id, keywords, holder)
        return index

    def test_second_query_hits_cache(self, cached_index):
        searcher = SuperSetSearch(cached_index)
        first = searcher.run({"mp3"}, use_cache=True)
        second = searcher.run({"mp3"}, use_cache=True)
        assert not first.cache_hit
        assert second.cache_hit
        assert set(second.object_ids) == set(first.object_ids)
        assert len(second.visits) == 1  # only the root

    def test_cache_respects_complete_flag(self, cached_index):
        searcher = SuperSetSearch(cached_index)
        searcher.run({"mp3"}, threshold=1, use_cache=True)  # partial
        full = searcher.run({"mp3"}, use_cache=True)  # needs everything
        assert not full.cache_hit

    def test_partial_cache_serves_smaller_threshold(self, cached_index):
        searcher = SuperSetSearch(cached_index)
        searcher.run({"mp3"}, threshold=3, use_cache=True)
        again = searcher.run({"mp3"}, threshold=2, use_cache=True)
        assert again.cache_hit
        assert len(again.objects) == 2

    def test_cache_patched_after_delete(self, cached_index, chord_ring):
        # Coherence protocol (docs/protocol.md §16): a delete patches
        # complete cached entries in place, so the next cached answer
        # no longer references the withdrawn object.
        searcher = SuperSetSearch(cached_index)
        searcher.run({"mp3"}, use_cache=True)
        cached_index.delete("kind-of-blue", CATALOGUE["kind-of-blue"], chord_ring.any_address())
        patched = searcher.run({"mp3"}, use_cache=True)
        assert patched.cache_hit  # complete entries are patched, not dropped
        assert "kind-of-blue" not in patched.object_ids
        fresh = searcher.run({"mp3"}, use_cache=False)
        assert set(patched.object_ids) == set(fresh.object_ids)

    def test_cache_invalidated_after_insert(self, cached_index, chord_ring):
        # An insert below a cached query drops the entry: the next query
        # walks fresh and surfaces the new object.
        searcher = SuperSetSearch(cached_index)
        searcher.run({"mp3"}, use_cache=True)
        cached_index.insert("new-release", {"mp3", "fresh"}, chord_ring.any_address())
        after = searcher.run({"mp3"}, use_cache=True)
        assert not after.cache_hit
        assert "new-release" in after.object_ids


class TestFailureTolerance:
    def test_skip_unreachable_degrades_gracefully(self, loaded_index, chord_ring):
        searcher = SuperSetSearch(loaded_index, skip_unreachable=True)
        baseline = set(searcher.run({"jazz"}).object_ids)
        alive_origin = None
        # Fail a third of the physical nodes (not the query origin).
        addresses = chord_ring.addresses()
        alive_origin = addresses[0]
        for victim in addresses[1 : len(addresses) // 3]:
            chord_ring.network.fail(victim)
        degraded = searcher.run({"jazz"}, origin=alive_origin)
        assert set(degraded.object_ids) <= baseline

    def test_without_skip_raises(self, loaded_index, chord_ring):
        from repro.sim.network import NodeUnreachableError

        searcher = SuperSetSearch(loaded_index)
        result = searcher.run({"jazz"})
        victims = {visit.physical for visit in result.visits}
        origin = next(
            a for a in chord_ring.addresses() if a not in victims
        )
        for victim in victims:
            chord_ring.network.fail(victim)
        with pytest.raises(NodeUnreachableError):
            searcher.run({"jazz"}, origin=origin)


class TestParallelLevelBudget:
    """Pin the deterministic budget rule of the concurrent walk: every
    visit of a level carries the budget *as it stood at level entry*,
    and the collected overshoot is trimmed to the threshold afterwards
    (PR 5; Section 3.5's latency/message trade)."""

    @pytest.fixture()
    def split_index(self, chord_ring):
        """Six matches for {"alpha"}, three on each of two depth-1
        nodes, none on the root."""
        index = HypercubeIndex(Hypercube(5), chord_ring)
        index.bulk_load(
            [(f"b-{i}", {"alpha", "beta"}) for i in range(3)]
            + [(f"c-{i}", {"alpha", "gamma"}) for i in range(3)]
        )
        return index

    def test_level_shares_entry_budget(self, split_index):
        result = SuperSetSearch(split_index).run(
            {"alpha"}, threshold=4, order=TraversalOrder.PARALLEL
        )
        # Both holders were scanned with the level-entry budget (4), so
        # each returned all 3 of its objects — a serialized decrement
        # would have cut the second scan to 1.
        assert sorted(v.returned for v in result.visits if v.returned) == [3, 3]
        # The caller-visible contract is unchanged: min(t, |O_K|)
        # objects, and the dropped overshoot marks the result partial.
        assert len(result.objects) == 4
        assert not result.complete
        assert result.rounds == 2  # root round + one full level

    def test_sequential_top_down_decrements_instead(self, split_index):
        result = SuperSetSearch(split_index).run(
            {"alpha"}, threshold=4, order=TraversalOrder.TOP_DOWN
        )
        # Sequential baseline for contrast: the second holder only sees
        # the 1 slot the first left behind.
        assert sorted(v.returned for v in result.visits if v.returned) == [1, 3]
        assert len(result.objects) == 4
        assert not result.complete

    def test_rule_is_deterministic(self, split_index):
        searcher = SuperSetSearch(split_index)
        first = searcher.run({"alpha"}, threshold=4, order=TraversalOrder.PARALLEL)
        second = searcher.run({"alpha"}, threshold=4, order=TraversalOrder.PARALLEL)
        assert first.visits == second.visits
        assert first.object_ids == second.object_ids

    def test_untruncated_parallel_run_is_complete(self, split_index):
        result = SuperSetSearch(split_index).run(
            {"alpha"}, order=TraversalOrder.PARALLEL
        )
        assert len(result.objects) == 6
        assert result.complete

    def test_threshold_exactly_met_returns_everything(self, split_index):
        # All six matches fit in the threshold: nothing is dropped (the
        # walk still reports partial, since it stopped with an
        # unexplored frontier it cannot prove empty).
        result = SuperSetSearch(split_index).run(
            {"alpha"}, threshold=6, order=TraversalOrder.PARALLEL
        )
        assert len(result.objects) == 6
        assert set(result.object_ids) == {f"b-{i}" for i in range(3)} | {
            f"c-{i}" for i in range(3)
        }


class TestWalkRecords:
    """Every order records a walk the same way: ``complete`` means
    nothing was left unexplored, and a visit names the host that
    answered it."""

    def test_bottom_up_that_visits_everything_is_complete(self):
        from repro.dht.chord import ChordNetwork

        ring = ChordNetwork.build(bits=16, num_nodes=8, seed=7)
        index = HypercubeIndex(Hypercube(5), ring)
        holder = ring.any_address()
        index.insert("a", {"k"}, holder)
        index.insert("b", {"k"}, holder)
        result = SuperSetSearch(index).run({"k"}, threshold=2, order=TraversalOrder.BOTTOM_UP)
        assert len(result.visits) == index.cube.subcube_size(result.root_logical)
        assert set(result.object_ids) == {"a", "b"}
        # The threshold was met on the last node: nothing is left.
        assert result.complete

    @pytest.mark.parametrize("order", list(TraversalOrder), ids=lambda order: order.value)
    def test_surrogate_visit_records_the_answering_host(self, order):
        from repro.core.config import ServiceConfig
        from repro.core.service import KeywordSearchService

        service = KeywordSearchService.create(
            ServiceConfig(dimension=6, num_dht_nodes=16, seed=3)
        )
        for object_id, keywords in CATALOGUE.items():
            service.publish(object_id, keywords)
        network = service.dolr.network
        addresses = service.dolr.addresses()
        origin = addresses[0]
        for victim in addresses[1:5]:
            network.fail(victim)
        searcher = SuperSetSearch(service.index, skip_unreachable=True)
        result = searcher.run({"mp3"}, origin=origin, order=order)
        surrogates = [visit for visit in result.visits if visit.status == "surrogate"]
        assert surrogates
        assert all(network.is_alive(visit.physical) for visit in result.visits)
