"""Tests for the high-level KeywordSearchService façade."""

import pytest

from repro.core.config import CachePolicy, DhtKind, SearchOptions, ServiceConfig
from repro.core.search import TraversalOrder
from repro.core.service import KeywordSearchService
from repro.sim.resilience import BreakerPolicy, RetryPolicy

from tests.conftest import CATALOGUE


class TestCreation:
    def test_chord_backend(self):
        svc = KeywordSearchService.create(
            ServiceConfig(dimension=5, num_dht_nodes=8, dht=DhtKind.CHORD, seed=1)
        )
        assert len(svc.index.dolr.nodes) == 8

    def test_kademlia_backend(self):
        svc = KeywordSearchService.create(
            ServiceConfig(dimension=5, num_dht_nodes=8, dht="kademlia", seed=1)
        )
        svc.publish("x", {"a"})
        assert svc.pin_search({"a"}).object_ids == ("x",)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            ServiceConfig(dimension=5, num_dht_nodes=8, dht="napster")

    def test_unknown_cache_policy(self):
        with pytest.raises(ValueError):
            ServiceConfig(dimension=5, num_dht_nodes=8, cache_policy="random")


class TestServiceConfig:
    def test_strings_coerce_to_enums(self):
        config = ServiceConfig(
            dimension=5, num_dht_nodes=8, dht="pastry", cache_policy="lru"
        )
        assert config.dht is DhtKind.PASTRY
        assert config.cache_policy is CachePolicy.LRU

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(dimension=0, num_dht_nodes=8)
        with pytest.raises(ValueError):
            ServiceConfig(dimension=5, num_dht_nodes=8, cache_capacity=-1)
        with pytest.raises(ValueError):
            SearchOptions(threshold=0)

    def test_with_resilience(self):
        base = ServiceConfig(dimension=5, num_dht_nodes=8)
        assert base.resilience is None
        hardened = base.with_resilience(RetryPolicy.default(), BreakerPolicy())
        assert hardened.resilience == RetryPolicy.default()
        assert hardened.breaker == BreakerPolicy()
        assert base.resilience is None  # original untouched

    def test_config_installs_resilient_channel(self):
        svc = KeywordSearchService.create(
            ServiceConfig(
                dimension=5,
                num_dht_nodes=8,
                seed=1,
                resilience=RetryPolicy(max_attempts=2),
                breaker=BreakerPolicy(failure_threshold=2),
            )
        )
        assert svc.dolr.channel.resilient
        assert svc.dolr.channel.policy.max_attempts == 2
        assert svc.searcher.degrades

    def test_config_is_recorded(self):
        config = ServiceConfig(dimension=5, num_dht_nodes=8, seed=1)
        svc = KeywordSearchService.create(config)
        assert svc.config is config


class TestPublishing:
    def test_publish_and_pin(self, service):
        result = service.pin_search({"mp3", "jazz", "saxophone"})
        assert result.object_ids == ("take-five",)

    def test_double_publish_same_holder_rejected(self, service):
        record = next(iter(service._published.values()))
        with pytest.raises(ValueError):
            service.publish(record.object_id, record.keywords, holder=record.holder)

    def test_replica_on_other_holder_allowed(self, service):
        holders = service.index.dolr.addresses()
        service.publish("take-five", CATALOGUE["take-five"], holder=holders[-1])
        assert len(service.read("take-five")) == 2

    def test_unpublish_unknown_rejected(self, service):
        with pytest.raises(KeyError):
            service.unpublish("ghost", holder=0)

    def test_unpublish_removes_from_search(self, service):
        record = service._published[
            next(k for k in service._published if k[0] == "moonlight")
        ]
        service.unpublish("moonlight", holder=record.holder)
        assert service.pin_search(CATALOGUE["moonlight"]).object_ids == ()

    def test_published_count(self, service):
        assert service.published_count() == len(CATALOGUE)

    def test_read_returns_holders(self, service):
        holders = service.read("take-five")
        assert len(holders) == 1


class TestSearchDelegation:
    def test_superset_search(self, service):
        result = service.superset_search({"jazz"})
        expected = {o for o, kw in CATALOGUE.items() if "jazz" in kw}
        assert set(result.object_ids) == expected

    def test_cumulative_search(self, service):
        session = service.cumulative_search({"jazz"})
        everything = session.drain()
        expected = {o for o, kw in CATALOGUE.items() if "jazz" in kw}
        assert {f.object_id for f in everything} == expected

    def test_search_options_object(self, service):
        options = SearchOptions(threshold=1, order=TraversalOrder.BOTTOM_UP)
        result = service.search({"jazz"}, options)
        assert len(result.results()) == 1

    def test_results_accessor_matches_object_ids(self, service):
        pin = service.pin_search({"mp3", "jazz", "saxophone"})
        assert pin.results() == pin.object_ids
        superset = service.superset_search({"jazz"})
        assert superset.results() == superset.object_ids

    def test_resilience_metrics_exposed(self, service):
        service.superset_search({"jazz"})
        metrics = service.resilience_metrics()
        assert metrics.get("rpc.attempts", 0) > 0

    def test_use_cache_defaults_to_capacity(self):
        svc = KeywordSearchService.create(
            ServiceConfig(dimension=5, num_dht_nodes=8, seed=2, cache_capacity=4)
        )
        svc.publish("x", {"a", "b"})
        svc.superset_search({"a"})
        result = svc.superset_search({"a"})
        assert result.cache_hit

    def test_no_cache_when_capacity_zero(self, service):
        service.superset_search({"jazz"})
        result = service.superset_search({"jazz"})
        assert not result.cache_hit

    def test_messages_counter_monotone(self, service):
        before = service.messages_sent()
        service.superset_search({"jazz"})
        assert service.messages_sent() > before

    def test_cube_property(self, service):
        assert service.cube.dimension == 6
