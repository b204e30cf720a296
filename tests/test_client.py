"""The unified Client API: one spelling over every deployment shape."""

import pytest

from repro.client import Client, DaemonFleetClient, ServiceClient, connect
from repro.core.config import SearchOptions, ServiceConfig
from repro.core.service import KeywordSearchService
from repro.net.cluster import LocalCluster

CONFIG = ServiceConfig(dimension=4, num_dht_nodes=8, seed=5)

CORPUS = [
    ("chord.pdf", {"dht", "p2p", "ring"}),
    ("pastry.pdf", {"dht", "p2p", "prefix"}),
    ("hypercube.pdf", {"search", "keyword", "dht"}),
]


def _publish_all(client) -> None:
    for object_id, keywords in CORPUS:
        client.insert(object_id, keywords)


class TestServiceClient:
    def test_simulated_service_round_trip(self):
        service = KeywordSearchService.create(CONFIG)
        client = service.client()
        assert isinstance(client, ServiceClient)
        assert isinstance(client, Client)  # runtime-checkable protocol
        _publish_all(client)
        result = client.search({"dht", "p2p"})
        assert set(result.results()) == {"chord.pdf", "pastry.pdf"}

    def test_delete_withdraws_the_replica(self):
        service = KeywordSearchService.create(CONFIG)
        client = service.client()
        published = client.insert("gone.pdf", {"dht", "tmp"})
        client.delete("gone.pdf", holder=published.holder)
        assert client.search({"dht", "tmp"}).results() == ()

    def test_close_is_a_no_op_for_borrowed_services(self):
        service = KeywordSearchService.create(CONFIG)
        with service.client() as client:
            client.insert("keep.pdf", {"dht"})
        # Borrowing: the service outlives the client.
        assert service.search({"dht"}).results() == ("keep.pdf",)

    def test_options_pass_through_unchanged(self):
        service = KeywordSearchService.create(CONFIG)
        client = service.client()
        _publish_all(client)
        result = client.search({"dht"}, SearchOptions(threshold=1))
        assert len(result.results()) == 1


class TestConnect:
    def test_connect_service(self):
        service = KeywordSearchService.create(CONFIG)
        assert isinstance(connect(service), ServiceClient)

    def test_connect_config_requires_peers(self):
        with pytest.raises(TypeError, match="peers"):
            connect(CONFIG)

    def test_connect_rejects_unknown_shapes(self):
        with pytest.raises(TypeError, match="cannot build a Client"):
            connect(object())

    def test_connect_cluster_borrows_its_service(self):
        with LocalCluster(CONFIG) as cluster:
            client = connect(cluster)
            assert isinstance(client, ServiceClient)
            assert client.service is cluster.service


class TestClusterAndFleetParity:
    def test_same_answers_over_simulator_cluster_and_fleet(self):
        """One corpus, three media — identical result sets."""
        sim_client = KeywordSearchService.create(CONFIG).client()
        _publish_all(sim_client)
        expected = set(sim_client.search({"dht", "p2p"}).results())
        assert expected  # the query must be non-trivial

        with LocalCluster(CONFIG) as cluster:
            borrowed = cluster.client()
            _publish_all(borrowed)
            assert set(borrowed.search({"dht", "p2p"}).results()) == expected

            # The fleet shape: own socket pool, every RPC over TCP.
            with connect(CONFIG, peers=cluster.endpoints) as fleet:
                assert isinstance(fleet, DaemonFleetClient)
                assert set(fleet.search({"dht", "p2p"}).results()) == expected
                fleet.insert("late.pdf", {"dht", "p2p", "late"})
            # The fleet's insert landed on the shared cluster.
            assert "late.pdf" in borrowed.search({"dht", "p2p"}).results()

    def test_fleet_client_close_drops_only_its_sockets(self):
        with LocalCluster(CONFIG) as cluster:
            fleet = connect(CONFIG, peers=cluster.endpoints)
            fleet.insert("probe.pdf", {"dht", "probe"})
            fleet.close()
            # The cluster is untouched by the client's close.
            assert cluster.client().search({"probe"}).results() == ("probe.pdf",)


class TestQueryValidation:
    """Malformed queries die at the client boundary, before any RPC."""

    def _client(self):
        return KeywordSearchService.create(CONFIG).client()

    def test_empty_query_is_rejected(self):
        from repro.client import InvalidQueryError

        client = self._client()
        with pytest.raises(InvalidQueryError):
            client.search([])
        with pytest.raises(InvalidQueryError):
            client.search(set())

    def test_empty_or_nonstring_keywords_are_rejected(self):
        from repro.client import InvalidQueryError

        client = self._client()
        with pytest.raises(InvalidQueryError):
            client.search([""])
        with pytest.raises(InvalidQueryError):
            client.search(["   "])
        with pytest.raises(InvalidQueryError):
            client.search([3])
        with pytest.raises(InvalidQueryError):
            client.search(["ok", None])

    def test_invalid_query_error_is_a_value_error(self):
        from repro.client import InvalidQueryError

        assert issubclass(InvalidQueryError, ValueError)

    def test_malformed_prefix_queries_are_rejected(self):
        from repro.client import InvalidQueryError

        config = ServiceConfig(dimension=4, num_dht_nodes=8, seed=5, prefix_directory=True)
        client = KeywordSearchService.create(config).client()
        prefix = SearchOptions(prefix=True)
        with pytest.raises(InvalidQueryError):
            client.search([], prefix)
        with pytest.raises(InvalidQueryError):
            client.search("", prefix)
        with pytest.raises(InvalidQueryError):
            client.search(["two", "words"], prefix)
        with pytest.raises(InvalidQueryError):
            client.search([42], prefix)

    def test_insert_validates_keywords_too(self):
        from repro.client import InvalidQueryError

        client = self._client()
        with pytest.raises(InvalidQueryError):
            client.insert("bad.pdf", [])
        with pytest.raises(InvalidQueryError):
            client.insert("bad.pdf", ["", "x"])

    def test_valid_queries_still_reach_results(self):
        client = self._client()
        _publish_all(client)
        assert set(client.search({"dht", "p2p"}).results()) == {"chord.pdf", "pastry.pdf"}

    def test_fleet_client_validates_before_any_rpc(self):
        from repro.client import InvalidQueryError

        with LocalCluster(CONFIG) as cluster:
            with connect(CONFIG, peers=cluster.endpoints) as fleet:
                with pytest.raises(InvalidQueryError):
                    fleet.search([])
                with pytest.raises(InvalidQueryError):
                    fleet.insert("bad.pdf", [""])
