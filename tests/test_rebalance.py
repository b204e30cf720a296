"""Tests for index migration under churn (rebalance / evacuate).

The ``stack`` fixture is parametrized over the store backend: the
in-memory default and the durable :class:`~repro.store.file.FileStore`
(WAL + snapshots) — the transfers and drops churn performs must behave
identically when every mutation is journalled, and the dedicated
durability tests pin that a *restart* after churn recovers the
post-churn placement (handed-off tables present at the new owner, and
not resurrected at the old one).
"""

import pytest

from repro.core.index import HypercubeIndex
from repro.core.search import SuperSetSearch
from repro.dht.chord import ChordNetwork
from repro.hypercube.hypercube import Hypercube
from repro.store.file import FileStore

ITEMS = [
    (f"obj-{i}", frozenset({f"kw{i % 7}", f"kw{(i * 3) % 7}", "base"}))
    for i in range(50)
]


def _build(seed: int, store_dir=None):
    ring = ChordNetwork.build(bits=16, num_nodes=8, seed=seed)
    stores = {}
    if store_dir is not None:
        stores = {a: FileStore(store_dir / f"node-{a}") for a in ring.addresses()}
    index = HypercubeIndex(Hypercube(6), ring, stores=stores)
    return ring, index, stores


@pytest.fixture(params=["memory", "file"])
def stack(request, tmp_path):
    store_dir = tmp_path if request.param == "file" else None
    ring, index, _ = _build(71, store_dir)
    index.bulk_load(ITEMS)
    return ring, index


class TestRebalance:
    def test_rebalance_noop_when_placement_unchanged(self, stack):
        _, index = stack
        assert index.rebalance() == 0

    def test_rebalance_after_joins_restores_placement(self, stack):
        ring, index = stack
        bootstrap = ring.any_address()
        joined = 0
        for address in range(0, 65536, 4096):
            if address not in ring.nodes:
                ring.join(address, bootstrap)
                joined += 1
        ring.stabilize_all(rounds=2)
        assert joined >= 10
        moved = index.rebalance()
        assert moved > 0  # with 10+ joins some logical nodes must move
        # Every table now sits at its owner.
        for address in ring.addresses():
            shard = index.shard_at(address)
            for namespace, logical in shard.tables:
                if namespace == index.namespace:
                    assert index.mapping.physical_owner(logical) == address

    def test_rebalance_preserves_content_and_search(self, stack):
        ring, index = stack
        before = index.total_indexed()
        bootstrap = ring.any_address()
        for address in range(100, 65536, 3000):
            if address not in ring.nodes:
                ring.join(address, bootstrap)
        ring.stabilize_all(rounds=2)
        index.rebalance()
        assert index.total_indexed() == before
        result = SuperSetSearch(index).run({"base"})
        assert len(result.objects) == len(ITEMS)

    def test_rebalance_is_idempotent(self, stack):
        ring, index = stack
        bootstrap = ring.any_address()
        for address in range(200, 65536, 5000):
            if address not in ring.nodes:
                ring.join(address, bootstrap)
        ring.stabilize_all(rounds=2)
        index.rebalance()
        assert index.rebalance() == 0


class TestEvacuate:
    def test_graceful_leave_preserves_everything(self, stack):
        ring, index = stack
        before = index.total_indexed()
        victim = ring.addresses()[0]
        moved = index.evacuate(victim)
        ring.leave(victim)
        ring.stabilize_all(rounds=2)
        assert index.total_indexed() == before
        result = SuperSetSearch(index).run({"base"})
        assert len(result.objects) == len(ITEMS)
        # The victim's shard is empty for this namespace.
        assert moved >= 0

    def test_evacuate_places_at_post_departure_owner(self, stack):
        ring, index = stack
        victim = ring.addresses()[2]
        victim_logicals = [
            logical
            for (namespace, logical) in index.shard_at(victim).tables
            if namespace == index.namespace
        ]
        index.evacuate(victim)
        ring.leave(victim)
        ring.stabilize_all(rounds=2)
        for logical in victim_logicals:
            owner = index.mapping.physical_owner(logical)
            shard = index.shard_at(owner)
            assert (index.namespace, logical) in shard.tables

    def test_evacuate_unknown_rejected(self, stack):
        _, index = stack
        with pytest.raises(ValueError):
            index.evacuate(999_999)

    def test_abrupt_leave_loses_data_evacuate_prevents_it(self):
        # Contrast test: the whole point of evacuate.
        ring = ChordNetwork.build(bits=16, num_nodes=8, seed=72)
        index = HypercubeIndex(Hypercube(6), ring)
        index.bulk_load(ITEMS)
        total = index.total_indexed()
        victim = max(
            ring.addresses(),
            key=lambda a: index.shard_at(a).load(namespace=index.namespace),
        )
        lost = index.shard_at(victim).load(namespace=index.namespace)
        assert lost > 0
        ring.leave(victim)  # abrupt: data gone with the node
        assert index.total_indexed() == total - lost


class TestDurableChurn:
    """Churn over the WAL backend survives a restart (satellite pin)."""

    def test_evacuation_durable_across_restart(self, tmp_path):
        ring, index, stores = _build(71, tmp_path)
        index.bulk_load(ITEMS)
        victim = max(
            ring.addresses(),
            key=lambda a: index.shard_at(a).load(namespace=index.namespace),
        )
        assert index.shard_at(victim).load(namespace=index.namespace) > 0
        before = index.total_indexed()
        index.evacuate(victim)
        ring.leave(victim)
        ring.stabilize_all(rounds=2)
        for store in stores.values():
            store.close()

        # "Restart": rebuild the same deployment over the same
        # directories and re-apply the membership fact.
        ring2, index2, stores2 = _build(71, tmp_path)
        # The drop was durable: the victim's shard does not resurrect
        # the tables it handed off.
        assert index2.shard_at(victim).load(namespace=index2.namespace) == 0
        ring2.leave(victim)
        ring2.stabilize_all(rounds=2)
        assert index2.total_indexed() == before
        result = SuperSetSearch(index2).run({"base"})
        assert len(result.objects) == len(ITEMS)
        for store in stores2.values():
            store.close()

    def test_rebalance_durable_across_restart(self, tmp_path):
        ring, index, stores = _build(71, tmp_path)
        index.bulk_load(ITEMS)
        before = index.total_indexed()
        bootstrap = ring.any_address()
        joined = []
        for address in range(0, 65536, 4096):
            if address not in ring.nodes:
                ring.join(address, bootstrap)
                joined.append(address)
        ring.stabilize_all(rounds=2)
        # Joined nodes get durable shards too, then data moves to them.
        for address in joined:
            store = FileStore(tmp_path / f"node-{address}")
            stores[address] = store
            shard = index.shard_at(address)
            shard.store = store
            store.bind(tables=lambda shard=shard: shard.tables)
        assert index.rebalance() > 0
        for store in stores.values():
            store.close()

        ring2, index2, stores2 = _build(71, tmp_path)
        bootstrap2 = ring2.any_address()
        for address in joined:
            ring2.join(address, bootstrap2)
            stores2[address] = FileStore(tmp_path / f"node-{address}")
        ring2.stabilize_all(rounds=2)
        # Freshly-joined nodes recover their shards from their stores.
        for address in joined:
            shard = index2.shard_at(address)
            recovered = stores2[address].recover()
            for key, table in recovered.tables.items():
                shard.tables[key] = {
                    keywords: set(objects) for keywords, objects in table.items()
                }
        assert index2.total_indexed() == before
        assert index2.rebalance() == 0  # placement already correct
        for address in ring2.addresses():
            shard = index2.shard_at(address)
            for namespace, logical in shard.tables:
                if namespace == index2.namespace:
                    assert index2.mapping.physical_owner(logical) == address
        for store in stores2.values():
            store.close()
