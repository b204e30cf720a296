"""Concurrent writers and searchers on one fleet client over loopback TCP.

Two threads insert and delete while two threads run superset searches,
all through one shared :class:`~repro.client.DaemonFleetClient` against
a cached 16-node :class:`~repro.net.cluster.LocalCluster`.  Scans and
cache traffic are served on the nodes' event loop while the writes run
on the handler pool, so this is the test that shared index and cache
state stays consistent across the two.  No operation may fail, and once
the writers are done every query must answer exactly what a posting
list built by the test says.
"""

import random
import sys
import threading

from repro.client import connect
from repro.core.config import SearchOptions, ServiceConfig
from repro.net.cluster import LocalCluster

CONFIG = ServiceConfig(dimension=6, num_dht_nodes=16, seed=11, cache_capacity=16)
VOCABULARY = ("dht", "p2p", "search", "overlay", "chord", "cube")
QUERIES = [frozenset({word}) for word in VOCABULARY] + [
    frozenset({"dht", "p2p"}),
    frozenset({"search", "overlay"}),
    frozenset({"dht", "cube", "chord"}),
]
BASE_OBJECTS = 24
WRITES_PER_WRITER = 40
SEARCHES_PER_SEARCHER = 60


def keywords_for(rng: random.Random) -> frozenset[str]:
    return frozenset(rng.sample(VOCABULARY, rng.randint(1, 3)))


def truth(live: dict[str, frozenset[str]], query: frozenset[str]) -> set[str]:
    return {object_id for object_id, keywords in live.items() if query <= keywords}


def test_concurrent_writes_and_cached_searches_stay_exact():
    rng = random.Random(5)
    live: dict[str, frozenset[str]] = {}
    live_lock = threading.Lock()
    errors: list[tuple[str, BaseException]] = []

    with LocalCluster(CONFIG) as cluster:
        client = connect(CONFIG, peers=cluster.endpoints)
        try:
            for number in range(BASE_OBJECTS):
                keywords = keywords_for(rng)
                client.insert(f"base-{number}", keywords)
                live[f"base-{number}"] = keywords
            plans = {
                writer: [keywords_for(rng) for _ in range(WRITES_PER_WRITER)]
                for writer in range(2)
            }
            searches = {
                searcher: [
                    (rng.choice(QUERIES), rng.choice((None, 3)))
                    for _ in range(SEARCHES_PER_SEARCHER)
                ]
                for searcher in range(2)
            }

            def writer(number: int) -> None:
                published = []
                try:
                    for i, keywords in enumerate(plans[number]):
                        object_id = f"w{number}-{i}"
                        published.append(client.insert(object_id, keywords))
                        with live_lock:
                            live[object_id] = keywords
                        if i % 2 == 1:  # withdraw the previous object
                            victim = published[-2]
                            client.delete(victim.object_id, holder=victim.holder)
                            with live_lock:
                                del live[victim.object_id]
                except BaseException as error:  # noqa: BLE001 - reported below
                    errors.append((f"writer {number}", error))

            def searcher(number: int) -> None:
                try:
                    for query, threshold in searches[number]:
                        client.search(query, SearchOptions(threshold=threshold))
                except BaseException as error:  # noqa: BLE001 - reported below
                    errors.append((f"searcher {number}", error))

            threads = [threading.Thread(target=writer, args=(n,)) for n in range(2)]
            threads += [threading.Thread(target=searcher, args=(n,)) for n in range(2)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []

            for query in QUERIES:
                expected = truth(live, query)
                # Twice: the second answer comes from the root cache.
                for _ in range(2):
                    full = client.search(query)
                    assert set(full.object_ids) == expected, sorted(query)
                    assert len(full.object_ids) == len(expected)
                    limited = client.search(query, SearchOptions(threshold=3))
                    assert set(limited.object_ids) <= expected
                    assert len(limited.object_ids) == min(3, len(expected))
        finally:
            client.close()
