#!/usr/bin/env python
"""Concurrency smoke: the batched PARALLEL traversal over real sockets.

The scenario CI runs end-to-end:

1. build a 16-node loopback-TCP cluster (one ``AsyncioTransport``, one
   listening socket per node) and a same-seed simulator twin, publish
   the same corpus through both;
2. make every remote round trip (one per RPC, one per batch) pay a
   small emulated wire delay, so wall-clock differences reflect round
   trips rather than Python dispatch overhead;
3. for query sizes m ∈ {1, 2, 3}, run superset search in PARALLEL and
   TOP_DOWN order on the cluster and in every order on the simulator;
4. assert (a) the cluster's result sets match the simulator's
   byte-for-byte, (b) PARALLEL finishes in ``r - |One| + 1`` rounds,
   and (c) its wall-clock is strictly below the sequential walk's.

Exits non-zero on any violation.  Runs in well under a minute.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import ServiceConfig  # noqa: E402
from repro.core.service import KeywordSearchService  # noqa: E402
from repro.core.search import TraversalOrder  # noqa: E402
from repro.net.cluster import LocalCluster  # noqa: E402

CONFIG = ServiceConfig(dimension=8, num_dht_nodes=16, seed=13)
QUERIES = {1: {"common"}, 2: {"common", "tag"}, 3: {"common", "tag", "genre"}}
WIRE_DELAY_S = 0.002


def corpus() -> list[tuple[str, set[str]]]:
    items = []
    for number in range(96):
        keywords = {"common", f"x{number % 7}", f"y{number % 5}"}
        if number % 2 == 0:
            keywords.add("tag")
        if number % 3 == 0:
            keywords.add("genre")
        items.append((f"obj-{number}", keywords))
    return items


def emulate_wire_delay(transport, delay_s: float) -> None:
    """Make every remote round trip pay ``delay_s`` of wire latency.

    The calling thread sleeps once per remote ``rpc`` and once per
    ``rpc_many`` batch: one round trip per round, as Section 3.5 counts
    rounds, so requests in flight together share one delay as they
    would on a real link.  The delay sits on the caller, not in the
    handlers: a handler served on the transport's event loop would
    otherwise hold up every other request for the sleep's length.
    Local calls (``src == dst``) stay free.
    """
    rpc, rpc_many = transport.rpc, transport.rpc_many

    def delayed_rpc(src, dst, kind, payload=None, **options):
        if src != dst:
            time.sleep(delay_s)
        return rpc(src, dst, kind, payload, **options)

    def delayed_rpc_many(calls):
        if any(call.src != call.dst for call in calls):
            time.sleep(delay_s)
        return rpc_many(calls)

    transport.rpc = delayed_rpc
    transport.rpc_many = delayed_rpc_many


def timed_search(service, query, order):
    started = time.monotonic()
    result = service.superset_search(query, order=order, use_cache=False)
    return time.monotonic() - started, result


def main() -> int:
    simulator = KeywordSearchService.create(CONFIG)
    for object_id, keywords in corpus():
        simulator.publish(object_id, keywords)

    failures = 0
    with LocalCluster(CONFIG) as cluster:
        for object_id, keywords in corpus():
            cluster.service.publish(object_id, keywords)
        emulate_wire_delay(cluster.transport, WIRE_DELAY_S)

        for size, query in QUERIES.items():
            expected = {
                order: set(
                    simulator.superset_search(query, order=order, use_cache=False).object_ids
                )
                for order in TraversalOrder
            }
            if len(set(map(frozenset, expected.values()))) != 1:
                print(f"FAIL m={size}: simulator orders disagree")
                failures += 1
                continue

            # Warm the connection pool so timing compares traversals,
            # not TCP handshakes.
            timed_search(cluster.service, query, TraversalOrder.TOP_DOWN)
            timed_search(cluster.service, query, TraversalOrder.PARALLEL)
            seq_wall, sequential = timed_search(
                cluster.service, query, TraversalOrder.TOP_DOWN
            )
            par_wall, parallel = timed_search(
                cluster.service, query, TraversalOrder.PARALLEL
            )

            checks = {
                "parallel parity with simulator": set(parallel.object_ids)
                == expected[TraversalOrder.PARALLEL],
                "sequential parity with simulator": set(sequential.object_ids)
                == expected[TraversalOrder.TOP_DOWN],
                "round compression": parallel.rounds < sequential.rounds,
                "wall-clock strictly below sequential": par_wall < seq_wall,
            }
            for label, passed in checks.items():
                if not passed:
                    print(f"FAIL m={size}: {label}")
                    failures += 1
            print(
                f"m={size}: {len(parallel.objects)} objects, "
                f"rounds {sequential.rounds}->{parallel.rounds}, "
                f"wall {seq_wall * 1e3:.1f}ms->{par_wall * 1e3:.1f}ms "
                f"({seq_wall / par_wall:.2f}x), "
                f"{'OK' if all(checks.values()) else 'FAILED'}"
            )

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("concurrency smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
