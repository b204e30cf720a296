"""Bench parallel — wall-clock of the concurrent traversal over real TCP.

Section 3.5's trade made measurable: the PARALLEL order answers a
superset query in ``r - |One| + 1`` RPC rounds where the sequential
TOP_DOWN walk pays one round trip per subcube node, at the same total
message cost.  A 16-node loopback cluster runs both orders for query
sizes m ∈ {1, 2, 3}; every remote round trip pays a small emulated
wire delay (loopback round trips are ~0.1 ms, far below any real
deployment), once per RPC and once per batch, so the measured
wall-clock is dominated by the latency the paper's round model counts,
not by Python dispatch overhead.
"""

import pathlib
import time

from repro.core.config import ServiceConfig
from repro.core.search import TraversalOrder
from repro.experiments.harness import ExperimentResult
from repro.net.cluster import LocalCluster

from benchmarks.conftest import run_once

BASELINE_JSON = pathlib.Path(__file__).parent.parent / "BENCH_parallel.json"

CONFIG = ServiceConfig(dimension=8, num_dht_nodes=16, seed=13)
NUM_OBJECTS = 96
QUERIES = {1: {"common"}, 2: {"common", "tag"}, 3: {"common", "tag", "genre"}}
WIRE_DELAY_MS = 2.0
REPETITIONS = 3


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


def run(
    config: ServiceConfig = CONFIG,
    num_objects: int = NUM_OBJECTS,
    wire_delay_ms: float = WIRE_DELAY_MS,
    repetitions: int = REPETITIONS,
):
    """Time PARALLEL vs TOP_DOWN superset search, one row per query size."""
    rows = []
    with LocalCluster(config) as cluster:
        service = cluster.service
        for number in range(num_objects):
            keywords = {"common", f"x{number % 7}", f"y{number % 5}"}
            if number % 2 == 0:
                keywords.add("tag")
            if number % 3 == 0:
                keywords.add("genre")
            service.publish(f"obj-{number}", keywords)
        emulate_wire_delay(cluster.transport, wire_delay_ms / 1e3)

        for size, query in QUERIES.items():
            stats = {}
            for order in (TraversalOrder.TOP_DOWN, TraversalOrder.PARALLEL):
                service.superset_search(query, order=order, use_cache=False)  # warm
                started = time.monotonic()
                for _ in range(repetitions):
                    result = service.superset_search(query, order=order, use_cache=False)
                elapsed = (time.monotonic() - started) / repetitions
                stats[order] = (elapsed, result)
            seq_elapsed, sequential = stats[TraversalOrder.TOP_DOWN]
            par_elapsed, parallel = stats[TraversalOrder.PARALLEL]
            assert set(parallel.object_ids) == set(sequential.object_ids)
            rows.append(
                {
                    "query_size": size,
                    "matches": len(parallel.objects),
                    "rounds_sequential": sequential.rounds,
                    "rounds_parallel": parallel.rounds,
                    "messages_sequential": sequential.messages,
                    "messages_parallel": parallel.messages,
                    "wall_ms_sequential": round(seq_elapsed * 1e3, 2),
                    "wall_ms_parallel": round(par_elapsed * 1e3, 2),
                    "speedup": round(seq_elapsed / par_elapsed, 2),
                }
            )
    return ExperimentResult(
        experiment="parallel",
        description="concurrent vs sequential SBT traversal over loopback TCP",
        parameters={
            "num_dht_nodes": config.num_dht_nodes,
            "dimension": config.dimension,
            "seed": config.seed,
            "num_objects": num_objects,
            "wire_delay_ms": wire_delay_ms,
            "repetitions": repetitions,
        },
        rows=rows,
        notes=[
            "PARALLEL dispatches whole SBT levels through Transport.rpc_many;",
            "TOP_DOWN is the paper's one-visit-at-a-time T_QUERY walk.",
        ],
    )


def test_parallel(benchmark, record_result):
    result = run_once(benchmark, run)
    record_result(result)
    BASELINE_JSON.write_text(result.to_json() + "\n", encoding="utf-8")
    for row in result.rows:
        # r - |One| batch rounds after the root's own scan (Section 3.5).
        assert row["rounds_parallel"] < row["rounds_sequential"]
        assert row["rounds_sequential"] == 2 ** (row["rounds_parallel"] - 1)
        # Same traffic: the walks visit the same subcube (TOP_DOWN may
        # additionally pay the initial requester->root T_QUERY round trip).
        assert row["messages_sequential"] - row["messages_parallel"] in (0, 2)
        # The acceptance bar: at least 2x faster at equal message cost.
        assert row["speedup"] >= 2.0
