#!/usr/bin/env python
"""Crash-recovery smoke: SIGKILL a durable node, restart it, verify parity.

The scenario CI runs end-to-end, across real process boundaries:

1. build a 16-node deployment where 15 nodes live in this process (one
   ``AsyncioTransport`` serving 15 loopback sockets, default binary
   codec) and one **victim** node runs as a separate ``python -m repro
   node serve`` process with ``--data-dir`` (WAL + snapshot
   persistence), ``--stats-port``, and ``--codec json`` — a daemon that
   writes v1 frames among peers that write v2, so every cross-process
   RPC crosses a mixed-codec fleet: each side writes its own codec and
   reads the other's;
2. publish half the corpus through the cluster — the victim's shard and
   reference table land in its WAL as version-1 (JSON) records;
3. ``SIGKILL`` the victim mid-workload (no flush, no goodbye);
4. restart it from the same ``--data-dir`` on the same port under the
   *default binary codec* — a restart under the other codec: recovery
   must replay the JSON-era WAL, and new appends land as version-2
   records in the same file — wait for ``/healthz``, and check its
   metrics report a recovery;
5. publish the other half, then run superset queries from a survivor
   and compare every result set against a same-seed simulator that
   never crashed — byte-for-byte parity, 100% recall;
6. resolve a set of keyword prefixes through the distributed keyword
   directory (docs/protocol.md §17) and compare matched keywords and
   result sets against the uninterrupted simulator — the victim's trie
   rows must come back from its WAL, and the second half's trie edge
   splits must have landed on the *recovered* structure;
7. scan the victim's WAL files and require **both** record versions on
   disk — proof the mixed-codec file the codec switch leaves behind is
   what recovery actually replayed;
8. stop the victim with SIGTERM (the graceful path) and exit.

Exits non-zero on any mismatch.  Runs in well under a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import ServiceConfig  # noqa: E402
from repro.core.service import KeywordSearchService  # noqa: E402
from repro.net.aio import AsyncioTransport  # noqa: E402
from repro.net.node import cluster_addresses  # noqa: E402
from repro.workload.corpus import SyntheticCorpus  # noqa: E402


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def wait_for_health(port: int, deadline: float) -> None:
    url = f"http://127.0.0.1:{port}/healthz"
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url, timeout=1) as response:
                if response.status == 200:
                    return
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.2)
    raise SystemExit(f"victim never became healthy on {url}")


def fetch_metrics(port: int) -> dict:
    url = f"http://127.0.0.1:{port}/metrics.json"
    with urllib.request.urlopen(url, timeout=5) as response:
        return json.loads(response.read().decode("utf-8"))


def wal_record_versions(data_dir: Path) -> set[int]:
    """Every record version byte present across the WAL files under
    ``data_dir`` — frame walk only, no payload decoding."""
    versions: set[int] = set()
    for wal_path in data_dir.rglob("wal.log"):
        data = wal_path.read_bytes()
        position = 0
        while position + 8 < len(data):
            length = int.from_bytes(data[position : position + 4], "big")
            if length == 0 or position + 8 + length > len(data):
                break  # torn tail
            versions.add(data[position + 8])
            position += 8 + length
    return versions


def launch_victim(
    config: ServiceConfig,
    victim: int,
    port: int,
    stats_port: int,
    data_dir: Path,
    peers: dict[int, tuple[str, int]],
    codec: str = "binary",
) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro", "node", "serve",
        "--dimension", str(config.dimension),
        "--nodes", str(config.num_dht_nodes),
        "--seed", str(config.seed),
        "--address", str(victim),
        "--port", str(port),
        "--stats-port", str(stats_port),
        "--data-dir", str(data_dir),
        "--prefix-directory",
        "--codec", codec,
    ]
    for address, (host, peer_port) in peers.items():
        command += ["--peer", f"{address}={host}:{peer_port}"]
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        command, cwd=REPO_ROOT, env=environment,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dimension", type=int, default=6)
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--objects", type=int, default=96)
    parser.add_argument("--queries", type=int, default=24)
    parser.add_argument("--timeout", type=float, default=30.0, help="health-wait seconds")
    arguments = parser.parse_args()

    config = ServiceConfig(
        dimension=arguments.dimension,
        num_dht_nodes=arguments.nodes,
        seed=arguments.seed,
        prefix_directory=True,
    )
    corpus = SyntheticCorpus.generate(num_objects=arguments.objects, seed=arguments.seed)
    items = [(record.object_id, record.keywords) for record in corpus.records]
    half = len(items) // 2

    # The uninterrupted reference: a simulator with the same seed and the
    # same publishes — deterministic-deployment parity is the invariant.
    baseline = KeywordSearchService.create(config)
    holder = baseline.dolr.addresses()[0]
    for object_id, keywords in items:
        baseline.publish(object_id, keywords, holder=holder)
    queries = sorted({frozenset(list(kw)[:1]) for _, kw in items[: arguments.queries]},
                     key=sorted)
    expected = {
        tuple(sorted(query)): sorted(baseline.superset_search(query).results())
        for query in queries
    }
    # Prefixes of the hottest keywords: what the directory must answer
    # identically once the victim's trie rows are back from the WAL.
    frequencies = corpus.keyword_frequencies()
    hot = sorted(frequencies, key=lambda word: (-frequencies[word], word))[:8]
    prefixes = sorted({word[:2] for word in hot})
    expected_prefix = {
        prefix: (
            sorted(baseline.directory.resolve(prefix).keywords),
            sorted(baseline.prefix_search(prefix).results()),
        )
        for prefix in prefixes
    }

    # The victim: the node carrying the most index entries, so recovery
    # demonstrably matters.
    loads = baseline.index.load_by_physical_node()
    addresses = cluster_addresses(config)
    victim = max(addresses, key=lambda address: loads.get(address, 0))
    print(f"victim {victim} carries {loads[victim]} of {sum(loads.values())} entries")

    victim_port = free_port()
    stats_port = free_port()
    transport = AsyncioTransport(
        host="127.0.0.1",
        serve_addresses=set(addresses) - {victim},
        peers={victim: ("127.0.0.1", victim_port)},
    )
    process = None
    exit_code = 1
    try:
        service = KeywordSearchService.create(config, network=transport)
        peers = dict(transport.endpoints)
        with tempfile.TemporaryDirectory(prefix="crash-smoke-") as data_dir:
            data = Path(data_dir)
            process = launch_victim(
                config, victim, victim_port, stats_port, data, peers, codec="json"
            )
            wait_for_health(stats_port, time.monotonic() + arguments.timeout)
            print(
                f"victim serving on :{victim_port} (codec json, peers binary), "
                f"stats on :{stats_port}"
            )

            for object_id, keywords in items[:half]:
                service.publish(object_id, keywords, holder=holder)
            print(f"published {half} objects; killing victim with SIGKILL")

            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
            process = launch_victim(
                config, victim, victim_port, stats_port, data, peers, codec="binary"
            )
            wait_for_health(stats_port, time.monotonic() + arguments.timeout)
            counters = fetch_metrics(stats_port).get("counters", {})
            recovered = counters.get("store.recovered_records", 0)
            if counters.get("store.recoveries", 0) < 1:
                print("FAIL: restarted victim reports no store recovery")
                return 1
            print(
                f"victim restarted under codec binary; "
                f"recovered {recovered} records from its JSON-era WAL"
            )

            for object_id, keywords in items[half:]:
                service.publish(object_id, keywords, holder=holder)

            origin = next(address for address in addresses if address != victim)
            mismatches = 0
            for query in queries:
                got = sorted(service.superset_search(query, origin=origin).results())
                want = expected[tuple(sorted(query))]
                if got != want:
                    mismatches += 1
                    print(f"MISMATCH {sorted(query)}: {got} != {want}")
            if mismatches:
                print(f"FAIL: {mismatches}/{len(queries)} queries diverged after crash")
                return 1
            print(f"all {len(queries)} superset queries match the uninterrupted run")

            for prefix in prefixes:
                want_keywords, want_objects = expected_prefix[prefix]
                resolution = service.directory.resolve(prefix, origin=origin)
                result = service.prefix_search(prefix, origin=origin)
                if (
                    sorted(resolution.keywords) != want_keywords
                    or sorted(result.results()) != want_objects
                ):
                    mismatches += 1
                    print(
                        f"MISMATCH prefix {prefix!r}: "
                        f"{sorted(resolution.keywords)} != {want_keywords} or "
                        f"{sorted(result.results())} != {want_objects}"
                    )
            if mismatches:
                print(f"FAIL: {mismatches}/{len(prefixes)} prefix queries diverged")
                return 1
            print(f"all {len(prefixes)} prefix queries resolve identically after recovery")

            versions = wal_record_versions(data)
            if not {1, 2} <= versions:
                print(
                    f"FAIL: expected mixed WAL record versions {{1, 2}} on disk, "
                    f"found {sorted(versions)}"
                )
                return 1
            print(f"victim WAL holds mixed record versions {sorted(versions)}")

            process.send_signal(signal.SIGTERM)  # the graceful path
            try:
                process.wait(timeout=15)
                print("victim stopped cleanly on SIGTERM")
            except subprocess.TimeoutExpired:
                print("FAIL: victim ignored SIGTERM")
                return 1
            exit_code = 0
            process = None
    finally:
        if process is not None:
            process.kill()
            process.wait(timeout=10)
        transport.close()
    print("crash-recovery smoke: OK")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
