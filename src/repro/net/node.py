"""``NodeDaemon``: host one DHT node behind a TCP endpoint.

A daemon builds the *whole* deterministic stack from the shared
``(seed, config)`` spec — the static-membership deployment model: every
participant derives the same address list, placement mapping, and
routing tables from the config, so no join protocol is needed — but
serves exactly **one** address over TCP.  RPCs its node's protocol code
issues toward any other address are dialled out to that address's
daemon, found through the ``peers`` book (address -> host:port).

Deployment recipe (one shell per node)::

    python -m repro node addresses --dimension 6 --nodes 4 --seed 7
    # -> e.g. 1182657605 1399953982 2916232149 3675293713

    python -m repro node serve --dimension 6 --nodes 4 --seed 7 \\
        --address 1182657605 --port 9001 \\
        --peer 1399953982=127.0.0.1:9002 \\
        --peer 2916232149=127.0.0.1:9003 \\
        --peer 3675293713=127.0.0.1:9004

Each daemon prints ``serving <address> on <host>:<port>`` once its
socket is bound.  Any daemon can then publish and search through its
:attr:`NodeDaemon.service`; the CLI form just serves until interrupted.

For an N-node deployment inside one process (tests, benchmarks, smoke
jobs) use :class:`~repro.net.cluster.LocalCluster` instead.
"""

from __future__ import annotations

import argparse
import signal
import threading
from pathlib import Path

from repro.core.config import ServiceConfig
from repro.core.service import KeywordSearchService
from repro.membership import MembershipAgent, MembershipApplication, MembershipPolicy, PeerBook
from repro.net.admission import AdmissionPolicy
from repro.net.aio import AsyncioTransport
from repro.obs.stats import StatsServer
from repro.store.backend import MemoryStore
from repro.store.file import FileStore

__all__ = ["NodeDaemon", "cluster_addresses", "add_node_commands", "run_node_command"]


def cluster_addresses(config: ServiceConfig) -> list[int]:
    """The DHT addresses a deployment of ``config`` consists of.

    Derived by building a throwaway simulated stack from the same seed —
    cheap, and guaranteed to agree with what every daemon derives.
    """
    return KeywordSearchService.create(config).dolr.addresses()


class NodeDaemon:
    """One node of a multi-process deployment."""

    def __init__(
        self,
        config: ServiceConfig,
        address: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        peers: dict[int, tuple[str, int]] | None = None,
        rpc_timeout: float = 10.0,
        time_scale: float = 0.001,
        stats_port: int | None = None,
        data_dir: str | Path | None = None,
        admission: AdmissionPolicy | None = None,
        membership: bool | MembershipPolicy = False,
        join: bool = False,
    ):
        """``stats_port`` (0 for OS-assigned) additionally serves this
        daemon's metrics over HTTP — Prometheus text at ``/metrics``,
        JSON at ``/metrics.json`` (see :mod:`repro.obs.stats`).

        ``admission`` bounds the served node's inflight requests:
        excess requests are answered T_BUSY straight from the IO loop
        instead of queueing behind the handler pool (see
        :mod:`repro.net.admission`).  None admits everything.

        ``data_dir`` makes the served node durable: its index shard and
        reference table live in a WAL + snapshot store under
        ``<data_dir>/node-<address>/`` (see :mod:`repro.store`), replayed
        on boot — so a ``kill -9``'d daemon restarted from the same
        directory serves its full shard again.  The *other* addresses of
        the derived deployment stay in memory (their daemons own their
        own directories).

        ``membership`` (False, True, or a
        :class:`~repro.membership.MembershipPolicy`) runs the gossip /
        failure-detection agent for this daemon and serves the
        ``memb.*`` management RPCs.  With ``data_dir`` it also persists
        the peer book (plus this daemon's own endpoint) to
        ``<data_dir>/membership.json``, and — when ``peers`` is empty —
        rejoins from that file on restart: the saved endpoints become
        the peer book and the saved port is re-bound, so no peer list
        needs re-passing.

        ``join=True`` (requires ``membership``) serves an address that
        is *not* part of the derived deployment: the daemon admits
        itself into its own ring view and, once :meth:`announce` is
        called with a seed, the rest of the deployment learns of it and
        hands over the index tables it now owns.
        """
        self.config = config
        self.address = address
        self.stats: StatsServer | None = None
        self.membership: MembershipAgent | None = None
        self._shutdown = threading.Event()
        if join and not membership:
            raise ValueError("join=True requires membership to be enabled")
        self._membership_path = (
            None if data_dir is None else Path(data_dir) / "membership.json"
        )
        if (
            not peers
            and self._membership_path is not None
            and self._membership_path.exists()
        ):
            # Satellite state from a previous run: rejoin from the local
            # book instead of requiring the full peer list again.
            saved_book, saved_meta = PeerBook.load(self._membership_path)
            self._rejoin_book: PeerBook | None = saved_book
            peers = {
                a: endpoint for a, endpoint in saved_book.endpoints().items() if a != address
            }
            if port == 0:
                port = int(saved_meta.get("port", 0))
            record = saved_book.get(address)
            if record is not None and record.status == "left":
                raise ValueError(
                    f"address {address} already left this deployment per "
                    f"{self._membership_path}; refusing to rejoin"
                )
        else:
            self._rejoin_book = None
        self.transport = AsyncioTransport(
            host=host,
            serve_addresses={address},
            ports={address: port},
            peers=peers or {},
            rpc_timeout=rpc_timeout,
            time_scale=time_scale,
            admission=admission,
            codec=config.codec,
        )
        store_factory = None
        if data_dir is not None:
            base = Path(data_dir)

            def store_factory(addr: int):
                if addr == address:
                    return FileStore(
                        base / f"node-{addr}",
                        metrics=self.transport.metrics,
                        codec=config.codec,
                    )
                return MemoryStore()

        try:
            self.service = KeywordSearchService.create(
                config, network=self.transport, store_factory=store_factory
            )
            if address not in self.service.dolr.nodes and not join:
                known = self.service.dolr.addresses()
                raise ValueError(
                    f"address {address} is not part of this deployment; "
                    f"valid addresses: {known} (pass join=True to join a "
                    "running deployment at a new address)"
                )
            if membership:
                policy = membership if isinstance(membership, MembershipPolicy) else None
                agent = MembershipAgent(
                    self.service,
                    self.transport,
                    policy=policy,
                    served=set() if join else {address},
                    seed=address,
                    on_change=self._save_membership,
                    on_leave=lambda _address: self.request_shutdown(),
                )
                self.service.dolr.install_everywhere(
                    lambda node: MembershipApplication(agent)
                )
                self.membership = agent
                if self._rejoin_book is not None:
                    # Fold the previous run's book in before anything
                    # else: dead/left peers get expelled from the derived
                    # view, known endpoints land in the peer table.
                    applied = agent.book.merge(self._rejoin_book.records.values())
                    agent._reconcile(applied)
                if join:
                    if store_factory is not None:
                        # Make the joined address durable too: the shard
                        # factory reads this dict when admit provisions
                        # the new node.
                        self.service.stores[address] = store_factory(address)
                    agent.join(address)
                    if store_factory is not None:
                        self.service.dolr.node(address).attach_store(
                            self.service.stores[address]
                        )
                    for seed in sorted(set(self.transport.peers) - {address}):
                        try:
                            agent.announce(address, seed)
                            break
                        except Exception:  # noqa: BLE001 - try the next seed
                            continue
                else:
                    # Outrank any stale "dead" record from a downtime.
                    agent.assert_alive(address)
                    for seed in sorted(set(self.transport.peers) - {address}):
                        try:
                            agent.announce(address, seed)
                        except Exception:  # noqa: BLE001 - seed down; try next
                            continue
                        record = agent.book.get(address)
                        if record is None or record.status != "alive":
                            # The deployment had declared us dead at a
                            # higher epoch; re-assert above it and spread.
                            agent.assert_alive(address)
                            agent.announce(address, seed)
                        break
                agent.start()
                self._save_membership(agent.book)
            if stats_port is not None:
                self.stats = StatsServer(self.transport.metrics, host=host, port=stats_port)
        except BaseException:
            self.close()
            raise

    @property
    def endpoint(self) -> tuple[str, int]:
        """The (host, port) this daemon's node listens on."""
        return self.transport.endpoints[self.address]

    @property
    def stats_endpoint(self) -> tuple[str, int] | None:
        """The (host, port) of the stats endpoint, when one is up."""
        return self.stats.endpoint if self.stats is not None else None

    @property
    def store(self):
        """The served address's durable backend (None without data_dir)."""
        service = getattr(self, "service", None)
        if service is None:
            return None
        return service.stores.get(self.address)

    # -- graceful shutdown --------------------------------------------

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    def request_shutdown(self, *_signal_args) -> None:
        """Ask the serve loop to exit; safe to call from a signal handler."""
        self._shutdown.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into :meth:`request_shutdown` so the
        serve loop winds down through :meth:`close` — flushing the WAL
        and closing the stats server — instead of dying mid-append.
        Main thread only (a signal-module constraint)."""
        signal.signal(signal.SIGTERM, self.request_shutdown)
        signal.signal(signal.SIGINT, self.request_shutdown)

    def __enter__(self) -> "NodeDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        membership = getattr(self, "membership", None)
        if membership is not None:
            membership.stop()
            self.membership = None
        if self.stats is not None:
            self.stats.close()
            self.stats = None
        service = getattr(self, "service", None)
        if service is not None:
            service.close_stores()
        self.transport.close()

    # -- membership persistence ---------------------------------------

    def _save_membership(self, book) -> None:
        """Write the peer book + this daemon's own endpoint under the
        data dir, so a restart can rejoin without the full peer list."""
        if self._membership_path is None:
            return
        endpoint = self.transport.endpoints.get(self.address)
        book.save(
            self._membership_path,
            extra={
                "address": self.address,
                "host": endpoint[0] if endpoint else None,
                "port": endpoint[1] if endpoint else 0,
            },
        )


# -- CLI glue (python -m repro node ...) -----------------------------------


def _parse_peer(spec: str) -> tuple[int, tuple[str, int]]:
    """Parse ``ADDRESS=HOST:PORT``."""
    try:
        address_part, endpoint = spec.split("=", 1)
        host, port = endpoint.rsplit(":", 1)
        return int(address_part), (host, int(port))
    except ValueError:
        raise SystemExit(
            f"invalid --peer {spec!r}: expected ADDRESS=HOST:PORT"
        ) from None


def _config_from(arguments: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        dimension=arguments.dimension,
        num_dht_nodes=arguments.nodes,
        dht=arguments.dht,
        dht_bits=arguments.bits,
        seed=arguments.seed,
        prefix_directory=getattr(arguments, "prefix_directory", False),
        codec=getattr(arguments, "codec", "binary"),
    )


def add_node_commands(commands) -> None:
    """Register the ``node`` subcommand group on the repro CLI."""
    node = commands.add_parser("node", help="run or inspect a real TCP node deployment")
    actions = node.add_subparsers(dest="node_command", required=True)

    def common(subparser) -> None:
        subparser.add_argument("--dimension", type=int, required=True, help="hypercube dimension")
        subparser.add_argument("--nodes", type=int, required=True, help="number of DHT nodes")
        subparser.add_argument("--dht", default="chord", choices=["chord", "kademlia", "pastry"])
        subparser.add_argument("--bits", type=int, default=32, help="identifier-space bits")
        subparser.add_argument("--seed", type=int, default=0, help="deployment seed")
        subparser.add_argument(
            "--prefix-directory",
            action="store_true",
            help="maintain the distributed keyword directory (prefix search, "
            "docs/protocol.md §17); every daemon of a deployment must agree",
        )

    addresses = actions.add_parser(
        "addresses", help="print the node addresses this deployment consists of"
    )
    common(addresses)

    def serving_options(subparser, *, joining: bool) -> None:
        subparser.add_argument(
            "--address",
            type=int,
            required=True,
            help="a brand-new node id to join at" if joining else "which node to serve",
        )
        subparser.add_argument("--host", default="127.0.0.1")
        subparser.add_argument(
            "--port", type=int, default=0, help="listen port (0: OS-assigned)"
        )
        subparser.add_argument(
            "--peer",
            action="append",
            default=[],
            metavar="ADDRESS=HOST:PORT",
            help="endpoint of another node's daemon (repeatable)"
            + ("; at least one seed is how the deployment is found" if joining else ""),
        )
        subparser.add_argument(
            "--stats-port",
            type=int,
            default=None,
            help="also serve Prometheus/JSON metrics over HTTP on this port "
            "(0: OS-assigned)",
        )
        subparser.add_argument(
            "--data-dir",
            default=None,
            help="persist this node's state under DIR/node-<address>/ (WAL + snapshots) "
            "plus the peer book in DIR/membership.json, replayed on restart",
        )
        subparser.add_argument(
            "--max-inflight",
            type=int,
            default=None,
            help="admission control: bound concurrently served requests; excess requests "
            "are shed with T_BUSY (default: unbounded, no admission control)",
        )
        subparser.add_argument(
            "--priority-headroom",
            type=int,
            default=0,
            help="extra admission slots reserved for priority > 0 requests "
            "(only with --max-inflight)",
        )
        subparser.add_argument(
            "--retry-after",
            type=float,
            default=0.0,
            help="backoff hint (transport time units) shipped in T_BUSY replies "
            "(only with --max-inflight)",
        )
        subparser.add_argument(
            "--codec",
            default="binary",
            choices=["json", "binary"],
            help="the codec this node writes on the wire and in its WAL "
            "(docs/protocol.md §18): 'binary' (default) writes v2 frames, 'json' v1; "
            "every node reads both",
        )
        if not joining:
            subparser.add_argument(
                "--membership",
                action="store_true",
                help="run the gossip/failure-detection agent and serve the memb.* "
                "management RPCs (see repro.membership)",
            )

    serve = actions.add_parser("serve", help="host one node's endpoint over TCP")
    common(serve)
    serving_options(serve, joining=False)

    join = actions.add_parser(
        "join",
        help="join a *running* deployment at a brand-new address (implies membership)",
    )
    common(join)
    serving_options(join, joining=True)

    leave = actions.add_parser(
        "leave",
        help="ask a running daemon to evacuate its tables and shut down gracefully",
    )
    common(leave)
    leave.add_argument("--address", type=int, required=True, help="the node to retire")
    leave.add_argument(
        "--peer",
        action="append",
        default=[],
        metavar="ADDRESS=HOST:PORT",
        help="endpoint of the target daemon (ADDRESS must match --address)",
    )
    leave.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="seconds to wait for the evacuation to finish",
    )


def _run_leave_command(config: ServiceConfig, arguments: argparse.Namespace) -> int:
    """Client side of ``repro node leave``: one RPC to the target."""
    peers = dict(_parse_peer(spec) for spec in arguments.peer)
    if arguments.address not in peers:
        raise SystemExit(
            f"--peer must include the endpoint of the target daemon "
            f"({arguments.address}=HOST:PORT)"
        )
    transport = AsyncioTransport(
        serve_addresses=set(), peers=peers, rpc_timeout=arguments.timeout
    )
    try:
        reply = transport.rpc(arguments.address, arguments.address, "memb.leave", {})
    finally:
        transport.close()
    print(f"left {arguments.address}: {reply['moved']} references evacuated", flush=True)
    return 0


def run_node_command(arguments: argparse.Namespace) -> int:
    config = _config_from(arguments)
    if arguments.node_command == "addresses":
        for address in cluster_addresses(config):
            print(address)
        return 0
    if arguments.node_command == "leave":
        return _run_leave_command(config, arguments)

    joining = arguments.node_command == "join"
    peers = dict(_parse_peer(spec) for spec in arguments.peer)
    admission = None
    if arguments.max_inflight is not None:
        admission = AdmissionPolicy(
            max_inflight=arguments.max_inflight,
            priority_headroom=arguments.priority_headroom,
            retry_after=arguments.retry_after,
        )
    daemon = NodeDaemon(
        config,
        arguments.address,
        host=arguments.host,
        port=arguments.port,
        peers=peers,
        stats_port=arguments.stats_port,
        data_dir=arguments.data_dir,
        admission=admission,
        membership=joining or getattr(arguments, "membership", False),
        join=joining,
    )
    host, port = daemon.endpoint
    print(f"serving {arguments.address} on {host}:{port}", flush=True)
    if daemon.stats_endpoint is not None:
        stats_host, stats_port = daemon.stats_endpoint
        print(f"stats on http://{stats_host}:{stats_port}/metrics", flush=True)
    daemon.install_signal_handlers()
    try:
        while not daemon.shutdown_requested:
            daemon.transport.sleep(250)  # all work happens in the IO thread
    except KeyboardInterrupt:  # pre-handler-installation race
        pass
    finally:
        daemon.close()
    print(f"stopped {arguments.address}", flush=True)
    return 0
