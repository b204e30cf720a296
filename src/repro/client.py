"""One client API over every deployment shape.

The repository grew three ways to issue a search — an in-process
:class:`~repro.core.service.KeywordSearchService` (simulator or TCP), a
:class:`~repro.net.cluster.LocalCluster`, and a fleet of
:class:`~repro.net.node.NodeDaemon` processes addressed by a peers book
— each with its own spelling.  Load generators, experiments, and smoke
scripts had to know which one they were driving.  :class:`Client` is
the one spelling: ``search`` / ``insert`` / ``delete``, identical over
any medium, obtained from whatever you have::

    client = service.client()                  # any KeywordSearchService
    client = cluster.client()                  # a LocalCluster
    client = connect(config, peers=endpoints)  # a daemon fleet, by address book

    client.insert("paper.pdf", {"dht", "search"})
    client.search({"dht"}).results()
    client.search({"dht"}, SearchOptions(deadline=2000.0, priority=1))

:class:`~repro.core.config.SearchOptions` carries all per-query knobs,
including the PR-6 ``deadline`` and ``priority`` QoS fields, so a
driver written against :class:`Client` exercises admission control and
deadline budgets over TCP and runs unchanged on the simulator.

``connect(config, peers=...)`` builds a :class:`DaemonFleetClient`: a
serve-nothing :class:`~repro.net.aio.AsyncioTransport` whose every RPC
— including self-addressed ones — dials out to the daemon that owns the
address.  That is also how the multi-process load generator
(:mod:`repro.load`) gives each worker process its own socket pool
against one shared cluster.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.config import SearchOptions, ServiceConfig
from repro.core.search import SearchResult
from repro.core.service import KeywordSearchService, PublishedObject
from repro.membership import PeerBook, apply_book
from repro.net.aio import AsyncioTransport
from repro.net.errors import PeerUnreachableError

if TYPE_CHECKING:
    from repro.net.cluster import LocalCluster

__all__ = ["Client", "DaemonFleetClient", "InvalidQueryError", "ServiceClient", "connect"]


class InvalidQueryError(ValueError):
    """A query rejected at the client boundary before any message is
    sent: an empty keyword set, a non-string keyword, an empty prefix,
    or a prefix query that is not exactly one string.  Subclasses
    ``ValueError`` so pre-existing ``except ValueError`` call sites
    keep working."""


def _validated_query(keywords, options: SearchOptions | None):
    """Normalize a query up front, re-framing malformed input as
    :class:`InvalidQueryError` instead of a bare ``ValueError`` from
    deep inside :mod:`repro.core.keywords`.  Normalization is
    idempotent, so passing the canonical form through changes no
    behaviour."""
    from repro.core.keywords import normalize_keywords, normalize_prefix

    try:
        if options is not None and options.prefix:
            if isinstance(keywords, str):
                return normalize_prefix(keywords)
            items = list(keywords)
            if len(items) != 1 or not isinstance(items[0], str):
                raise ValueError(
                    f"a prefix query takes exactly one prefix string, got {items!r}"
                )
            return normalize_prefix(items[0])
        return normalize_keywords(keywords)
    except (TypeError, ValueError) as error:
        raise InvalidQueryError(str(error)) from None


@runtime_checkable
class Client(Protocol):
    """What every deployment shape looks like to a driver.

    ``search`` runs a superset search; ``insert`` publishes one object
    replica; ``delete`` withdraws it; ``close`` releases whatever the
    client owns (sockets for a fleet client, nothing for a borrowed
    service).  Implementations are context managers.
    """

    def search(
        self, keywords: Iterable[str], options: SearchOptions | None = None
    ) -> SearchResult: ...

    def insert(
        self, object_id: str, keywords: Iterable[str], *, holder: int | None = None
    ) -> PublishedObject: ...

    def delete(self, object_id: str, *, holder: int) -> None: ...

    def close(self) -> None: ...


class _ServiceBackedClient:
    """Shared implementation: every shape bottoms out in a service."""

    service: KeywordSearchService

    def search(
        self, keywords: Iterable[str], options: SearchOptions | None = None
    ) -> SearchResult:
        """min(t, |O_K|) objects describable by ``keywords`` — or, with
        ``options.prefix``, the objects carrying any keyword extending
        the given prefix.  Malformed queries raise
        :class:`InvalidQueryError` before any message is sent."""
        return self.service.search(_validated_query(keywords, options), options)

    def insert(
        self, object_id: str, keywords: Iterable[str], *, holder: int | None = None
    ) -> PublishedObject:
        """Publish one replica of ``object_id`` under ``keywords``.
        Malformed keyword sets raise :class:`InvalidQueryError`."""
        return self.service.publish(
            object_id, _validated_query(keywords, None), holder=holder
        )

    def delete(self, object_id: str, *, holder: int) -> None:
        """Withdraw the replica ``holder`` published."""
        self.service.unpublish(object_id, holder=holder)

    def close(self) -> None:  # overridden where the client owns resources
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServiceClient(_ServiceBackedClient):
    """A :class:`Client` borrowing an existing service (any medium).

    The service is *not* owned: :meth:`close` is a no-op, and the
    service (or the cluster housing it) outlives the client.  Built by
    :meth:`KeywordSearchService.client` and :meth:`LocalCluster.client`.
    """

    def __init__(self, service: KeywordSearchService):
        self.service = service


class DaemonFleetClient(_ServiceBackedClient):
    """A :class:`Client` dialing a fleet of node daemons over TCP.

    Builds the deterministic stack from the shared ``(seed, config)``
    spec — the same derivation every daemon performs — on a transport
    that serves *nothing*: all addresses live in ``peers``, so every
    RPC, self-addressed ones included, crosses the wire to the daemon
    that owns the address.  The client owns its transport;
    :meth:`close` drops the socket pool.

    Under dynamic membership (see :mod:`repro.membership`) the client's
    derived view can go stale: a target daemon may have left, died, or
    been replaced by a joiner.  When an operation fails with
    :class:`~repro.net.errors.PeerUnreachableError`, the client fetches
    the current peer book from any reachable daemon (``memb.book``),
    folds it into its view — rewiring its ring and endpoint table — and
    retries the operation once against the refreshed placement.
    Deployments without membership are unaffected: the refresh finds no
    ``memb.*`` handler and the original error propagates.
    """

    def __init__(
        self,
        config: ServiceConfig,
        peers: dict[int, tuple[str, int]],
        *,
        rpc_timeout: float = 10.0,
        time_scale: float = 0.001,
    ):
        self.transport = AsyncioTransport(
            serve_addresses=frozenset(),
            peers=dict(peers),
            rpc_timeout=rpc_timeout,
            time_scale=time_scale,
        )
        try:
            self.service = KeywordSearchService.create(config, network=self.transport)
        except BaseException:
            self.transport.close()
            raise

    def close(self) -> None:
        self.transport.close()

    # -- membership-aware retry ---------------------------------------

    def refresh_membership(self) -> bool:
        """Fetch the current peer book from any reachable daemon and
        fold it into this client's view.  True when a book was fetched
        (False: no daemon answered, or none runs membership)."""
        # Bounded wait per candidate (2s wall) so one dead daemon at the
        # front of the book does not stall the whole refresh.
        probe_timeout = 2.0 / self.transport.time_scale
        for address in sorted(self.transport.peers):
            try:
                reply = self.transport.rpc(
                    address, address, "memb.book", {}, timeout=probe_timeout
                )
            except Exception:  # noqa: BLE001 - daemon down or membership off; next
                continue
            book = PeerBook.from_payload(reply["book"])
            apply_book(self.service, self.transport, book, served=set())
            self.transport.metrics.increment("client.membership_refreshes")
            return True
        return False

    def _retrying(self, operation):
        """Run ``operation``; on an unreachable peer, refresh the view
        from the live deployment and retry once."""
        try:
            return operation()
        except PeerUnreachableError:
            if not self.refresh_membership():
                raise
            self.transport.metrics.increment("client.membership_retries")
            return operation()

    def search(
        self, keywords: Iterable[str], options: SearchOptions | None = None
    ) -> SearchResult:
        """min(t, |O_K|) objects describable by ``keywords`` (with the
        stale-placement retry described on the class)."""
        return self._retrying(lambda: super(DaemonFleetClient, self).search(keywords, options))

    def insert(
        self, object_id: str, keywords: Iterable[str], *, holder: int | None = None
    ) -> PublishedObject:
        """Publish one replica of ``object_id`` (with the
        stale-placement retry described on the class)."""
        return self._retrying(
            lambda: super(DaemonFleetClient, self).insert(object_id, keywords, holder=holder)
        )

    def delete(self, object_id: str, *, holder: int) -> None:
        """Withdraw the replica ``holder`` published (with the
        stale-placement retry described on the class)."""
        return self._retrying(
            lambda: super(DaemonFleetClient, self).delete(object_id, holder=holder)
        )


def connect(
    target: KeywordSearchService | "LocalCluster" | ServiceConfig,
    *,
    peers: dict[int, tuple[str, int]] | None = None,
    rpc_timeout: float = 10.0,
    time_scale: float = 0.001,
) -> Client:
    """The one factory: a :class:`Client` for whatever you have.

    * a :class:`~repro.core.service.KeywordSearchService` (simulated or
      TCP-backed) -> a borrowing :class:`ServiceClient`;
    * a :class:`~repro.net.cluster.LocalCluster` -> a
      :class:`ServiceClient` on its service;
    * a :class:`~repro.core.config.ServiceConfig` plus ``peers``
      (address -> (host, port), e.g. a cluster's ``endpoints`` or a
      hand-built daemon address book) -> an owning
      :class:`DaemonFleetClient` whose every RPC crosses TCP.
    """
    if isinstance(target, KeywordSearchService):
        return ServiceClient(target)
    if isinstance(target, ServiceConfig):
        if peers is None:
            raise TypeError("connect(config, ...) needs peers= (address -> (host, port))")
        return DaemonFleetClient(
            target, peers, rpc_timeout=rpc_timeout, time_scale=time_scale
        )
    service = getattr(target, "service", None)
    if isinstance(service, KeywordSearchService):  # LocalCluster / NodeDaemon shape
        return ServiceClient(service)
    raise TypeError(
        f"cannot build a Client from {type(target).__name__}; pass a "
        "KeywordSearchService, a LocalCluster, or a ServiceConfig with peers="
    )
