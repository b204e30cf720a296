"""The generalized DOLR (distributed object location and routing) model.

Section 2.1 of the paper abstracts the DHT layer into:

* a mapping ``L`` that deterministically and uniformly maps each object
  (by its ID) to exactly one node of the a-bit identifier space,
* a routing mechanism providing a path between any two nodes,
* surrogate routing, so that a message to an absent identifier reaches
  the live node standing in for it, and
* three operations — ``Insert``, ``Delete``, ``Read`` — on object
  *references* (σ, u), where u is a node holding a replica of σ.

``DolrNetwork`` is that contract.  ``DolrNode`` is the per-node half:
local reference table ``Refs_v`` plus a pluggable *application* slot the
keyword-search layer (and the baselines) install their per-node state
and message handlers into.
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Protocol

from repro.dht.ids import IdSpace
from repro.net.transport import Transport
from repro.sim.network import Message
from repro.sim.resilience import BreakerPolicy, ResilientChannel, RetryPolicy

__all__ = [
    "DolrNetwork",
    "DolrNode",
    "LookupResult",
    "NodeApplication",
    "ObjectReference",
]


@dataclass(frozen=True)
class ObjectReference:
    """A reference (σ, u): object ``object_id`` has a replica at node
    ``holder``.  The paper's ``(σ, u)`` pairs."""

    object_id: str
    holder: int


@dataclass(frozen=True)
class LookupResult:
    """Outcome of routing a key to its owner."""

    key: int
    owner: int
    hops: int
    path: tuple[int, ...]


class NodeApplication(Protocol):
    """Application state installed on a DHT node (e.g. a hypercube index
    shard).  ``handle`` receives every message whose kind starts with the
    application's prefix."""

    prefix: str

    def handle(self, node: "DolrNode", message: Message) -> Any: ...


class DolrNode:
    """A physical node: address, reference table, installed applications.

    Message kinds are namespaced by a dotted prefix; ``dolr.*`` kinds are
    handled here, anything else is dispatched to the application whose
    prefix matches the first dotted component.
    """

    def __init__(self, address: int, space: IdSpace, network: Transport):
        space.check(address)
        self.address = address
        self.space = space
        self.network = network
        self.refs: dict[str, set[int]] = {}
        self.store = None  # durable backend, attached via attach_store()
        self._applications: dict[str, NodeApplication] = {}
        network.register(address, self._on_message)

    def attach_store(self, store) -> None:
        """Bind a :class:`~repro.store.backend.StoreBackend`: boot the
        reference table from recovered state and record every change."""
        self.store = store
        recovered = store.recover()
        if recovered.refs:
            self.refs = {
                object_id: set(holders) for object_id, holders in recovered.refs.items()
            }
        store.bind(refs=lambda: self.refs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(address={self.address})"

    # -- applications ---------------------------------------------------

    def install(self, application: NodeApplication) -> None:
        """Install an application; replaces any with the same prefix."""
        self._applications[application.prefix] = application

    def application(self, prefix: str) -> NodeApplication:
        return self._applications[prefix]

    def has_application(self, prefix: str) -> bool:
        return prefix in self._applications

    # -- message dispatch -------------------------------------------------

    def _on_message(self, message: Message) -> Any:
        prefix, _, _ = message.kind.partition(".")
        if prefix == "dolr":
            return self._handle_dolr(message)
        application = self._applications.get(prefix)
        if application is None:
            raise LookupError(
                f"node {self.address} has no application for message kind {message.kind!r}"
            )
        return application.handle(self, message)

    def _handle_dolr(self, message: Message) -> Any:
        payload = message.payload
        if message.kind == "dolr.insert_ref":
            holders = self.refs.setdefault(payload["object_id"], set())
            existed = bool(holders)
            if payload["holder"] not in holders:
                holders.add(payload["holder"])
                if self.store is not None:
                    self.store.record_ref_put(payload["object_id"], payload["holder"])
                    self.store.maybe_compact()
            return {"already_present": existed}
        if message.kind == "dolr.delete_ref":
            holders = self.refs.get(payload["object_id"], set())
            removed = payload["holder"] in holders
            holders.discard(payload["holder"])
            remaining = bool(holders)
            if not holders:
                self.refs.pop(payload["object_id"], None)
            if removed and self.store is not None:
                self.store.record_ref_del(payload["object_id"], payload["holder"])
                self.store.maybe_compact()
            return {"copies_remain": remaining}
        if message.kind == "dolr.read_ref":
            return {"holders": sorted(self.refs.get(payload["object_id"], set()))}
        raise LookupError(f"unknown dolr message kind {message.kind!r}")


class DolrNetwork(abc.ABC):
    """The generalized DHT contract the keyword layer is written against."""

    def __init__(self, space: IdSpace, network: Transport):
        self.space = space
        self.network = network
        # Every protocol RPC goes through this channel.  The default is
        # a pass-through (one attempt, no breaker), so a freshly built
        # network behaves — and accounts messages — exactly like calling
        # the network directly; configure_resilience() upgrades it.
        self.channel = ResilientChannel(network)
        self._nodes: dict[int, DolrNode] = {}
        # A read-only view: _set_node/_drop_node are the only writers, so
        # membership_version and the sorted address tuple cannot go stale.
        self.nodes: Mapping[int, DolrNode] = MappingProxyType(self._nodes)
        self.membership_version = 0
        # (membership version it was sorted at, ascending addresses)
        self._sorted: tuple[int, tuple[int, ...]] = (0, ())
        self._membership_lock = threading.Lock()
        self._application_factories: list[Any] = []

    def configure_resilience(
        self,
        policy: RetryPolicy | None,
        *,
        breaker: BreakerPolicy | None = None,
        rng: Any = 0,
    ) -> ResilientChannel:
        """Install a retry/deadline/breaker policy on all protocol RPCs
        (routing steps, object operations, index maintenance).  Returns
        the new channel so callers can share it with search layers."""
        self.channel = ResilientChannel(self.network, policy, breaker=breaker, rng=rng)
        return self.channel

    # -- abstract routing -------------------------------------------------

    @abc.abstractmethod
    def lookup(self, key: int, origin: int | None = None) -> LookupResult:
        """Route ``key`` from ``origin`` to its owning node, paying one
        RPC per hop.  Surrogate routing is implied: every key has a live
        owner as long as any node is alive."""

    @abc.abstractmethod
    def local_owner(self, key: int, *, without: int | None = None) -> int:
        """The owner of ``key`` computed from global knowledge (no
        messages).  Used by experiments that only need placement, and by
        tests as the routing oracle.

        ``without=address`` answers as if that node had already left —
        where a graceful leaver must hand its data so that it lands
        exactly where post-departure lookups will go.  Membership itself
        is untouched.
        """

    # -- membership ---------------------------------------------------

    # Threads share one network, so order matters: writers change the dict
    # *then* bump the version (locked, so no bump is lost); readers read the
    # version *then* the dict.  What a reader tags with the version it read
    # is never older than that version.

    def _set_node(self, address: int, node: DolrNode) -> None:
        """Add (or replace) a node: one of the two writers of ``nodes``."""
        with self._membership_lock:
            self._nodes[address] = node
            self.membership_version += 1

    def _drop_node(self, address: int) -> None:
        """Remove a node: the other writer of ``nodes``."""
        with self._membership_lock:
            del self._nodes[address]
            self.membership_version += 1

    def _sorted_addresses(self, without: int | None = None) -> tuple[int, ...]:
        """All node addresses ascending (minus ``without``), sorted once
        per membership version rather than on every call."""
        version = self.membership_version
        built, ordered = self._sorted
        if built != version:
            ordered = tuple(sorted(self._nodes))
            self._sorted = (version, ordered)
        if without is None:
            return ordered
        return tuple(address for address in ordered if address != without)

    def addresses(self) -> list[int]:
        """All node addresses, ascending."""
        return list(self._sorted_addresses())

    def live_addresses(self) -> list[int]:
        return [a for a in self._sorted_addresses() if self.network.is_alive(a)]

    def node(self, address: int) -> DolrNode:
        return self.nodes[address]

    def any_address(self) -> int:
        if not self.nodes:
            raise RuntimeError("network has no nodes")
        return self._sorted_addresses()[0]

    # -- the mapping L and the three object operations ----------------

    def object_key(self, object_id: str) -> int:
        """The paper's mapping L: object ID -> identifier space."""
        return self.space.hash_name(object_id, salt="dolr.L")

    def insert(self, object_id: str, holder: int, origin: int | None = None) -> bool:
        """Publish a replica: place the reference (σ, holder) at L(σ).

        Returns True if this was the *first* copy of the object — the
        signal the keyword layer uses to decide whether to index it.
        """
        origin = holder if origin is None else origin
        result, _ = self.route_rpc(
            self.object_key(object_id),
            "dolr.insert_ref",
            {"object_id": object_id, "holder": holder},
            origin=origin,
        )
        return not result["already_present"]

    def delete(self, object_id: str, holder: int, origin: int | None = None) -> bool:
        """Remove a replica's reference.  Returns True if it was the last
        copy (so the keyword index entry should be removed too)."""
        origin = holder if origin is None else origin
        result, _ = self.route_rpc(
            self.object_key(object_id),
            "dolr.delete_ref",
            {"object_id": object_id, "holder": holder},
            origin=origin,
        )
        return not result["copies_remain"]

    def read(self, object_id: str, origin: int | None = None) -> list[int]:
        """Return the replica holders of an object (possibly empty)."""
        origin = self.any_address() if origin is None else origin
        result, _ = self.route_rpc(
            self.object_key(object_id),
            "dolr.read_ref",
            {"object_id": object_id},
            origin=origin,
        )
        return result["holders"]

    # -- generic routed / direct RPC for upper layers ------------------

    def route_rpc(
        self,
        key: int,
        kind: str,
        payload: dict[str, Any],
        origin: int | None = None,
    ) -> tuple[Any, LookupResult]:
        """Route ``key`` to its owner, then deliver one RPC there."""
        origin = self.any_address() if origin is None else origin
        route = self.lookup(key, origin=origin)
        result = self.channel.rpc(origin, route.owner, kind, payload)
        return result, route

    def rpc_at(self, src: int, dst: int, kind: str, payload: dict[str, Any]) -> Any:
        """Direct contact with a known node (a cached neighbour): one
        request/reply, no routing (retried per the channel's policy)."""
        return self.channel.rpc(src, dst, kind, payload)

    def install_everywhere(self, factory: Any) -> None:
        """Install ``factory(node)`` as an application on every node,
        and remember the factory so nodes joining later are provisioned
        the same way."""
        self._application_factories.append(factory)
        for node in self.nodes.values():
            node.install(factory(node))

    def ensure_application(self, factory: Any, prefix: str) -> None:
        """Like :meth:`install_everywhere`, but keeps an existing
        application with the same prefix (so coexisting indexes share
        one shard instead of clobbering each other)."""
        self._application_factories.append(
            lambda node: node.application(prefix)
            if node.has_application(prefix)
            else factory(node)
        )
        for node in self.nodes.values():
            if not node.has_application(prefix):
                node.install(factory(node))

    def provision_node(self, node: DolrNode) -> None:
        """Install every registered application on a (new) node."""
        for factory in self._application_factories:
            application = factory(node)
            if not node.has_application(application.prefix):
                node.install(application)

    # -- convenience for experiments -----------------------------------

    def owners_of(self, keys: Iterable[int]) -> dict[int, int]:
        """Placement map key -> owner using global knowledge."""
        return {key: self.local_owner(key) for key in keys}
