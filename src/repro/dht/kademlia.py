"""Kademlia: XOR-metric DHT with k-bucket routing tables.

A second realization of the paper's generalized DOLR, demonstrating
that the hypercube keyword layer is independent of the underlying DHT.
The owner of a key is the live node closest to it under the XOR metric
(Kademlia's natural surrogate-routing rule).  Lookups are iterative
``FIND_NODE`` rounds: the origin keeps a shortlist of the k closest
contacts seen so far and queries unvisited ones, closest first, until
the shortlist stops improving.
"""

from __future__ import annotations

import random

from repro.dht.dolr import DolrNetwork, DolrNode, LookupResult
from repro.dht.ids import IdSpace
from repro.net.errors import PeerUnreachableError
from repro.net.transport import Transport
from repro.sim.network import Message, SimulatedNetwork
from repro.util.rng import make_rng

__all__ = ["KademliaNetwork", "KademliaNode"]

DEFAULT_BUCKET_SIZE = 8


class KademliaNode(DolrNode):
    """One Kademlia peer: a routing table of per-prefix k-buckets."""

    def __init__(
        self,
        address: int,
        space: IdSpace,
        network: Transport,
        *,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
    ):
        super().__init__(address, space, network)
        self.bucket_size = bucket_size
        self.buckets: list[list[int]] = [[] for _ in range(space.bits)]

    # -- routing table ----------------------------------------------------

    def observe(self, contact: int) -> None:
        """Record a contact: move-to-front within its bucket, evicting the
        stalest entry when full (simplified least-recently-seen policy)."""
        if contact == self.address:
            return
        bucket = self.buckets[self.space.bucket_index(self.address, contact)]
        if contact in bucket:
            bucket.remove(contact)
        elif len(bucket) >= self.bucket_size:
            bucket.pop()
        bucket.insert(0, contact)

    def known_contacts(self) -> list[int]:
        return [contact for bucket in self.buckets for contact in bucket]

    def closest_contacts(self, key: int, count: int) -> list[int]:
        """Up to ``count`` known contacts (plus self) nearest ``key``."""
        pool = set(self.known_contacts())
        pool.add(self.address)
        return sorted(pool, key=lambda c: self.space.xor_distance(c, key))[:count]

    # -- message handling ---------------------------------------------------

    def _on_message(self, message: Message):
        if message.kind.startswith("kad."):
            return self._handle_kad(message)
        return super()._on_message(message)

    def _handle_kad(self, message: Message):
        if message.kind == "kad.find_node":
            self.observe(message.src)
            closest = self.closest_contacts(message.payload["key"], message.payload["count"])
            return {"contacts": closest}
        if message.kind == "kad.ping":
            self.observe(message.src)
            return {}
        raise LookupError(f"unknown kademlia message kind {message.kind!r}")


class KademliaNetwork(DolrNetwork):
    """A Kademlia overlay over the simulated network."""

    def __init__(
        self,
        space: IdSpace,
        network: Transport | None = None,
        *,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
    ):
        super().__init__(space, network if network is not None else SimulatedNetwork())
        self.bucket_size = bucket_size

    @classmethod
    def build(
        cls,
        *,
        bits: int,
        num_nodes: int,
        seed: int | random.Random | None = 0,
        network: Transport | None = None,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
    ) -> "KademliaNetwork":
        """Construct an overlay with converged routing tables: each bucket
        holds the (up to k) members of its prefix range nearest the owner."""
        space = IdSpace(bits)
        if not 1 <= num_nodes <= space.size:
            raise ValueError(f"num_nodes must be in [1, {space.size}], got {num_nodes}")
        rng = make_rng(seed)
        addresses = rng.sample(range(space.size), num_nodes)
        overlay = cls(space, network, bucket_size=bucket_size)
        for address in addresses:
            node = KademliaNode(address, space, overlay.network, bucket_size=bucket_size)
            overlay._set_node(address, node)
        overlay.rewire_from_global_knowledge()
        return overlay

    def rewire_from_global_knowledge(self) -> None:
        everyone = self._sorted_addresses()
        for address, node in self.nodes.items():
            node.buckets = [[] for _ in range(self.space.bits)]
            by_bucket: dict[int, list[int]] = {}
            for other in everyone:
                if other == address:
                    continue
                by_bucket.setdefault(self.space.bucket_index(address, other), []).append(other)
            for index, members in by_bucket.items():
                members.sort(key=lambda c: self.space.xor_distance(c, address))
                node.buckets[index] = members[: self.bucket_size]

    # -- DolrNetwork contract -----------------------------------------------

    def local_owner(self, key: int, *, without: int | None = None) -> int:
        self.space.check(key)
        candidates = self._sorted_addresses(without)
        if not candidates:
            raise RuntimeError("overlay is empty")
        return min(candidates, key=lambda a: (self.space.xor_distance(a, key), a))

    def lookup(self, key: int, origin: int | None = None) -> LookupResult:
        """Iterative node lookup.

        Returns the closest *live* node to ``key``.  Hops = number of
        ``FIND_NODE`` RPCs issued.
        """
        self.space.check(key)
        origin = self.any_address() if origin is None else origin
        origin_node = self.nodes[origin]
        shortlist = origin_node.closest_contacts(key, self.bucket_size)
        queried: set[int] = {origin}
        path = [origin]
        hops = 0

        def distance(address: int) -> int:
            return self.space.xor_distance(address, key)

        improved = True
        while improved:
            improved = False
            for contact in sorted(shortlist, key=distance):
                if contact in queried:
                    continue
                queried.add(contact)
                if not self.network.is_alive(contact):
                    continue
                hops += 1
                path.append(contact)
                try:
                    reply = self.channel.rpc(
                        origin, contact, "kad.find_node", {"key": key, "count": self.bucket_size}
                    )
                except PeerUnreachableError:
                    continue
                origin_node.observe(contact)
                before = min(map(distance, shortlist))
                merged = set(shortlist) | set(reply["contacts"])
                shortlist = sorted(merged, key=distance)[: self.bucket_size]
                if min(map(distance, shortlist)) < before:
                    improved = True
                break
            else:
                break

        live = [a for a in shortlist if self.network.is_alive(a)]
        if not live:
            live = self.live_addresses()
            if not live:
                raise RuntimeError("no live nodes in overlay")
        owner = min(live, key=lambda a: (distance(a), a))
        if owner != path[-1]:
            path.append(owner)
        return LookupResult(key=key, owner=owner, hops=hops, path=tuple(path))

    # -- dynamic membership ---------------------------------------------------

    def join(self, address: int, bootstrap: int | None = None) -> KademliaNode:
        """Add a node: seed its table with the bootstrap contact, then
        self-lookup to populate buckets along the path."""
        self.space.check(address)
        if address in self.nodes:
            raise ValueError(f"address {address} already joined")
        node = KademliaNode(address, self.space, self.network, bucket_size=self.bucket_size)
        self._set_node(address, node)
        self.provision_node(node)
        if bootstrap is None:
            return node
        node.observe(bootstrap)
        route = self.lookup(address, origin=address)
        for hop in route.path:
            node.observe(hop)
            if hop != address:
                self.nodes[hop].observe(address)
        return node

    def leave(self, address: int) -> None:
        """Remove a node abruptly."""
        if address not in self.nodes:
            raise ValueError(f"unknown address {address}")
        self.network.unregister(address)
        self._drop_node(address)
