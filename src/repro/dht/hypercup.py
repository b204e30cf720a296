"""A native hypercube overlay (HyperCuP-style, the paper's §3.2 option).

Section 3.2: "The hypercube can be constructed directly from a physical
hypercube (e.g. HyperCuP), or conceptually built on an underlying DHT."
This module provides the first option: peers *are* the vertices of an
r-dimensional hypercube, each linked to its r bit-flip neighbours, and
the logical-to-physical mapping ``g`` becomes the identity.

Routing is classic bit-fixing: at each hop, flip the lowest dimension
at which the current node differs from the key, giving paths of length
``Hamming(src, key) <= r``.  When a hop is dead, the router flips a
different differing dimension instead (dimension-order rerouting) —
hypercubes have ``Hamming`` disjoint shortest paths, so routing
tolerates failures without any successor-list machinery.

The overlay requires the full 2**r population (HyperCuP's assumption);
``local_owner`` is the key itself, so index placement needs no hashing
at all and every hypercube-layer message is exactly one physical hop.
"""

from __future__ import annotations

from repro.dht.dolr import DolrNetwork, DolrNode, LookupResult
from repro.dht.ids import IdSpace
from repro.net.transport import Transport
from repro.sim.network import Message, SimulatedNetwork

__all__ = ["HypercubeOverlay", "HypercubeOverlayNode", "HypercubeRoutingError"]


class HypercubeRoutingError(RuntimeError):
    """Raised when every remaining path toward a key is dead."""


class HypercubeOverlayNode(DolrNode):
    """One vertex of the physical hypercube."""

    def __init__(self, address: int, space: IdSpace, network: Transport):
        super().__init__(address, space, network)

    def neighbors(self) -> tuple[int, ...]:
        """Bit-flip neighbours, ascending dimension."""
        return tuple(self.address ^ (1 << d) for d in range(self.space.bits))

    def next_hops(self, key: int) -> list[int]:
        """Neighbours strictly closer to ``key`` (one per differing
        dimension), lowest dimension first — the bit-fixing order, with
        the rest as rerouting alternatives."""
        difference = self.address ^ key
        hops = []
        dimension = 0
        while difference:
            if difference & 1:
                hops.append(self.address ^ (1 << dimension))
            difference >>= 1
            dimension += 1
        return hops

    def _on_message(self, message: Message):
        if message.kind == "cube.next_hops":
            return {"hops": self.next_hops(message.payload["key"])}
        return super()._on_message(message)


class HypercubeOverlay(DolrNetwork):
    """A complete r-dimensional physical hypercube as a DOLR network."""

    def __init__(self, space: IdSpace, network: Transport | None = None):
        super().__init__(space, network if network is not None else SimulatedNetwork())

    @classmethod
    def build(
        cls, *, bits: int, network: Transport | None = None, **_ignored
    ) -> "HypercubeOverlay":
        """Construct the complete 2**bits-vertex overlay.

        ``bits`` doubles as the hypercube dimension; keep it modest
        (the full population is materialized).
        """
        if bits > 16:
            raise ValueError(f"bits={bits} would materialize {1 << bits} nodes")
        space = IdSpace(bits)
        overlay = cls(space, network)
        for address in range(space.size):
            overlay._set_node(address, HypercubeOverlayNode(address, space, overlay.network))
        return overlay

    # -- DolrNetwork contract ---------------------------------------------

    def local_owner(self, key: int, *, without: int | None = None) -> int:
        """Identity: every key is its own vertex.  The overlay has no
        departures, so ``without`` changes nothing."""
        return self.space.check(key)

    def lookup(self, key: int, origin: int | None = None) -> LookupResult:
        """Bit-fixing routing with dimension-order rerouting around dead
        vertices.  Hop count is Hamming(origin, key) on a healthy cube.
        """
        self.space.check(key)
        origin = self.any_address() if origin is None else origin
        current = origin
        path = [origin]
        hops = 0
        visited = {origin}
        budget = self.space.bits * self.space.bits + 2
        while current != key:
            if hops > budget:
                raise HypercubeRoutingError(f"routing to {key} exceeded hop budget")
            if current == origin:
                candidates = self.nodes[origin].next_hops(key)
            else:
                reply = self.channel.rpc(origin, current, "cube.next_hops", {"key": key})
                candidates = reply["hops"]
                hops += 1
            advanced = False
            for candidate in candidates:
                if candidate in visited:
                    continue
                if candidate == key or self.network.is_alive(candidate):
                    current = candidate
                    visited.add(candidate)
                    path.append(candidate)
                    advanced = True
                    break
            if not advanced:
                raise HypercubeRoutingError(
                    f"no live path toward {key} from {path[-1]}"
                )
        if not self.network.is_alive(key):
            # The destination vertex itself is dead: surrogate to its
            # lowest live neighbour (deterministic, agreed by all peers).
            for dimension in range(self.space.bits):
                surrogate = key ^ (1 << dimension)
                if self.network.is_alive(surrogate):
                    path.append(surrogate)
                    return LookupResult(key=key, owner=surrogate, hops=hops, path=tuple(path))
            raise HypercubeRoutingError(f"vertex {key} and all its neighbours are dead")
        return LookupResult(key=key, owner=key, hops=hops, path=tuple(path))
