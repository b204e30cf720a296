"""Pastry: prefix-routing DHT with leaf sets (Rowstron & Druschel 2001).

A third realization of the paper's generalized DOLR (the paper lists
Pastry among the structured overlays its scheme can sit on).  Node
identifiers are strings of base-2**b digits; a key belongs to the node
*numerically closest* to it on the circular identifier space.  Routing:

1. If the key falls within the current node's leaf set span, deliver to
   the numerically closest leaf (or self) — one final hop.
2. Otherwise forward via the routing table entry that shares one more
   digit of prefix with the key.
3. If that entry is empty (or dead), fall back to any known node that
   is numerically closer to the key than the current node.

Lookups are iterative from the origin, one RPC per hop, matching the
Chord and Kademlia implementations; surrogate routing falls out of the
"numerically closest live node" delivery rule.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from repro.dht.dolr import DolrNetwork, DolrNode, LookupResult
from repro.dht.ids import IdSpace
from repro.net.transport import Transport
from repro.sim.network import Message, SimulatedNetwork
from repro.util.rng import make_rng

__all__ = ["PastryNetwork", "PastryNode", "PastryRoutingError"]

DEFAULT_DIGIT_BITS = 4
DEFAULT_LEAF_SET_SIZE = 8  # per side


class PastryRoutingError(RuntimeError):
    """Raised when no live route toward a key remains."""


def _circular_distance(a: int, b: int, size: int) -> int:
    direct = abs(a - b)
    return min(direct, size - direct)


class PastryNode(DolrNode):
    """One Pastry peer: routing table (rows × 2**b columns) + leaf set."""

    def __init__(
        self,
        address: int,
        space: IdSpace,
        network: Transport,
        *,
        digit_bits: int = DEFAULT_DIGIT_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
    ):
        super().__init__(address, space, network)
        if space.bits % digit_bits:
            raise ValueError(
                f"identifier width {space.bits} not divisible by digit width {digit_bits}"
            )
        self.digit_bits = digit_bits
        self.num_digits = space.bits // digit_bits
        self.leaf_set_size = leaf_set_size
        # routing_table[row][column]: node sharing `row` digits of prefix
        # with us whose digit `row` equals `column` (None when unknown).
        self.routing_table: list[list[int | None]] = [
            [None] * (1 << digit_bits) for _ in range(self.num_digits)
        ]
        self.smaller_leaves: list[int] = []  # ascending distance, counter-clockwise
        self.larger_leaves: list[int] = []  # ascending distance, clockwise

    # -- digit helpers ------------------------------------------------------

    def digit(self, value: int, position: int) -> int:
        """Digit ``position`` (0 = most significant) of ``value``."""
        shift = (self.num_digits - 1 - position) * self.digit_bits
        return (value >> shift) & ((1 << self.digit_bits) - 1)

    def shared_prefix_length(self, other: int) -> int:
        """Number of leading digits ``other`` shares with this node."""
        for position in range(self.num_digits):
            if self.digit(self.address, position) != self.digit(other, position):
                return position
        return self.num_digits

    # -- views ---------------------------------------------------------------

    def leaf_set(self) -> list[int]:
        return self.smaller_leaves + self.larger_leaves

    def known_nodes(self) -> set[int]:
        known = set(self.leaf_set())
        for row in self.routing_table:
            known.update(entry for entry in row if entry is not None)
        return known

    # -- routing decision ------------------------------------------------------

    def route_step(self, key: int) -> dict:
        """One Pastry routing step at this node."""
        size = self.space.size
        pool = self.leaf_set() + [self.address]
        if self._within_leaf_span(key):
            owners = sorted(
                pool, key=lambda n: (_circular_distance(n, key, size), n)
            )[: self.leaf_set_size]
            return {"done": True, "owners": owners}
        row = self.shared_prefix_length(key)
        preferred = self.routing_table[row][self.digit(key, row)]
        candidates: list[int] = []
        if preferred is not None:
            candidates.append(preferred)
        # Rule 3 fallback: any known node strictly closer to the key.
        my_distance = _circular_distance(self.address, key, size)
        closer = sorted(
            (
                node
                for node in self.known_nodes()
                if _circular_distance(node, key, size) < my_distance
            ),
            key=lambda n: (_circular_distance(n, key, size), n),
        )
        candidates.extend(node for node in closer if node not in candidates)
        return {"done": False, "candidates": candidates}

    def _within_leaf_span(self, key: int) -> bool:
        """True iff the key lies in the circular arc covered by the leaf
        set (then the numerically closest leaf is the owner)."""
        if not self.smaller_leaves or not self.larger_leaves:
            return True  # tiny network: leaf set is everyone
        low = self.smaller_leaves[-1]
        high = self.larger_leaves[-1]
        size = self.space.size
        # The leaf set covers the clockwise arc low -> self -> high.
        # Measuring both halves through self handles the wrapped case
        # where the leaf set circles the entire ring (low == high).
        arc = (self.address - low) % size + (high - self.address) % size
        return (key - low) % size <= arc

    # -- message handling ---------------------------------------------------------

    def _on_message(self, message: Message):
        if message.kind == "pastry.route_step":
            return self.route_step(message.payload["key"])
        return super()._on_message(message)


class PastryNetwork(DolrNetwork):
    """A Pastry overlay over the simulated network."""

    def __init__(
        self,
        space: IdSpace,
        network: Transport | None = None,
        *,
        digit_bits: int = DEFAULT_DIGIT_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
    ):
        super().__init__(space, network if network is not None else SimulatedNetwork())
        self.digit_bits = digit_bits
        self.leaf_set_size = leaf_set_size

    @classmethod
    def build(
        cls,
        *,
        bits: int,
        num_nodes: int,
        seed: int | random.Random | None = 0,
        network: Transport | None = None,
        digit_bits: int = DEFAULT_DIGIT_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
    ) -> "PastryNetwork":
        """Construct a converged overlay of ``num_nodes`` peers."""
        space = IdSpace(bits)
        if bits % digit_bits:
            raise ValueError(f"bits={bits} not divisible by digit_bits={digit_bits}")
        if not 1 <= num_nodes <= space.size:
            raise ValueError(f"num_nodes must be in [1, {space.size}], got {num_nodes}")
        rng = make_rng(seed)
        addresses = rng.sample(range(space.size), num_nodes)
        overlay = cls(space, network, digit_bits=digit_bits, leaf_set_size=leaf_set_size)
        for address in addresses:
            node = PastryNode(
                address,
                space,
                overlay.network,
                digit_bits=digit_bits,
                leaf_set_size=leaf_set_size,
            )
            overlay._set_node(address, node)
        overlay.rewire_from_global_knowledge()
        return overlay

    def rewire_from_global_knowledge(self) -> None:
        """Fill every node's leaf set and routing table to convergence."""
        ordered = self._sorted_addresses()
        count = len(ordered)
        for rank, address in enumerate(ordered):
            node = self.nodes[address]
            per_side = min(self.leaf_set_size, max(0, count - 1) // 2 + 1)
            node.smaller_leaves = [
                ordered[(rank - offset) % count]
                for offset in range(1, per_side + 1)
                if ordered[(rank - offset) % count] != address
            ]
            node.larger_leaves = [
                ordered[(rank + offset) % count]
                for offset in range(1, per_side + 1)
                if ordered[(rank + offset) % count] != address
            ]
            self._fill_routing_table(node, ordered)

    def _fill_routing_table(self, node: PastryNode, ordered: tuple[int, ...]) -> None:
        for row in range(node.num_digits):
            for column in range(1 << node.digit_bits):
                if column == node.digit(node.address, row):
                    continue
                best: int | None = None
                for other in ordered:
                    if other == node.address:
                        continue
                    if node.shared_prefix_length(other) == row and node.digit(
                        other, row
                    ) == column:
                        if best is None or _circular_distance(
                            other, node.address, self.space.size
                        ) < _circular_distance(best, node.address, self.space.size):
                            best = other
                node.routing_table[row][column] = best

    # -- DolrNetwork contract ----------------------------------------------------

    def local_owner(self, key: int, *, without: int | None = None) -> int:
        self.space.check(key)
        ordered = self._sorted_addresses(without)
        if not ordered:
            raise RuntimeError("overlay is empty")
        # The numerically closest node is one of the key's two ring
        # neighbours: every other node is farther both ways round.
        index = bisect_left(ordered, key)
        size = self.space.size
        return min(
            (ordered[index % len(ordered)], ordered[index - 1]),
            key=lambda a: (_circular_distance(a, key, size), a),
        )

    def lookup(self, key: int, origin: int | None = None) -> LookupResult:
        """Iterative prefix routing.  Hops = route_step RPCs issued."""
        self.space.check(key)
        origin = self.any_address() if origin is None else origin
        current = origin
        path = [origin]
        hops = 0
        visited = {origin}
        budget = 4 * self.nodes[origin].num_digits + len(self.nodes) + 4
        for _ in range(budget):
            if current == origin:
                step = self.nodes[origin].route_step(key)
            else:
                step = self.channel.rpc(origin, current, "pastry.route_step", {"key": key})
                hops += 1
            if step["done"]:
                owner = next(
                    (n for n in step["owners"] if self.network.is_alive(n)), None
                )
                if owner is None:
                    raise PastryRoutingError(f"no live owner for key {key}")
                if owner != path[-1]:
                    path.append(owner)
                return LookupResult(key=key, owner=owner, hops=hops, path=tuple(path))
            advanced = False
            for candidate in step["candidates"]:
                if candidate in visited:
                    continue
                if self.network.is_alive(candidate):
                    current = candidate
                    visited.add(candidate)
                    path.append(candidate)
                    advanced = True
                    break
            if not advanced:
                raise PastryRoutingError(f"lookup for key {key} stuck at {current}")
        raise PastryRoutingError(f"lookup for key {key} exceeded hop budget")

    # -- membership -----------------------------------------------------------

    def join(self, address: int, bootstrap: int | None = None) -> PastryNode:
        """Add a node and rewire state from global knowledge.

        Pastry's incremental join (routing-table copying along the
        bootstrap route) converges to exactly this state; the experiments
        only need the converged overlay, so the shortcut is explicit
        rather than protocol-simulated (unlike Chord, whose full
        join/stabilize protocol is implemented).
        """
        self.space.check(address)
        if address in self.nodes:
            raise ValueError(f"address {address} already joined")
        node = PastryNode(
            address,
            self.space,
            self.network,
            digit_bits=self.digit_bits,
            leaf_set_size=self.leaf_set_size,
        )
        self._set_node(address, node)
        self.provision_node(node)
        self.rewire_from_global_knowledge()
        return node

    def leave(self, address: int) -> None:
        if address not in self.nodes:
            raise ValueError(f"unknown address {address}")
        self.network.unregister(address)
        self._drop_node(address)
        self.rewire_from_global_knowledge()
