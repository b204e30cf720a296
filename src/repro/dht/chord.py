"""Chord: ring-based DHT with finger-table routing.

A from-scratch implementation of Chord (Stoica et al., SIGCOMM 2001)
over the simulated network, providing the paper's generalized DOLR:

* each node owns the keys in ``(predecessor, self]`` — the *successor*
  of a key is its owner, which is exactly the surrogate-routing rule the
  paper requires (an absent identifier is served by the next live node
  clockwise);
* lookups route iteratively: the origin repeatedly asks the current hop
  for the closest preceding finger, paying one RPC per hop, giving the
  familiar O(log N) hop count;
* nodes keep successor lists so routing survives failures, and the
  classic ``join`` / ``stabilize`` / ``fix_fingers`` maintenance round
  is implemented for dynamic membership.

Networks can be constructed two ways: :meth:`ChordNetwork.build` wires
fingers from global knowledge (the steady state reached after enough
stabilization), and :meth:`ChordNetwork.join` grows a ring incrementally
through the actual protocol.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from repro.dht.dolr import DolrNetwork, DolrNode, LookupResult
from repro.dht.ids import IdSpace
from repro.net.transport import Transport
from repro.sim.network import Message, SimulatedNetwork
from repro.util.rng import make_rng

__all__ = ["ChordNetwork", "ChordNode", "RoutingError"]

DEFAULT_SUCCESSOR_LIST_LENGTH = 8


class RoutingError(RuntimeError):
    """Raised when a lookup cannot make progress (e.g. all candidate
    next hops are dead)."""


class ChordNode(DolrNode):
    """One Chord peer: fingers, successor list, predecessor."""

    def __init__(
        self,
        address: int,
        space: IdSpace,
        network: Transport,
        *,
        successor_list_length: int = DEFAULT_SUCCESSOR_LIST_LENGTH,
    ):
        super().__init__(address, space, network)
        self.fingers: list[int] = [address] * space.bits
        self.successor_list: list[int] = [address]
        self.predecessor: int | None = None
        self.successor_list_length = successor_list_length

    # -- views ----------------------------------------------------------

    @property
    def successor(self) -> int:
        return self.successor_list[0]

    def finger_start(self, index: int) -> int:
        """The start of finger interval ``index``: (n + 2**index) mod 2**m."""
        return (self.address + (1 << index)) % self.space.size

    # -- local routing decisions -----------------------------------------

    def owns(self, key: int) -> bool:
        """True iff ``key`` is in (predecessor, self]."""
        if self.predecessor is None:
            return True
        return self.space.in_half_open_interval(key, self.predecessor, self.address)

    def closest_preceding_candidates(self, key: int, limit: int = 8) -> list[int]:
        """Fingers strictly inside (self, key), furthest first, then the
        successor list as a last resort — the fallback order an iterative
        lookup tries when hops are dead."""
        seen: set[int] = set()
        candidates: list[int] = []
        for finger in reversed(self.fingers):
            if finger in seen or finger == self.address:
                continue
            if self.space.in_open_interval(finger, self.address, key):
                seen.add(finger)
                candidates.append(finger)
                if len(candidates) >= limit:
                    break
        for successor in self.successor_list:
            if successor not in seen and successor != self.address:
                seen.add(successor)
                candidates.append(successor)
        return candidates

    def route_step(self, key: int) -> dict:
        """One iterative-routing step, executed at this node.

        If the key falls within this node's successor list, the step is
        done: ``owners`` lists the true owner first, then its clockwise
        surrogates (the lookup takes the first *live* one).  Otherwise
        ``candidates`` are next hops to try, in fallback order.
        """
        if self.space.in_half_open_interval(key, self.address, self.successor_list[-1]):
            owners = [
                successor
                for successor in self.successor_list
                if self.space.in_half_open_interval(key, self.address, successor)
            ]
            # Successors still *before* the key: if every known owner is
            # dead, the lookup advances to the closest live one of these
            # and re-asks — its successor list extends further clockwise.
            fallbacks = [s for s in reversed(self.successor_list) if s not in owners]
            return {"done": True, "owners": owners, "fallbacks": fallbacks}
        return {"done": False, "candidates": self.closest_preceding_candidates(key)}

    # -- message handling -------------------------------------------------

    def _on_message(self, message: Message):
        if message.kind.startswith("chord."):
            return self._handle_chord(message)
        return super()._on_message(message)

    def _handle_chord(self, message: Message):
        payload = message.payload
        if message.kind == "chord.route_step":
            return self.route_step(payload["key"])
        if message.kind == "chord.get_predecessor":
            return {"predecessor": self.predecessor}
        if message.kind == "chord.get_successor_list":
            return {"successor_list": list(self.successor_list)}
        if message.kind == "chord.notify":
            self._notify(payload["candidate"])
            return {}
        raise LookupError(f"unknown chord message kind {message.kind!r}")

    def _notify(self, candidate: int) -> None:
        """Chord's notify(): adopt ``candidate`` as predecessor if it lies
        in (predecessor, self)."""
        if candidate == self.address:
            return
        if self.predecessor is None or self.space.in_open_interval(
            candidate, self.predecessor, self.address
        ):
            self.predecessor = candidate


class ChordNetwork(DolrNetwork):
    """A Chord ring over the simulated network."""

    def __init__(
        self,
        space: IdSpace,
        network: Transport | None = None,
        *,
        successor_list_length: int = DEFAULT_SUCCESSOR_LIST_LENGTH,
    ):
        super().__init__(space, network if network is not None else SimulatedNetwork())
        self.successor_list_length = successor_list_length

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        *,
        bits: int,
        num_nodes: int,
        seed: int | random.Random | None = 0,
        network: Transport | None = None,
        successor_list_length: int = DEFAULT_SUCCESSOR_LIST_LENGTH,
    ) -> "ChordNetwork":
        """Construct a fully-stabilized ring of ``num_nodes`` peers at
        distinct random addresses."""
        space = IdSpace(bits)
        if not 1 <= num_nodes <= space.size:
            raise ValueError(f"num_nodes must be in [1, {space.size}], got {num_nodes}")
        rng = make_rng(seed)
        addresses = rng.sample(range(space.size), num_nodes)
        ring = cls(space, network, successor_list_length=successor_list_length)
        for address in addresses:
            node = ChordNode(
                address, space, ring.network, successor_list_length=successor_list_length
            )
            ring._set_node(address, node)
        ring.rewire_from_global_knowledge()
        return ring

    def rewire_from_global_knowledge(self) -> None:
        """Set every node's successors, predecessor and fingers to their
        converged values — the state repeated stabilization reaches."""
        ordered = self._sorted_addresses()
        count = len(ordered)
        for rank, address in enumerate(ordered):
            node = self.nodes[address]
            node.predecessor = ordered[(rank - 1) % count]
            depth = min(self.successor_list_length, count)
            node.successor_list = [ordered[(rank + 1 + i) % count] for i in range(depth)]
            if count == 1:
                node.successor_list = [address]
            node.fingers = [
                _successor_in(ordered, node.finger_start(i)) for i in range(self.space.bits)
            ]

    # -- DolrNetwork contract ---------------------------------------------

    def local_owner(self, key: int, *, without: int | None = None) -> int:
        self.space.check(key)
        ordered = self._sorted_addresses(without)
        if not ordered:
            raise RuntimeError("ring is empty")
        return _successor_in(ordered, key)

    def lookup(self, key: int, origin: int | None = None) -> LookupResult:
        """Iterative lookup with failure fallback.

        The origin performs the first routing step locally (free), then
        pays one RPC per hop.  Dead hops are skipped using the candidate
        lists each step returns; a dead owner is replaced by the next
        entry of its predecessor's successor list (surrogate routing).
        """
        self.space.check(key)
        origin = self.any_address() if origin is None else origin
        current = origin
        path = [origin]
        hops = 0
        visited = {origin}
        for _ in range(4 * self.space.bits + len(self.nodes) + 4):
            step = self._ask_route_step(origin, current, key)
            hops += 0 if current == origin else 1
            if step["done"]:
                owner = self._first_live(step["owners"])
                if owner is not None:
                    if owner != path[-1]:
                        path.append(owner)
                    return LookupResult(key=key, owner=owner, hops=hops, path=tuple(path))
                # Every known owner is dead: advance through the live
                # fallback closest to the key and ask again there.
                step = {"candidates": step.get("fallbacks", [])}
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
                raise RoutingError(f"lookup for key {key} stuck at node {current}")
        raise RoutingError(f"lookup for key {key} exceeded hop budget")

    # -- dynamic membership -------------------------------------------------

    def join(self, address: int, bootstrap: int | None = None) -> ChordNode:
        """Add a node through the Chord join protocol.

        The new node looks up its own successor via ``bootstrap``; rings
        converge fully only after :meth:`stabilize_all` rounds.
        """
        self.space.check(address)
        if address in self.nodes:
            raise ValueError(f"address {address} already joined")
        node = ChordNode(
            address, self.space, self.network, successor_list_length=self.successor_list_length
        )
        self._set_node(address, node)
        self.provision_node(node)
        if bootstrap is None:
            if len(self.nodes) > 1:
                raise ValueError("bootstrap required when the ring is non-empty")
            node.successor_list = [address]
            node.predecessor = None
            return node
        route = self.lookup(address, origin=bootstrap)
        node.successor_list = [route.owner]
        node.predecessor = None
        self.network.rpc(address, route.owner, "chord.notify", {"candidate": address})
        return node

    def leave(self, address: int) -> None:
        """Remove a node abruptly (crash); stabilization heals the ring."""
        if address not in self.nodes:
            raise ValueError(f"unknown address {address}")
        self.network.unregister(address)
        self._drop_node(address)

    def admit(self, address: int) -> ChordNode:
        """Apply a membership *fact*: ``address`` is now part of the
        ring.

        Unlike :meth:`join` (the protocol join a new node initiates for
        itself), ``admit`` is the structural form every participant
        applies when it *learns* of a join — create the node object,
        provision its applications, and rewire from global knowledge,
        without any RPCs.  Because placement is a pure function of the
        address set, all participants agree on ownership once their
        peer books agree.  Idempotent.
        """
        self.space.check(address)
        node = self.nodes.get(address)
        if node is not None:
            return node
        node = ChordNode(
            address, self.space, self.network, successor_list_length=self.successor_list_length
        )
        self._set_node(address, node)
        self.provision_node(node)
        self.rewire_from_global_knowledge()
        return node

    def expel(self, address: int) -> None:
        """Apply a membership fact: ``address`` has left or died.

        The structural counterpart of :meth:`admit` — drop the node and
        rewire the survivors' tables from global knowledge (the state
        enough stabilization rounds would reach).  Idempotent.
        """
        if address not in self.nodes:
            return
        self.network.unregister(address)
        self._drop_node(address)
        if self.nodes:
            self.rewire_from_global_knowledge()

    def stabilize_all(self, rounds: int = 1) -> None:
        """Run ``rounds`` of stabilize + successor-list refresh + finger
        repair at every node, in address order (deterministic)."""
        for _ in range(rounds):
            for address in self.addresses():
                self._stabilize_one(address)
            for address in self.addresses():
                self._refresh_successor_list(address)
            for address in self.addresses():
                self._fix_fingers(address)

    def _stabilize_one(self, address: int) -> None:
        node = self.nodes[address]
        successor = self._first_live(node.successor_list)
        if successor is None or successor not in self.nodes:
            successor = address
        node.successor_list[0:1] = [successor]
        if successor == address:
            if len(self.nodes) == 1:
                node.predecessor = None
                return
            # A node pointing at itself in a multi-node ring (the
            # original bootstrap node) escapes through its predecessor,
            # learned from joiners' notify() calls; stabilization then
            # walks it around to its true successor.
            candidate = node.predecessor
            if (
                candidate is None
                or candidate not in self.nodes
                or not self.network.is_alive(candidate)
            ):
                return
            node.successor_list.insert(0, candidate)
            successor = candidate
        reply = self.network.rpc(address, successor, "chord.get_predecessor", {})
        candidate = reply["predecessor"]
        if (
            candidate is not None
            and candidate in self.nodes
            and self.network.is_alive(candidate)
            and self.space.in_open_interval(candidate, address, successor)
        ):
            node.successor_list.insert(0, candidate)
            successor = candidate
        self.network.rpc(address, successor, "chord.notify", {"candidate": address})

    def _refresh_successor_list(self, address: int) -> None:
        node = self.nodes[address]
        successor = self._first_live(node.successor_list)
        if successor is None or successor == address:
            node.successor_list = [address]
            return
        reply = self.network.rpc(address, successor, "chord.get_successor_list", {})
        merged = [successor] + [s for s in reply["successor_list"] if s != address]
        deduped: list[int] = []
        for entry in merged:
            if entry not in deduped and entry in self.nodes:
                deduped.append(entry)
        node.successor_list = deduped[: node.successor_list_length] or [address]

    def _fix_fingers(self, address: int) -> None:
        node = self.nodes[address]
        for index in range(self.space.bits):
            try:
                route = self.lookup(node.finger_start(index), origin=address)
            except RoutingError:
                continue
            node.fingers[index] = route.owner

    # -- helpers -----------------------------------------------------------

    def _ask_route_step(self, origin: int, current: int, key: int) -> dict:
        if current == origin:
            return self.nodes[origin].route_step(key)
        return self.channel.rpc(origin, current, "chord.route_step", {"key": key})

    def _first_live(self, candidates: list[int]) -> int | None:
        for candidate in candidates:
            if candidate in self.nodes and self.network.is_alive(candidate):
                return candidate
        return None


def _successor_in(ordered: tuple[int, ...], key: int) -> int:
    """First address clockwise from ``key`` in a sorted address tuple."""
    return ordered[bisect_left(ordered, key) % len(ordered)]
