"""Mapping the logical hypercube onto the physical DHT (Section 3.2).

``g : V → V'`` hashes each logical hypercube node to a key of the DHT
identifier space; the physical node responsible for that key (by the
DHT's surrogate routing) plays the logical node.  The hypercube
dimension ``r`` is free to differ from the DHT identifier size ``a``:
with ``r`` large, many logical nodes share a physical node; with ``r``
small, only some physical nodes carry index shards.
"""

from __future__ import annotations

from repro.dht.dolr import DolrNetwork, LookupResult
from repro.hypercube.hypercube import Hypercube
from repro.obs.trace import active_recorder

__all__ = ["HypercubeMapping"]


class _Memo:
    """Everything memoized against one DHT membership version."""

    __slots__ = ("version", "owners", "inverse", "routes")

    def __init__(self, version: int, routes: bool):
        self.version = version
        self.owners: dict[int, int] = {}
        self.inverse: dict[int, tuple[int, ...]] | None = None
        # The opt-in route memo (memoize_routes): None while off.
        self.routes: dict[int, int] | None = {} if routes else None


class HypercubeMapping:
    """Binds a hypercube to a DOLR network through the hash ``g``."""

    def __init__(
        self,
        cube: Hypercube,
        dolr: DolrNetwork,
        *,
        salt: str = "g",
        identity: bool = False,
    ):
        """``identity=True`` makes ``g`` the identity map — for native
        hypercube overlays (Section 3.2's "physical hypercube" option,
        :class:`repro.dht.hypercup.HypercubeOverlay`), where logical
        hypercube nodes *are* the physical vertices.  Requires the cube
        dimension to equal the overlay's identifier width."""
        if identity and cube.dimension != dolr.space.bits:
            raise ValueError(
                f"identity mapping needs cube dimension ({cube.dimension}) == "
                f"DHT bits ({dolr.space.bits})"
            )
        self.cube = cube
        self.dolr = dolr
        self.salt = salt
        self.identity = identity
        self._key_cache: dict[int, int] = {}
        # Ownership is a pure function of the key and the address set, so
        # the memo is exact for one membership version and is replaced the
        # moment the version moves (see _memo_now).
        self._memoize_routes = False
        self._memo = _Memo(dolr.membership_version, routes=False)

    def dht_key(self, logical: int) -> int:
        """``g(u)``: the DHT key standing for logical node ``u``."""
        if self.identity:
            return self.cube.check_node(logical)
        cached = self._key_cache.get(logical)
        if cached is not None:
            return cached
        self.cube.check_node(logical)
        key = self.dolr.space.hash_name(
            f"hypercube/{self.cube.dimension}/{logical}", salt=f"mapping.g/{self.salt}"
        )
        self._key_cache[logical] = key
        return key

    def _memo_now(self) -> _Memo:
        """The memo for the current membership version.  Callers fetch it
        once and store into it only, so an owner computed while another
        thread changes membership never reaches a newer memo."""
        version = self.dolr.membership_version
        memo = self._memo
        if memo.version != version:
            memo = self._memo = _Memo(version, routes=self._memoize_routes)
        return memo

    def _resolve(self, memo: _Memo, logical: int) -> int:
        """Compute and memoize an owner ``memo`` does not hold yet."""
        owner = memo.owners[logical] = self.dolr.local_owner(self.dht_key(logical))
        if memo.routes is not None:
            memo.routes.setdefault(logical, owner)
        return owner

    def physical_owner(self, logical: int, *, without: int | None = None) -> int:
        """The physical node playing ``u``, from global knowledge.

        Memoized per DHT membership version, so it is always on and
        never stale.  While :meth:`memoize_routes` is on, the owner also
        becomes known to :meth:`route_to`.  ``without`` answers, without
        memoizing, as if that node had left (see
        :meth:`~repro.dht.dolr.DolrNetwork.local_owner`).
        """
        if without is not None:
            return self.dolr.local_owner(self.dht_key(logical), without=without)
        memo = self._memo_now()
        owner = memo.owners.get(logical)
        if owner is None:
            owner = self._resolve(memo, logical)
        return owner

    def memoize_routes(self, enabled: bool = True) -> None:
        """Let :meth:`route_to` answer a known owner with zero hops
        (``enabled=False`` turns that off again).

        This changes message counts, so it is opt-in: the query figures
        turn it on; experiments that fail nodes keep it off so that every
        route pays, and risks, a real lookup.  The memo is dropped on
        every membership change.
        """
        if enabled != self._memoize_routes:
            self._memoize_routes = enabled
            # physical_owner feeds the route memo on a miss only, so the
            # ownership memo starts afresh too: every owner resolved from
            # now on reaches route_to.
            self._memo = _Memo(self.dolr.membership_version, routes=enabled)

    def route_to(
        self, logical: int, origin: int | None = None, *, refresh: bool = False
    ) -> LookupResult:
        """Route to the physical node playing ``u``, paying DHT hops.

        While :meth:`memoize_routes` is on, an owner already resolved
        (by a paid lookup or by :meth:`physical_owner`) answers with
        zero hops.  ``refresh=True`` skips the consult and re-resolves —
        the degraded-search paths use it after a contact failed, when
        the remembered owner is exactly what can no longer be trusted.
        """
        cache = self._memo_now().routes
        if cache is not None and not refresh:
            owner = cache.get(logical)
            if owner is not None:
                result = LookupResult(
                    key=self.dht_key(logical), owner=owner, hops=0, path=(owner,)
                )
                recorder = active_recorder()
                if recorder is not None:
                    recorder.emit(
                        "route",
                        target=logical,
                        owner=owner,
                        hops=0,
                        origin=origin,
                        cached=True,
                    )
                return result
        result = self.dolr.lookup(self.dht_key(logical), origin=origin)
        if cache is not None:
            cache[logical] = result.owner
        recorder = active_recorder()
        if recorder is not None:
            recorder.emit(
                "route",
                target=logical,
                owner=result.owner,
                hops=result.hops,
                origin=origin,
            )
        return result

    def placement(self) -> dict[int, int]:
        """logical node -> physical owner for the whole cube.

        Materializes 2**r entries; fine for the experiment range
        (r ≤ 16) but avoid for very large cubes.
        """
        return {
            logical: self.physical_owner(logical) for logical in self.cube.nodes()
        }

    def logical_nodes_of(self, physical: int) -> list[int]:
        """All logical nodes a physical node plays (inverse of ``g``
        composed with ownership).

        O(2**r) on the first call per membership version, which memoizes
        the full inverse map (recovery and churn handoff ask per node);
        repeat calls are O(result).
        """
        memo = self._memo_now()
        if memo.inverse is None:
            inverse: dict[int, list[int]] = {}
            for logical in self.cube.nodes():
                owner = memo.owners.get(logical)
                if owner is None:
                    owner = self._resolve(memo, logical)
                inverse.setdefault(owner, []).append(logical)
            memo.inverse = {owner: tuple(nodes) for owner, nodes in inverse.items()}
        return list(memo.inverse.get(physical, ()))
