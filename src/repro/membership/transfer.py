"""Appliers: turn a membership fact into local structural + data moves.

A :class:`~repro.membership.book.PeerRecord` says *what* changed; this
module says what a node that learns of it must *do*.  Every applier is
idempotent and purely local-plus-RPC — it mutates this process's view
(DHT ring wiring, transport peer table) and pushes or
pulls index tables over the existing ``hindex.transfer`` /
``hindex.snapshot`` streams.  Gossip delivers the same record to every
node eventually; because each node applies the same deterministic
procedure against the same converged address set, everyone agrees on
ownership without any coordination round.

Three situations, three appliers:

``apply_alive``
    A node joined (or we finally learned its endpoint).  Admit it into
    the ring structurally, then push every table *we* serve that now
    belongs to it (ownership is recomputed from the new address set, so
    only the genuinely misplaced tables move).

``apply_gone``
    A node left gracefully (status ``left``) or was declared dead.
    Expel it from the ring.  For a graceful leave the data already
    moved — the leaver ran :meth:`HypercubeIndex.evacuate` before
    announcing ``left``.  For a death, the primary copies on the dead
    node are gone; when the index is replicated (Section 3.4's
    secondary hypercubes), :func:`repair_lost` re-replicates them from
    the surviving replicas onto the new owners.

``apply_book``
    The batch form a client (or a freshly booted daemon) uses to fold a
    whole fetched book into its local view.  With an empty ``served``
    set this is pure bookkeeping — no data moves, which is exactly what
    a serve-nothing client transport wants.
"""

from __future__ import annotations

from repro.membership.book import PeerBook, PeerRecord

__all__ = ["apply_alive", "apply_book", "apply_gone", "repair_lost"]


def apply_alive(service, transport, record: PeerRecord, served: set[int]) -> int:
    """Admit ``record.address`` and hand over the tables it now owns.

    Returns the number of object references pushed from nodes in
    ``served`` (0 when the address was already in the ring, or when we
    serve nothing that moved).
    """
    address = record.address
    dolr = service.dolr
    if address not in served and record.endpoint is not None:
        transport.peers[address] = (record.endpoint[0], record.endpoint[1])
    already = address in dolr.nodes
    admit = getattr(dolr, "admit", None)
    if admit is None:
        raise NotImplementedError(
            f"{type(dolr).__name__} does not support dynamic admission; "
            "dynamic membership currently requires the chord DHT"
        )
    admit(address)
    if already:
        return 0
    moved = 0
    for index in service.indexes:
        for local in sorted(served):
            moved += index._push_misplaced_tables(local)
    directory = getattr(service, "directory", None)
    if directory is not None:
        # The keyword directory shards on the same ring: trie rows the
        # joiner now owns move over the same hindex.transfer stream.
        for local in sorted(served):
            moved += directory.push_misplaced(local)
    return moved


def apply_gone(
    service, transport, record: PeerRecord, served: set[int], *, repair: bool
) -> int:
    """Expel ``record.address``; re-replicate its tables when ``repair``.

    ``repair=False`` is the graceful-leave path (the leaver evacuated
    before announcing); ``repair=True`` is the death path.  Returns the
    number of object references restored by repair (0 otherwise, and
    always 0 without index replication — a dead node's primary tables
    have no surviving copy to restore from).
    """
    address = record.address
    dolr = service.dolr
    if address not in dolr.nodes:
        transport.peers.pop(address, None)
        return 0
    lost: dict = {}
    if repair and len(service.indexes) > 1:
        # Which logical nodes did the dead peer host, per replica?
        # Computed against the pre-expulsion ring: ownership *after*
        # expel can no longer tell us what lived there.
        lost = {index: index.mapping.logical_nodes_of(address) for index in service.indexes}
    directory = getattr(service, "directory", None)
    directory_plans: list = []
    if repair and directory is not None:
        # Same pre-expulsion constraint for the keyword directory: find
        # the trie rows the dead node owned that our served replicas can
        # re-seed (a trie row is byte-identical across replicas).
        directory_plans = directory.plan_repair(address, served)
    expel = getattr(dolr, "expel", None)
    if expel is None:
        raise NotImplementedError(
            f"{type(dolr).__name__} does not support dynamic expulsion; "
            "dynamic membership currently requires the chord DHT"
        )
    expel(address)
    transport.peers.pop(address, None)
    restored = 0
    if directory_plans:
        restored += directory.apply_repair(directory_plans)
    if lost:
        restored += repair_lost(service, lost, served)
    return restored


def repair_lost(service, lost: dict, served: set[int]) -> int:
    """Restore a dead node's tables from surviving replicas.

    ``lost`` maps each index replica to the logical nodes the dead peer
    hosted for it.  For every such logical node whose *new* owner is one
    of our ``served`` addresses, pull the table from another replica —
    locally when we also serve the donor's owner, else over a read-only
    ``hindex.snapshot`` RPC — and fold it durably into the new owner's
    shard.  Only the new owner repairs, so the cluster-wide work is
    partitioned without coordination.  Returns object references
    restored by this node.
    """
    restored = 0
    for index, logicals in lost.items():
        donors = [candidate for candidate in service.indexes if candidate is not index]
        for logical in logicals:
            owner = index.mapping.physical_owner(logical)
            if owner not in served:
                continue
            rows = None
            for donor in donors:
                donor_owner = donor.mapping.physical_owner(logical)
                key = (donor.namespace, logical)
                try:
                    if donor_owner in served:
                        rows = donor.shard_at(donor_owner).snapshot_records(key)
                    else:
                        reply = service.dolr.channel.rpc(
                            owner,
                            donor_owner,
                            "hindex.snapshot",
                            {"namespace": donor.namespace, "logical": logical},
                        )
                        rows = reply["table"]
                except Exception:  # noqa: BLE001 - donor down; try the next replica
                    continue
                break
            if not rows:
                continue
            shard = index.shard_at(owner)
            for keywords, object_ids in rows:
                for object_id in object_ids:
                    shard.put((index.namespace, logical), frozenset(keywords), object_id)
                    restored += 1
            # Re-publication is a write like any other: caches covering
            # this table (here and at superset roots) are now stale.
            index.invalidate_coverage(logical, origin=owner)
    return restored


def apply_book(service, transport, book: PeerBook, served: set[int] | None = None) -> int:
    """Fold a whole peer book into the local view (see module docstring).

    Records are applied in ``(epoch, address)`` order so later facts
    win.  Returns the number of object references moved or restored.
    """
    served = set() if served is None else served
    moved = 0
    ordered = sorted(book.records.values(), key=lambda record: (record.epoch, record.address))
    for record in ordered:
        if record.member:
            moved += apply_alive(service, transport, record, served)
        elif record.status == "dead":
            moved += apply_gone(service, transport, record, served, repair=True)
        else:
            apply_gone(service, transport, record, served, repair=False)
    return moved
