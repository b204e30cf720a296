"""The distributed keyword directory (docs/protocol.md §17).

:class:`KeywordDirectory` shards a Patricia trie of every indexed
keyword onto the DHT: the trie node for prefix ``p`` lives at
``hash_name("<namespace>/<p>", salt="pfx.trie")`` on whichever physical
node owns that key, stored as ordinary rows of that node's
:class:`~repro.core.index.IndexShard` — which is what buys durability
(the shard's WAL), crash recovery, and churn handoff (``hindex.*``
bulk transfer) for free.

``pfx.*`` frames are served by the stateless
:class:`PrefixDirectoryShard`, which translates each request into
shard-row reads/writes.  With ``replicas > 1`` the directory keeps one
structurally identical trie per replica namespace (placement differs by
namespace salt), so reads fail over per trie node and a dead node's
rows can be re-pushed verbatim from any surviving replica.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.net.transport import Message, RpcCall
from repro.prefix.trie import (
    common_prefix_len,
    decode_edges,
    decode_records,
    edge_record,
    prefix_of,
    record_key,
    word_record,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import IndexShard
    from repro.core.search import FoundObject
    from repro.dht.dolr import DolrNetwork, DolrNode

__all__ = ["KeywordDirectory", "PrefixDirectoryShard", "PrefixResolution"]

#: Salt of the trie-node placement hash — one key per (namespace, prefix).
TRIE_SALT = "pfx.trie"


class PrefixDirectoryShard:
    """Per-node handler of the ``pfx.*`` frame kinds.

    Stateless by design: rows live in the node's ``hindex``
    :class:`~repro.core.index.IndexShard`, under the directory's
    reserved ``pfx/…`` namespaces, so the index shard's WAL recording,
    recovery boot, and ``hindex.transfer``/``hindex.snapshot`` handoff
    all apply to directory rows unchanged.
    """

    prefix = "pfx"

    def handle(self, node: DolrNode, message: Message) -> Any:
        shard: IndexShard = node.application("hindex")
        payload = message.payload
        key = (payload["namespace"], payload["logical"])
        row = record_key(payload["prefix"])
        if message.kind == "pfx.node":
            records = shard.tables.get(key, {}).get(row, set())
            return {"records": sorted(records)}
        if message.kind == "pfx.put":
            for record in payload["records"]:
                shard.put(key, row, record)
            return {"stored": len(payload["records"])}
        if message.kind == "pfx.remove":
            removed = sum(
                1 for record in payload["records"] if shard.remove(key, row, record)
            )
            return {"removed": removed}
        raise LookupError(f"unknown pfx message kind {message.kind!r}")


@dataclass(frozen=True)
class PrefixResolution:
    """Outcome of resolving one prefix against the directory.

    ``keywords`` are the matching full keywords in BFS order (shortest
    completions first); ``objects`` the postings read from their rows,
    one per distinct (object, keyword set), in read order.
    ``messages`` counts directory RPCs issued — the quantity the
    acceptance bench pins to grow with ``len(keywords)`` rather than
    vocabulary size — and ``rounds`` the ``rpc_many`` batches they
    went out in.  ``truncated`` means an expansion budget cut
    enumeration short; ``degraded`` that some subtree was unreachable
    on every replica (its keywords may be missing); ``bare_keywords``
    the matched keywords whose rows hold word records without a
    keyword set (an older format), whose objects are missing from
    ``objects``.
    """

    prefix: str
    keywords: tuple[str, ...]
    messages: int
    nodes_visited: int
    truncated: bool = False
    degraded: bool = False
    objects: tuple[FoundObject, ...] = ()
    rounds: int = 0
    bare_keywords: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return not (self.truncated or self.degraded or self.bare_keywords)


class KeywordDirectory:
    """Write/read façade of the trie, bound to one DOLR network."""

    def __init__(self, dolr: DolrNetwork, *, replicas: int = 1, salt: str = "pfx"):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.dolr = dolr
        self.replicas = replicas
        self.salt = salt
        self.namespaces = [f"{salt}/r{i}" for i in range(replicas)]
        # Placement hashes, memoized: every write and resolution
        # re-hashes the same on-path prefixes.
        self._hash = functools.lru_cache(maxsize=1 << 15)(
            functools.partial(dolr.space.hash_name, salt=TRIE_SALT)
        )
        dolr.ensure_application(lambda node: PrefixDirectoryShard(), "pfx")

    # -- placement ----------------------------------------------------

    def key_for(self, namespace: str, prefix: str) -> int:
        """The DHT key of the trie node for ``prefix`` in ``namespace``."""
        return self._hash(f"{namespace}/{prefix}")

    def owner_of(self, namespace: str, prefix: str) -> int:
        return self.dolr.local_owner(self.key_for(namespace, prefix))

    def _origin(self, origin: int | None) -> int:
        if origin is not None and origin in self.dolr.nodes:
            return origin
        return self.dolr.any_address()

    # -- low-level node I/O -------------------------------------------

    def _payload(self, namespace: str, prefix: str) -> dict[str, Any]:
        return {
            "namespace": namespace,
            "logical": self.key_for(namespace, prefix),
            "prefix": prefix,
        }

    def _fetch(self, namespace: str, prefix: str, origin: int) -> tuple[str, ...]:
        reply = self.dolr.channel.rpc(
            origin, self.owner_of(namespace, prefix), "pfx.node", self._payload(namespace, prefix)
        )
        return tuple(reply["records"])

    def _put(self, namespace: str, prefix: str, records: list[str], origin: int) -> None:
        payload = dict(self._payload(namespace, prefix), records=sorted(records))
        self.dolr.channel.rpc(origin, self.owner_of(namespace, prefix), "pfx.put", payload)

    def _remove(self, namespace: str, prefix: str, records: list[str], origin: int) -> None:
        payload = dict(self._payload(namespace, prefix), records=sorted(records))
        self.dolr.channel.rpc(origin, self.owner_of(namespace, prefix), "pfx.remove", payload)

    # -- writes (per replica namespace) -------------------------------

    def add_keyword(
        self,
        keyword: str,
        object_id: str,
        keywords: Iterable[str],
        *,
        origin: int | None = None,
    ) -> None:
        """Record that ``object_id``, whose normalized keyword set is
        ``keywords``, carries ``keyword`` (one of them)."""
        origin = self._origin(origin)
        record = word_record(object_id, keywords)
        for namespace in self.namespaces:
            self._insert(namespace, keyword, record, origin)

    def remove_keyword(
        self,
        keyword: str,
        object_id: str,
        keywords: Iterable[str],
        *,
        origin: int | None = None,
    ) -> None:
        """Forget the posting :meth:`add_keyword` wrote for the same
        arguments; prunes trie nodes that become empty (leaf chains,
        not pass-through merges)."""
        origin = self._origin(origin)
        record = word_record(object_id, keywords)
        for namespace in self.namespaces:
            self._delete(namespace, keyword, record, origin)

    def _insert(self, namespace: str, word: str, record: str, origin: int) -> None:
        # Patricia insert, ordered so that every intermediate state a
        # concurrent reader can observe is a consistent trie: children
        # are created before the parent edge that reaches them, and an
        # edge split adds the shortened run before retiring the old one
        # (readers follow every run, so the transient duplicate is
        # harmless).
        current = ""
        while True:
            if current == word:
                self._put(namespace, current, [record], origin)
                return
            edges = decode_edges(self._fetch(namespace, current, origin))
            rest = word[len(current) :]
            best, shared = None, 0
            for run in edges.get(rest[0], ()):
                matched = common_prefix_len(run, rest)
                if matched > shared:
                    best, shared = run, matched
            if best is None:
                # No edge in this direction: new leaf, then link it.
                self._put(namespace, word, [record], origin)
                self._put(namespace, current, [edge_record(rest)], origin)
                return
            if shared == len(best):
                current += best
                continue
            # The run diverges after `shared` characters: split it at a
            # new node `fork`, re-hanging the old subtree below it.
            fork = current + best[:shared]
            tail = best[shared:]
            if fork == word:
                self._put(namespace, fork, [edge_record(tail), record], origin)
            else:
                self._put(namespace, word, [record], origin)
                self._put(
                    namespace,
                    fork,
                    [edge_record(tail), edge_record(word[len(fork) :])],
                    origin,
                )
            self._put(namespace, current, [edge_record(best[:shared])], origin)
            self._remove(namespace, current, [edge_record(best)], origin)
            return

    def _delete(self, namespace: str, word: str, record: str, origin: int) -> None:
        path: list[tuple[str, str]] = []  # (parent prefix, run taken)
        current = ""
        while current != word:
            edges = decode_edges(self._fetch(namespace, current, origin))
            rest = word[len(current) :]
            taken = None
            for run in edges.get(rest[0], ()):
                matched = common_prefix_len(run, rest)
                if matched == len(run):
                    taken = run
                    break
            if taken is None:
                return  # keyword not in this trie
            path.append((current, taken))
            current += taken
        self._remove(namespace, word, [record], origin)
        # Prune leaf chains that the removal emptied.  A node with no
        # records disappears from its shard table entirely, so pruning
        # is: while the reached node is empty, unlink it from its
        # parent and consider the parent next.  (Single-child interior
        # nodes are left unmerged — a documented simplification that
        # costs at most one extra fetch per lookup through them.)
        while current:
            if self._fetch(namespace, current, origin):
                return
            if not path:
                return
            parent, run = path.pop()
            self._remove(namespace, parent, [edge_record(run)], origin)
            current = parent

    # -- resolution ---------------------------------------------------

    def resolve(
        self, prefix: str, *, origin: int | None = None, limit: int | None = None
    ) -> PrefixResolution:
        """Enumerate the indexed keywords extending ``prefix``.

        One breadth-first sweep from the trie root: the on-path segment
        costs at most ``len(prefix)`` fetches, then each level of the
        matching subtree is fetched as a single :meth:`rpc_many` batch.
        ``limit`` bounds the number of keywords enumerated (the
        planner's expansion budget); enumeration stops — and the result
        is flagged ``truncated`` — once it is reached.  The postings of
        every enumerated keyword come back too: they are the records of
        the terminal rows the sweep fetched anyway.
        """
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1 or None, got {limit}")
        origin = self._origin(origin)
        found: list[str] = []
        postings: list[FoundObject] = []
        bare_keywords: list[str] = []
        messages = 0
        rounds = 0
        visited = 0
        truncated = False
        degraded = False
        pending = [""]
        while pending:
            batch, pending = pending, []
            records_by_prefix, batch_messages, batch_rounds, failed = self._fetch_level(
                batch, origin
            )
            messages += batch_messages
            rounds += batch_rounds
            visited += len(records_by_prefix)
            if failed:
                degraded = True
            for node_prefix in batch:
                records = records_by_prefix.get(node_prefix)
                if records is None:
                    continue
                edges, objects, bare = decode_records(records)
                capped = limit is not None and len(found) >= limit
                if len(node_prefix) >= len(prefix):
                    # Inside the matching subtree: every reachable node
                    # extends the prefix, terminals are answers.
                    if (objects or bare) and node_prefix not in found:
                        if capped:
                            truncated = True
                            continue
                        found.append(node_prefix)
                        postings.extend(objects)
                        if bare:
                            bare_keywords.append(node_prefix)
                        capped = limit is not None and len(found) >= limit
                    children = [
                        node_prefix + run for runs in edges.values() for run in runs
                    ]
                else:
                    # Still walking toward the prefix: follow runs that
                    # stay consistent with it.
                    rest = prefix[len(node_prefix) :]
                    children = []
                    for run in edges.get(rest[0], ()):
                        matched = common_prefix_len(run, rest)
                        if matched == len(rest) or matched == len(run):
                            children.append(node_prefix + run)
                if children:
                    if capped:
                        truncated = True
                    else:
                        pending.extend(children)
        return PrefixResolution(
            prefix=prefix,
            keywords=tuple(dict.fromkeys(found)),
            messages=messages,
            nodes_visited=visited,
            truncated=truncated,
            degraded=degraded,
            objects=tuple(dict.fromkeys(postings)),
            rounds=rounds,
            bare_keywords=tuple(bare_keywords),
        )

    def _fetch_level(
        self, prefixes: list[str], origin: int
    ) -> tuple[dict[str, tuple[str, ...]], int, int, list[str]]:
        """Batch-fetch trie nodes, failing over across replica
        namespaces per prefix.  Returns (records by prefix, messages
        issued, ``rpc_many`` batches sent, prefixes unreachable on every
        replica)."""
        attempt = dict.fromkeys(prefixes, 0)
        results: dict[str, tuple[str, ...]] = {}
        failed: list[str] = []
        messages = 0
        rounds = 0
        pending = list(dict.fromkeys(prefixes))
        while pending:
            rounds += 1
            calls = []
            for node_prefix in pending:
                namespace = self.namespaces[attempt[node_prefix]]
                calls.append(
                    RpcCall(
                        origin,
                        self.owner_of(namespace, node_prefix),
                        "pfx.node",
                        self._payload(namespace, node_prefix),
                    )
                )
            outcomes = self.dolr.channel.rpc_many(calls)
            messages += len(calls)
            retry = []
            for node_prefix, outcome in zip(pending, outcomes):
                if outcome.ok:
                    results[node_prefix] = tuple(outcome.value["records"])
                    continue
                attempt[node_prefix] += 1
                if attempt[node_prefix] < len(self.namespaces):
                    retry.append(node_prefix)
                else:
                    failed.append(node_prefix)
            pending = retry
        return results, messages, rounds, failed

    # -- churn maintenance --------------------------------------------

    def _shard_at(self, address: int) -> IndexShard:
        return self.dolr.node(address).application("hindex")

    def _directory_tables(self, shard: IndexShard) -> list[tuple[str, int]]:
        return [key for key in shard.tables if key[0] in self.namespaces]

    def push_misplaced(self, address: int, *, without: int | None = None) -> int:
        """Move directory rows hosted at ``address`` but owned elsewhere
        — owned as if ``without`` had left, when given — to their owners
        (mirrors ``HypercubeIndex._push_misplaced_tables``).  Returns the
        number of records moved."""
        shard = self._shard_at(address)
        moved = 0
        for key in self._directory_tables(shard):
            namespace, logical = key
            owner = self.dolr.local_owner(logical, without=without)
            if owner == address:
                continue
            table = shard.snapshot_records(key)
            self.dolr.channel.rpc(
                address,
                owner,
                "hindex.transfer",
                {"namespace": namespace, "logical": logical, "table": table},
            )
            shard.drop_table(key)
            moved += sum(len(ids) for _, ids in table)
        return moved

    def rebalance(self) -> int:
        """Sweep every node for misplaced directory tables (after joins)."""
        return sum(self.push_misplaced(address) for address in list(self.dolr.addresses()))

    def evacuate(self, leaving: int) -> int:
        """Hand off a departing node's directory tables; owners are
        computed as if ``leaving`` were already gone."""
        if leaving not in self.dolr.nodes:
            raise ValueError(f"unknown node {leaving}")
        return self.push_misplaced(leaving, without=leaving)

    def plan_repair(
        self, dead: int, served: set[int]
    ) -> list[tuple[str, int, str, list[str], int]]:
        """Before ``dead`` is expelled: find trie nodes it owned that a
        locally served replica can re-seed.  The trie's *structure*
        depends only on the keyword set, so a row's record set is
        byte-identical across replica namespaces — a donor can push its
        own copy verbatim.  Returns (namespace, key, prefix, records,
        donor) plans to apply after expulsion."""
        if self.replicas < 2:
            return []
        plans: list[tuple[str, int, str, list[str], int]] = []
        planned: set[tuple[str, str]] = set()
        for donor in sorted(served):
            if donor not in self.dolr.nodes:
                continue
            shard = self._shard_at(donor)
            for key in self._directory_tables(shard):
                for row_key, records in shard.tables[key].items():
                    prefix = prefix_of(row_key)
                    for namespace in self.namespaces:
                        if namespace == key[0] or (namespace, prefix) in planned:
                            continue
                        lost_key = self.key_for(namespace, prefix)
                        if self.dolr.local_owner(lost_key) != dead:
                            continue
                        planned.add((namespace, prefix))
                        plans.append(
                            (namespace, lost_key, prefix, sorted(records), donor)
                        )
        return plans

    def apply_repair(self, plans: list[tuple[str, int, str, list[str], int]]) -> int:
        """After expulsion: push each planned row to the key's new owner.
        Returns the number of records restored."""
        restored = 0
        for namespace, logical, prefix, records, donor in plans:
            owner = self.dolr.local_owner(logical)
            row = sorted(record_key(prefix))
            self.dolr.channel.rpc(
                donor,
                owner,
                "hindex.transfer",
                {
                    "namespace": namespace,
                    "logical": logical,
                    "table": [(row, records)],
                },
            )
            restored += len(records)
        return restored
