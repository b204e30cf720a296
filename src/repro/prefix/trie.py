"""Record encoding and pure math for the directory trie.

A trie node for prefix ``p`` is one inner row of an
:class:`~repro.core.index.IndexShard` table: the row key is
``frozenset({"p:<p>"})`` (disambiguating hash collisions on the table
key) and the row's record set holds two kinds of strings:

- ``"e:<run>"`` — a child edge: a node for ``p + run`` exists.  Runs
  are Patricia-compressed: a node splits only where keywords diverge,
  so the trie has fewer internal nodes than leaves and enumeration
  costs O(matches) fetches, not O(|prefix tree|).
- ``"w:<k1>SEP<k2>…MARK<object_id>"`` — keyword ``p`` is carried by
  ``object_id``, whose whole normalized keyword set is ``{k1, k2, …}``
  (sorted; SEP is U+2063 INVISIBLE SEPARATOR, MARK U+2064 INVISIBLE
  PLUS).  Both are format characters (category Cf), which keyword
  normalization always strips, so no keyword holds one and the first
  MARK ends the keyword set: the id after it may hold anything.  The
  keyword set lets a prefix query answer, and rank, from the rows it
  resolves.  A node is *terminal* (a full keyword) while it has at
  least one word record; per-object records make re-pushes during
  repair idempotent.

Everything here is pure string/set math — no I/O — so the write and
read paths in :mod:`repro.prefix.directory` stay small.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

from repro.core.search import FoundObject

__all__ = [
    "common_prefix_len",
    "decode_edges",
    "decode_records",
    "edge_record",
    "prefix_of",
    "record_key",
    "word_record",
]

_PREFIX_TAG = "p:"
_EDGE_TAG = "e:"
_WORD_TAG = "w:"
_KEYWORD_SEP = "\u2063"
_ID_MARK = "\u2064"


def record_key(prefix: str) -> frozenset[str]:
    """The inner table key of the trie node for ``prefix``."""
    return frozenset({_PREFIX_TAG + prefix})


def prefix_of(key: frozenset[str]) -> str:
    """Invert :func:`record_key` (used by repair scans)."""
    (tagged,) = key
    if not tagged.startswith(_PREFIX_TAG):
        raise ValueError(f"not a trie row key: {tagged!r}")
    return tagged[len(_PREFIX_TAG) :]


def edge_record(run: str) -> str:
    return _EDGE_TAG + run


def word_record(object_id: str, keywords: Iterable[str]) -> str:
    """The posting of ``object_id``, which carries the normalized
    ``keywords``."""
    words = sorted(keywords)
    if not words or any(not w or _KEYWORD_SEP in w or _ID_MARK in w for w in words):
        raise ValueError(f"not a normalized keyword set: {words!r}")
    # Interned: the rows of all of an object's keywords share one copy.
    return sys.intern(_WORD_TAG + _KEYWORD_SEP.join(words) + _ID_MARK + object_id)


def decode_edges(records: Iterable[str]) -> dict[str, tuple[str, ...]]:
    """A node's child runs, grouped by first character.

    A well-formed node has at most one run per first character, but a
    write that splits an edge is two messages (add the shortened run,
    retire the old one) — readers may observe both, so every run is
    kept and the reader follows all of them, deduplicating keywords at
    the end.
    """
    edges: dict[str, list[str]] = {}
    for record in records:
        if record.startswith(_EDGE_TAG) and len(record) > len(_EDGE_TAG):
            edges.setdefault(record[len(_EDGE_TAG)], []).append(record[len(_EDGE_TAG) :])
    return {first: tuple(sorted(runs)) for first, runs in sorted(edges.items())}


def decode_records(
    records: Iterable[str],
) -> tuple[dict[str, tuple[str, ...]], tuple[FoundObject, ...], tuple[str, ...]]:
    """Split a node's record set into ``(edges, objects, bare_ids)``:
    :func:`decode_edges`, the postings in record order, and the ids of
    word records without a keyword set (an older format), whose objects
    cannot be answered from the row."""
    records = tuple(records)
    objects: list[FoundObject] = []
    bare: list[str] = []
    for record in records:
        if record.startswith(_WORD_TAG):
            mark = record.find(_ID_MARK)
            if mark < 0:
                bare.append(record[len(_WORD_TAG) :])
            else:
                keywords = frozenset(record[len(_WORD_TAG) : mark].split(_KEYWORD_SEP))
                objects.append(FoundObject(record[mark + 1 :], keywords))
    return decode_edges(records), tuple(objects), tuple(bare)


def common_prefix_len(a: str, b: str) -> int:
    """Length of the longest common prefix of ``a`` and ``b``."""
    bound = min(len(a), len(b))
    i = 0
    while i < bound and a[i] == b[i]:
        i += 1
    return i
