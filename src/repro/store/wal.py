"""WAL record format: CRC-framed, codec-encoded state mutations.

One record describes one mutation of a node's durable state — an index
table entry added or removed, a whole table dropped (churn handoff), a
replica reference registered or withdrawn, or a full entry emitted by a
snapshot.  On disk every record is one frame::

    +----------------+---------------+------------------------------+
    | length (4B BE) | crc32 (4B BE) | version byte + payload       |
    +----------------+---------------+------------------------------+

``length`` covers the body (version byte + payload); ``crc32`` is over
the same bytes, so a torn or bit-flipped tail is detected before any
payload parsing.  The version byte selects the payload codec — the
same codec core the wire format uses (:mod:`repro.net.codec`):

* ``1`` — the record's fields lowered through the tagged-JSON
  encoding, keys sorted (the original format; still written when the
  store is pinned to the JSON codec, always still readable).
* ``2`` — the same field dict in the binary value encoding, keys in
  sorted order (varint ints, length-prefixed raw-UTF-8 strings).

Identical state always produces identical bytes under either codec.
A store writes its own codec and reads both: recovery detects the
codec per record, so a WAL whose head was written under one codec and
whose tail under the other — a node restarted with a different codec —
replays seamlessly; there is no file-level codec marker to migrate.

Replay is pure: :func:`decode_records` walks a byte string and stops at
the first frame that is incomplete or fails its CRC (the torn tail a
crash mid-append leaves behind), reporting how many clean bytes it
consumed so the caller can truncate; :func:`replay` folds records into
the ``(tables, refs)`` state the index shard and DOLR node hold in
memory.  Any prefix of a valid WAL decodes to a prefix of its records —
the property the recovery tests drive with hypothesis.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any

from repro.net.codec import (
    CODEC_JSON,
    codec_by_name,
    decode_value_binary,
    decode_value_json,
    encode_value_binary,
    encode_value_json,
    new_buffer,
)
from repro.net.errors import ProtocolError

__all__ = [
    "WAL_VERSION",
    "WAL_VERSION_BINARY",
    "StoreRecord",
    "WalDecodeResult",
    "apply_record",
    "decode_records",
    "encode_record",
    "entry_records",
    "replay",
]

WAL_VERSION = 1  # JSON-payload records
WAL_VERSION_BINARY = 2  # binary-payload records
# A single record is one index entry or reference — far below this; the
# cap exists so a corrupted length field cannot demand an absurd read.
MAX_RECORD_BYTES = 16 * 1024 * 1024
_FRAME = struct.Struct("!II")  # (body length, crc32 of body)

# op -> payload fields (beyond "op"); also the legality check on decode.
_OPS = {
    "put": ("ns", "lg", "kw", "id"),
    "remove": ("ns", "lg", "kw", "id"),
    "drop": ("ns", "lg"),
    "entry": ("ns", "lg", "kw", "ids"),
    "ref_put": ("id", "h"),
    "ref_del": ("id", "h"),
}

Tables = dict[tuple[str, int], dict[frozenset[str], set[str]]]
Refs = dict[str, set[int]]


@dataclass(frozen=True)
class StoreRecord:
    """One durable mutation.

    ``op`` is one of ``put`` / ``remove`` (index entry maintenance),
    ``drop`` (a whole table handed off during churn), ``entry`` (one
    full table entry, as snapshots emit), ``ref_put`` / ``ref_del``
    (replica references).  Unused fields keep their defaults.
    """

    op: str
    namespace: str = ""
    logical: int = 0
    keywords: tuple[str, ...] = ()
    object_id: str = ""
    object_ids: tuple[str, ...] = ()
    holder: int = 0


_HEADER_HOLE = b"\x00" * _FRAME.size


def _seal(buffer: bytearray) -> bytes:
    """Patch the CRC frame header over a body built after the hole."""
    body = memoryview(buffer)[_FRAME.size :]
    length, crc = len(body), zlib.crc32(body)
    body.release()  # the buffer is reused; no exports may outlive this call
    _FRAME.pack_into(buffer, 0, length, crc)
    return bytes(buffer)


def _frame_payload(payload: dict[str, Any], codec_id: int) -> bytes:
    """Frame one record body: version byte + codec-encoded payload.

    ``payload`` must be built in sorted-key order — both codecs then
    emit deterministic bytes (JSON additionally sorts on its own).
    """
    buffer = new_buffer()
    buffer += _HEADER_HOLE
    if codec_id == CODEC_JSON:
        buffer.append(WAL_VERSION)
        buffer += json.dumps(
            encode_value_json(payload), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    else:
        buffer.append(WAL_VERSION_BINARY)
        encode_value_binary(buffer, payload)
    return _seal(buffer)


def encode_entry_op(
    op: str,
    namespace: str,
    logical: int,
    keywords: tuple[str, ...],
    object_id: str,
    codec: str = "binary",
) -> bytes:
    """Frame a ``put``/``remove`` from bare fields, without building a
    :class:`StoreRecord`: the payload is the field dict
    :func:`encode_record` builds for the equivalent record."""
    return _frame_payload(
        {"id": object_id, "kw": keywords, "lg": logical, "ns": namespace, "op": op},
        codec_by_name(codec).id,
    )


def encode_ref_op(op: str, object_id: str, holder: int, codec: str = "binary") -> bytes:
    """Frame a ``ref_put``/``ref_del`` from bare fields."""
    return _frame_payload({"h": holder, "id": object_id, "op": op}, codec_by_name(codec).id)


def _record_payload(record: StoreRecord) -> dict[str, Any]:
    """One record's field dict, keys in sorted order."""
    fields = _OPS.get(record.op)
    if fields is None:
        raise ValueError(f"unknown store record op {record.op!r}")
    payload: dict[str, Any] = {}
    if "h" in fields:
        payload["h"] = record.holder
    if record.op == "entry":
        payload["ids"] = tuple(record.object_ids)
    elif "id" in fields:
        payload["id"] = record.object_id
    if "kw" in fields:
        payload["kw"] = tuple(record.keywords)
    if "ns" in fields:
        payload["lg"] = record.logical
        payload["ns"] = record.namespace
    payload["op"] = record.op
    return payload


def encode_record(record: StoreRecord, codec: str = "binary") -> bytes:
    """Serialize one record, frame header included."""
    return _frame_payload(_record_payload(record), codec_by_name(codec).id)


def _decode_body(body: bytes) -> StoreRecord:
    version = body[0]
    if version == WAL_VERSION:
        payload = decode_value_json(json.loads(body[1:].decode("utf-8")))
    elif version == WAL_VERSION_BINARY:
        view = memoryview(body)
        payload, position = decode_value_binary(view, 1)
        if position != len(view):
            raise ValueError(f"trailing bytes after record ({len(view) - position} left)")
    else:
        raise ValueError(
            f"unsupported WAL version {version} "
            f"(speaking {WAL_VERSION}/{WAL_VERSION_BINARY})"
        )
    if not isinstance(payload, dict):
        raise ValueError("WAL record payload must be an object")
    op = payload.get("op")
    fields = _OPS.get(op)
    if fields is None:
        raise ValueError(f"unknown store record op {op!r}")
    return StoreRecord(
        op=op,
        namespace=str(payload.get("ns", "")),
        logical=int(payload.get("lg", 0)),
        keywords=tuple(payload.get("kw", ())),
        object_id=str(payload.get("id", "")) if op != "entry" else "",
        object_ids=tuple(payload.get("ids", ())),
        holder=int(payload.get("h", 0)),
    )


@dataclass(frozen=True)
class WalDecodeResult:
    """Outcome of decoding a WAL byte string.

    ``consumed`` is the length of the clean prefix (truncate the file to
    it to drop a torn tail); ``truncated`` is True when trailing bytes
    were dropped, with ``reason`` saying why.
    """

    records: tuple[StoreRecord, ...]
    consumed: int
    truncated: bool = False
    reason: str | None = None


def decode_records(data: bytes) -> WalDecodeResult:
    """Decode every clean record from the head of ``data``.

    Never raises on bad input: decoding stops at the first incomplete,
    CRC-failing, or malformed frame, and everything from there on is
    reported as the torn tail.  Each record's codec is detected from
    its own version byte, so mixed JSON/binary files replay.
    """
    records: list[StoreRecord] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _FRAME.size:
            return WalDecodeResult(tuple(records), offset, True, "partial frame header")
        length, crc = _FRAME.unpack_from(data, offset)
        if length == 0 or length > MAX_RECORD_BYTES:
            return WalDecodeResult(tuple(records), offset, True, f"invalid frame length {length}")
        start = offset + _FRAME.size
        if total - start < length:
            return WalDecodeResult(tuple(records), offset, True, "partial frame body")
        body = data[start : start + length]
        if zlib.crc32(body) != crc:
            return WalDecodeResult(tuple(records), offset, True, "crc mismatch")
        try:
            records.append(_decode_body(body))
        except (ValueError, TypeError, UnicodeDecodeError, json.JSONDecodeError,
                IndexError, ProtocolError) as error:
            return WalDecodeResult(tuple(records), offset, True, f"malformed record: {error}")
        offset = start + length
    return WalDecodeResult(tuple(records), offset)


# -- replay ---------------------------------------------------------------


def apply_record(tables: Tables, refs: Refs, record: StoreRecord) -> None:
    """Fold one record into in-memory state (mirrors the live mutations
    of :class:`~repro.core.index.IndexShard` and
    :class:`~repro.dht.dolr.DolrNode`)."""
    op = record.op
    if op in ("put", "entry"):
        key = (record.namespace, record.logical)
        objects = tables.setdefault(key, {}).setdefault(frozenset(record.keywords), set())
        if op == "put":
            objects.add(record.object_id)
        else:
            objects.update(record.object_ids)
    elif op == "remove":
        key = (record.namespace, record.logical)
        table = tables.get(key)
        keywords = frozenset(record.keywords)
        if table is None or keywords not in table:
            return
        objects = table[keywords]
        objects.discard(record.object_id)
        if not objects:
            del table[keywords]
            if not table:
                del tables[key]
    elif op == "drop":
        tables.pop((record.namespace, record.logical), None)
    elif op == "ref_put":
        refs.setdefault(record.object_id, set()).add(record.holder)
    elif op == "ref_del":
        holders = refs.get(record.object_id)
        if holders is not None:
            holders.discard(record.holder)
            if not holders:
                del refs[record.object_id]
    else:  # unreachable: decode rejects unknown ops
        raise ValueError(f"unknown store record op {op!r}")


def replay(records: tuple[StoreRecord, ...] | list[StoreRecord]) -> tuple[Tables, Refs]:
    """State after applying ``records`` in order to empty tables/refs."""
    tables: Tables = {}
    refs: Refs = {}
    for record in records:
        apply_record(tables, refs, record)
    return tables, refs


def entry_records(tables: Tables, refs: Refs) -> list[StoreRecord]:
    """The canonical snapshot of a state: one ``entry`` record per table
    entry, one ``ref_put`` per reference, deterministically ordered —
    the same stream churn handoff sends per table."""
    records: list[StoreRecord] = []
    for namespace, logical in sorted(tables):
        table = tables[(namespace, logical)]
        for keywords in sorted(table, key=lambda k: (len(k), tuple(sorted(k)))):
            records.append(
                StoreRecord(
                    op="entry",
                    namespace=namespace,
                    logical=logical,
                    keywords=tuple(sorted(keywords)),
                    object_ids=tuple(sorted(table[keywords])),
                )
            )
    for object_id in sorted(refs):
        for holder in sorted(refs[object_id]):
            records.append(StoreRecord(op="ref_put", object_id=object_id, holder=holder))
    return records
