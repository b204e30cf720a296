"""The codec core: one serialization stack for wire, WAL, and scans.

Every byte this package persists or transmits is produced by one of two
codecs defined here:

* :data:`CODEC_JSON` (id 1) — the original tagged-JSON encoding: a
  payload is lowered to pure-JSON types with ``{"!": tag, "v": ...}``
  wrappers for ``tuple`` / ``set`` / ``frozenset`` / awkward dicts,
  then ``json.dumps``-ed.  Human-readable; what a JSON-pinned node
  writes (v1 frames and records), and what every node can read.
* :data:`CODEC_BINARY` (id 2) — a compact binary encoding: one type
  byte per value, varint integers (zigzag for sign), length-prefixed
  raw-UTF-8 strings, and a *flat posting-set* form
  (:class:`PostingList`) that serializes an ``hindex.scan`` reply's
  ``[(frozenset, tuple), ...]`` matches without per-element type bytes.
  Encoding appends into one reusable per-thread ``bytearray`` (no
  intermediate ``bytes`` joins); decoding walks offsets over a
  ``memoryview`` so no slice of the input is copied before the final
  ``str`` construction.

The two codecs carry the same value domain: ``None``, ``bool``,
``int`` (arbitrary precision), finite ``float``, ``str``, ``list``,
``tuple``, ``set``, ``frozenset``, and ``dict`` (any hashable encodable
keys).  Non-finite floats are rejected by *both* (JSON via
``allow_nan=False``) so a payload either round-trips under every codec
or is rejected by every codec — the cross-codec equality the property
tests pin.

Consumers:

* :mod:`repro.net.wire` — frame envelopes (version byte 1 = JSON
  envelope, version byte 2 = codec-id byte + that codec's envelope),
* :mod:`repro.store.wal` — WAL records and snapshots (version byte per
  record selects the codec; recovery auto-detects),
* :mod:`repro.core.index` — scan replies mark their matches as a
  :class:`PostingList` to opt into the flat encoding,
* :mod:`repro.sim.network` — opt-in codec-true byte accounting so
  simulator bandwidth rows stay comparable with the TCP transport.
"""

from __future__ import annotations

import json
import math
import struct
import threading
from typing import Any, Protocol

from repro.net.errors import ProtocolError

__all__ = [
    "CODEC_BINARY",
    "CODEC_IDS",
    "CODEC_JSON",
    "Codec",
    "PostingList",
    "codec_by_id",
    "codec_by_name",
    "decode_value_binary",
    "decode_value_json",
    "encode_value_binary",
    "encode_value_json",
    "new_buffer",
    "read_str",
    "read_uvarint",
    "read_varint",
    "write_str",
    "write_uvarint",
    "write_varint",
]

CODEC_JSON = 1
CODEC_BINARY = 2
CODEC_IDS = (CODEC_JSON, CODEC_BINARY)

_TAG = "!"
_DOUBLE = struct.Struct("!d")

# Binary type bytes.  One byte per value; containers carry a varint
# count.  POSTINGS is the flat posting-set form (no per-element type
# bytes): varint rows, each row = varint keyword count, raw strings,
# varint id count, raw strings.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_LIST = 0x06
_T_TUPLE = 0x07
_T_SET = 0x08
_T_FROZENSET = 0x09
_T_DICT = 0x0A  # all-str keys, no tag-escape needed (unlike JSON)
_T_DICT_ANY = 0x0B  # arbitrary encodable keys
_T_POSTINGS = 0x0C


class PostingList(list):
    """A list of ``(frozenset[str], tuple[str, ...])`` posting rows.

    Behaves exactly like the plain list it subclasses — in-process
    consumers (the simulator, the search walkers) never notice — but
    the binary codec recognizes the type in O(1) and serializes the
    rows flat: no per-element type bytes, no tagged-object wrappers,
    one pass over the strings.  ``hindex.scan`` replies are the
    producer; anything shaped ``[(frozenset_of_str, tuple_of_str)]``
    may opt in.
    """

    __slots__ = ()


# -- reusable encode buffers ----------------------------------------------

_scratch = threading.local()


def new_buffer() -> bytearray:
    """The calling thread's reusable encode buffer, emptied.

    Encoders append into this single buffer and take one final
    ``bytes()`` copy, instead of allocating and joining intermediate
    byte strings per value.  One buffer per thread: encode calls never
    nest (a codec never recursively encodes a whole frame mid-frame).
    """
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None:
        buffer = _scratch.buffer = bytearray()
    else:
        del buffer[:]
    return buffer


# -- varint / string primitives (shared with the WAL fast paths) ----------


def write_uvarint(buffer: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint (arbitrary precision)."""
    while value > 0x7F:
        buffer.append((value & 0x7F) | 0x80)
        value >>= 7
    buffer.append(value)


def write_varint(buffer: bytearray, value: int) -> None:
    """Append a signed integer, zigzag-mapped then LEB128."""
    write_uvarint(buffer, (value << 1) if value >= 0 else ((-value << 1) - 1))


def write_str(buffer: bytearray, value: str) -> None:
    """Append a length-prefixed raw-UTF-8 string (no type byte)."""
    raw = value.encode("utf-8")
    write_uvarint(buffer, len(raw))
    buffer += raw


def read_uvarint(data, position: int) -> tuple[int, int]:
    """Read an unsigned varint; returns ``(value, new position)``."""
    shift = 0
    result = 0
    while True:
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7


def read_varint(data, position: int) -> tuple[int, int]:
    """Read a zigzag varint; returns ``(value, new position)``."""
    raw, position = read_uvarint(data, position)
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), position


def read_str(data, position: int) -> tuple[str, int]:
    """Read a length-prefixed string; returns ``(value, new position)``.

    ``data`` may be a ``memoryview``: the string is decoded straight
    from the underlying buffer (``str(view, "utf-8")``), no
    intermediate ``bytes`` copy.
    """
    length, position = read_uvarint(data, position)
    end = position + length
    if end > len(data):
        raise ProtocolError("truncated string in binary payload")
    return str(data[position:end], "utf-8"), end


# -- binary value encoding -------------------------------------------------


def _sorted_items(value) -> list:
    try:
        return sorted(value)
    except TypeError:
        return sorted(value, key=repr)


def encode_value_binary(buffer: bytearray, value: Any) -> None:
    """Append one value in the binary encoding.

    Sets are serialized in sorted order, exactly like the JSON codec,
    so identical values always produce identical bytes on either codec.
    """
    kind = type(value)
    if kind is str:
        buffer.append(_T_STR)
        write_str(buffer, value)
    elif kind is int:
        buffer.append(_T_INT)
        write_varint(buffer, value)
    elif kind is bool:
        buffer.append(_T_TRUE if value else _T_FALSE)
    elif value is None:
        buffer.append(_T_NONE)
    elif kind is dict:
        if all(type(key) is str for key in value):
            buffer.append(_T_DICT)
            write_uvarint(buffer, len(value))
            for key, item in value.items():
                write_str(buffer, key)
                encode_value_binary(buffer, item)
        else:
            buffer.append(_T_DICT_ANY)
            write_uvarint(buffer, len(value))
            for key, item in value.items():
                encode_value_binary(buffer, key)
                encode_value_binary(buffer, item)
    elif kind is PostingList:
        _encode_postings(buffer, value)
    elif kind is list or kind is tuple:
        buffer.append(_T_LIST if kind is list else _T_TUPLE)
        write_uvarint(buffer, len(value))
        for item in value:
            encode_value_binary(buffer, item)
    elif kind is set or kind is frozenset:
        buffer.append(_T_SET if kind is set else _T_FROZENSET)
        write_uvarint(buffer, len(value))
        for item in _sorted_items(value):
            encode_value_binary(buffer, item)
    elif kind is float:
        if not math.isfinite(value):
            raise ProtocolError(f"cannot encode non-finite float {value!r}")
        buffer.append(_T_FLOAT)
        buffer += _DOUBLE.pack(value)
    else:
        # Subclass fallbacks (rare: the exact-type checks above cover
        # every payload the protocol builds).
        if isinstance(value, bool):
            buffer.append(_T_TRUE if value else _T_FALSE)
        elif isinstance(value, int):
            buffer.append(_T_INT)
            write_varint(buffer, value)
        elif isinstance(value, (str, float)):
            encode_value_binary(buffer, str(value) if isinstance(value, str) else float(value))
        elif isinstance(value, PostingList):
            _encode_postings(buffer, value)
        elif isinstance(value, (list, tuple, set, frozenset, dict)):
            base = list if isinstance(value, list) else (
                tuple if isinstance(value, tuple) else (
                    set if isinstance(value, set) and not isinstance(value, frozenset)
                    else (frozenset if isinstance(value, frozenset) else dict)))
            encode_value_binary(buffer, base(value))
        else:
            raise ProtocolError(
                f"cannot encode {type(value).__name__} on the wire: {value!r}"
            )


def _encode_postings(buffer: bytearray, rows: list) -> None:
    """The flat posting-set form: one pass, strings only."""
    buffer.append(_T_POSTINGS)
    write_uvarint(buffer, len(rows))
    for keywords, object_ids in rows:
        ordered = _sorted_items(keywords)
        write_uvarint(buffer, len(ordered))
        for keyword in ordered:
            write_str(buffer, keyword)
        write_uvarint(buffer, len(object_ids))
        for object_id in object_ids:
            write_str(buffer, object_id)


def decode_value_binary(data, position: int) -> tuple[Any, int]:
    """Decode one value; returns ``(value, new position)``.

    ``data`` should be a ``memoryview`` (or ``bytes``); nothing is
    sliced except the final string constructions.
    """
    tag = data[position]
    position += 1
    if tag == _T_STR:
        return read_str(data, position)
    if tag == _T_INT:
        return read_varint(data, position)
    if tag == _T_NONE:
        return None, position
    if tag == _T_TRUE:
        return True, position
    if tag == _T_FALSE:
        return False, position
    if tag == _T_DICT:
        count, position = read_uvarint(data, position)
        result: dict = {}
        for _ in range(count):
            key, position = read_str(data, position)
            result[key], position = decode_value_binary(data, position)
        return result, position
    if tag == _T_DICT_ANY:
        count, position = read_uvarint(data, position)
        result = {}
        for _ in range(count):
            key, position = decode_value_binary(data, position)
            try:
                result[key], position = decode_value_binary(data, position)
            except TypeError as error:
                raise ProtocolError(f"malformed binary dict: {error}") from error
        return result, position
    if tag == _T_LIST or tag == _T_TUPLE:
        count, position = read_uvarint(data, position)
        items = []
        for _ in range(count):
            item, position = decode_value_binary(data, position)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), position
    if tag == _T_SET or tag == _T_FROZENSET:
        count, position = read_uvarint(data, position)
        items = []
        for _ in range(count):
            item, position = decode_value_binary(data, position)
            items.append(item)
        try:
            return (set(items) if tag == _T_SET else frozenset(items)), position
        except TypeError as error:
            raise ProtocolError(f"malformed binary set: {error}") from error
    if tag == _T_POSTINGS:
        rows_count, position = read_uvarint(data, position)
        rows = PostingList()
        for _ in range(rows_count):
            keyword_count, position = read_uvarint(data, position)
            keywords = []
            for _ in range(keyword_count):
                keyword, position = read_str(data, position)
                keywords.append(keyword)
            id_count, position = read_uvarint(data, position)
            object_ids = []
            for _ in range(id_count):
                object_id, position = read_str(data, position)
                object_ids.append(object_id)
            rows.append((frozenset(keywords), tuple(object_ids)))
        return rows, position
    if tag == _T_FLOAT:
        end = position + _DOUBLE.size
        if end > len(data):
            raise ProtocolError("truncated float in binary payload")
        return _DOUBLE.unpack_from(data, position)[0], end
    raise ProtocolError(f"unknown binary type byte 0x{tag:02x}")


# -- JSON value encoding (the v1 tagged lowering) --------------------------


def encode_value_json(value: Any) -> Any:
    """Lower a payload value to pure-JSON types, tagging the rest."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [encode_value_json(item) for item in value]
    if isinstance(value, tuple):
        return {_TAG: "tuple", "v": [encode_value_json(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        tag = "set" if isinstance(value, set) else "frozenset"
        # Sort for deterministic bytes when items are comparable.
        return {_TAG: tag, "v": [encode_value_json(item) for item in _sorted_items(value)]}
    if isinstance(value, dict):
        if _TAG in value or not all(isinstance(key, str) for key in value):
            return {
                _TAG: "dict",
                "v": [
                    [encode_value_json(key), encode_value_json(item)]
                    for key, item in value.items()
                ],
            }
        return {key: encode_value_json(item) for key, item in value.items()}
    raise ProtocolError(f"cannot encode {type(value).__name__} on the wire: {value!r}")


def decode_value_json(value: Any) -> Any:
    """Invert :func:`encode_value_json`."""
    if isinstance(value, list):
        return [decode_value_json(item) for item in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag is None:
            return {key: decode_value_json(item) for key, item in value.items()}
        items = value.get("v")
        if not isinstance(items, list):
            raise ProtocolError(f"tagged value {tag!r} without a list body")
        if tag == "tuple":
            return tuple(decode_value_json(item) for item in items)
        if tag == "set":
            return {decode_value_json(item) for item in items}
        if tag == "frozenset":
            return frozenset(decode_value_json(item) for item in items)
        if tag == "dict":
            try:
                return {decode_value_json(key): decode_value_json(item) for key, item in items}
            except (TypeError, ValueError) as error:
                raise ProtocolError(f"malformed tagged dict: {error}") from error
        raise ProtocolError(f"unknown wire tag {tag!r}")
    return value


# -- the codec objects -----------------------------------------------------


class Codec(Protocol):
    """One self-contained value serialization.

    ``encode_into`` appends the serialized value to a caller-owned
    buffer (the reusable-``bytearray`` discipline); ``decode`` reads
    one value from a bytes-like object and must consume it fully.
    """

    id: int
    name: str

    def encode_into(self, buffer: bytearray, value: Any) -> None: ...

    def decode(self, data) -> Any: ...


class _JsonCodec:
    id = CODEC_JSON
    name = "json"

    def encode_into(self, buffer: bytearray, value: Any) -> None:
        try:
            buffer += json.dumps(
                encode_value_json(value), separators=(",", ":"), allow_nan=False
            ).encode("utf-8")
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"unencodable payload: {error}") from error

    def decode(self, data) -> Any:
        try:
            return decode_value_json(json.loads(bytes(data).decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"malformed JSON payload: {error}") from error


class _BinaryCodec:
    id = CODEC_BINARY
    name = "binary"

    def encode_into(self, buffer: bytearray, value: Any) -> None:
        try:
            encode_value_binary(buffer, value)
        except (TypeError, AttributeError, OverflowError, struct.error) as error:
            raise ProtocolError(f"unencodable payload: {error}") from error

    def decode(self, data) -> Any:
        view = data if isinstance(data, memoryview) else memoryview(data)
        try:
            value, position = decode_value_binary(view, 0)
        except (IndexError, ValueError) as error:
            raise ProtocolError(f"malformed binary payload: {error}") from error
        if position != len(view):
            raise ProtocolError(
                f"trailing bytes after binary payload ({len(view) - position} left)"
            )
        return value


JSON_CODEC = _JsonCodec()
BINARY_CODEC = _BinaryCodec()

_BY_ID = {CODEC_JSON: JSON_CODEC, CODEC_BINARY: BINARY_CODEC}
_BY_NAME = {"json": JSON_CODEC, "binary": BINARY_CODEC}


def codec_by_id(codec_id: int) -> Codec:
    codec = _BY_ID.get(codec_id)
    if codec is None:
        raise ProtocolError(f"unknown codec id {codec_id!r}")
    return codec


def codec_by_name(name) -> Codec:
    """Resolve ``"json"`` / ``"binary"`` (or an enum holding one, or an
    already-resolved codec) to the codec object."""
    if isinstance(name, (_JsonCodec, _BinaryCodec)):
        return name
    key = getattr(name, "value", name)
    codec = _BY_NAME.get(key)
    if codec is None:
        raise ValueError(f"unknown codec {name!r}; expected one of {sorted(_BY_NAME)}")
    return codec
