"""Length-prefixed, versioned wire format for protocol messages.

Two frame layouts share the stream, distinguished by the version byte
(the codec core behind both lives in :mod:`repro.net.codec`).  A node
writes every frame in its own codec and reads either layout by that
byte alone, so a frame needs no connection state to decode:

**v1 — JSON** (the original format, written by JSON-pinned nodes)::

    +----------------+-----------+----------------------------------+
    | length (4B BE) | version=1 | JSON envelope (UTF-8), length-1 B |
    +----------------+-----------+----------------------------------+

    {"t": <frame type>, "kind": ..., "src": ..., "dst": ...,
     "id": <request id>, "p": <tagged payload>}

**v2 — binary** (the default since the codec refactor)::

    +----------------+-----------+----------+-----------------------+
    | length (4B BE) | version=2 | codec id | codec envelope        |
    +----------------+-----------+----------+-----------------------+

``length`` covers everything after the header (version byte onward), so
a reader can size its buffer before parsing.  The v2 envelope under
codec id 2 (binary) is: frame-type byte, length-prefixed ``kind``,
zigzag varints for ``src``/``dst``/``id``/``pr``, then the payload in
the binary value encoding — varint ints, raw UTF-8 strings, one type
byte per value, and the flat posting-set form for scan replies.  See
``docs/protocol.md`` §18 for the byte-level layout.

Frame types: ``req`` (request, expects a reply), ``rep`` (reply,
``p`` is the handler's return value), ``err`` (reply, the handler
raised; ``p`` carries the error type and message), ``msg`` (one-way
datagram, no reply), ``busy`` (the T_BUSY fast-reject: the server's
admission controller refused the request before dispatching it; ``p``
carries the queue depth and a retry-after hint — see
:mod:`repro.net.admission`) and ``gos`` (a one-way anti-entropy
membership exchange carrying epoch-stamped peer-book deltas; handled
at the transport level, never dispatched to a node handler, and not
accounted as a protocol message — see :mod:`repro.membership`).  A
request may carry an admission priority in the optional envelope key
``"pr"``; zero (the default) is omitted from the v1 bytes, so
pre-priority traffic encodes identically.

**Tagged payload encoding (v1).**  Protocol payloads are not plain
JSON: the index layer ships keyword sets as ``frozenset`` and scan
results as ``(frozenset, tuple)`` pairs (see ``hindex.scan``).  Those
types round-trip through a tagged object encoding — ``{"!":
"frozenset", "v": [...]}`` and friends — so a handler behind a socket
receives *exactly* the payload it would have received in-process,
which is what makes simulator/socket result equality possible.  The
binary codec carries the same value domain natively.  Non-finite
floats are rejected on both paths (JSON via ``allow_nan=False`` —
``json.dumps`` would otherwise emit the nonstandard ``NaN`` /
``Infinity`` literals that strict parsers reject).

**Rejection.**  Anything outside the format raises
:class:`~repro.net.errors.ProtocolError`: a declared length of zero or
beyond ``max_frame_bytes`` (both before any payload bytes are read, so
an attacker cannot make a reader buffer unbounded data), an unknown
version or codec id, undecodable UTF-8/JSON or malformed binary, a
malformed envelope, or an unencodable Python type on the sending side.
Truncated input never hangs a :class:`FrameDecoder` — it simply yields
nothing until more bytes arrive, and `flush()` reports leftover
trailing bytes.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import Any

from repro.net.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    decode_value_binary,
    encode_value_binary,
    new_buffer,
    read_str,
    read_varint,
    write_str,
    write_varint,
)
from repro.net.codec import decode_value_json as decode_value
from repro.net.codec import encode_value_json as encode_value
from repro.net.errors import ProtocolError

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "PROTOCOL_VERSION",
    "PROTOCOL_VERSION_BINARY",
    "decode_frame",
    "decode_value",
    "encode_frame",
    "encode_value",
    "parse_frame_info",
]

PROTOCOL_VERSION = 1
PROTOCOL_VERSION_BINARY = 2
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024  # 16 MiB
_HEADER = struct.Struct("!I")


class FrameType(enum.Enum):
    REQUEST = "req"
    REPLY = "rep"
    ERROR = "err"
    DATAGRAM = "msg"
    BUSY = "busy"
    GOSSIP = "gos"


# v2 frame-type bytes: index into this tuple.  Append-only.
_FRAME_TYPES = (
    FrameType.REQUEST,
    FrameType.REPLY,
    FrameType.ERROR,
    FrameType.DATAGRAM,
    FrameType.BUSY,
    FrameType.GOSSIP,
)
_TYPE_CODES = {frame_type: code for code, frame_type in enumerate(_FRAME_TYPES)}


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame.

    ``priority`` is the admission priority of a request (higher keeps a
    request admitted longer under overload; see
    :mod:`repro.net.admission`).  It rides in the envelope key ``"pr"``
    and is omitted from the v1 bytes when zero, so frames that predate
    the field round-trip unchanged.
    """

    type: FrameType
    kind: str
    src: int
    dst: int
    request_id: int
    payload: Any = None
    priority: int = 0


# -- frame encoding -------------------------------------------------------


def encode_frame(
    frame: Frame,
    *,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    codec: int = CODEC_JSON,
) -> bytes:
    """Serialize one frame, header included.

    ``codec`` selects the layout: :data:`~repro.net.codec.CODEC_JSON`
    (the default) emits a v1 frame byte-identical to the pre-codec
    format; :data:`~repro.net.codec.CODEC_BINARY` emits a v2 frame.
    """
    if codec == CODEC_BINARY:
        buffer = new_buffer()
        buffer += b"\x00\x00\x00\x00"  # length, patched below
        buffer.append(PROTOCOL_VERSION_BINARY)
        buffer.append(CODEC_BINARY)
        buffer.append(_TYPE_CODES[frame.type])
        try:
            write_str(buffer, frame.kind)
            write_varint(buffer, frame.src)
            write_varint(buffer, frame.dst)
            write_varint(buffer, frame.request_id)
            write_varint(buffer, frame.priority)
            encode_value_binary(buffer, frame.payload)
        except (TypeError, AttributeError, OverflowError) as error:
            raise ProtocolError(f"unencodable frame payload: {error}") from error
        length = len(buffer) - _HEADER.size
        if length > max_frame_bytes:
            raise ProtocolError(f"frame of {length} bytes exceeds the {max_frame_bytes}-byte cap")
        _HEADER.pack_into(buffer, 0, length)
        return bytes(buffer)
    if codec != CODEC_JSON:
        raise ProtocolError(f"unknown codec id {codec!r}")
    envelope = {
        "t": frame.type.value,
        "kind": frame.kind,
        "src": frame.src,
        "dst": frame.dst,
        "id": frame.request_id,
        "p": encode_value(frame.payload),
    }
    if frame.priority:
        envelope["pr"] = frame.priority
    try:
        body = json.dumps(envelope, separators=(",", ":"), allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"unencodable frame payload: {error}") from error
    length = len(body) + 1
    if length > max_frame_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds the {max_frame_bytes}-byte cap")
    return _HEADER.pack(length) + bytes([PROTOCOL_VERSION]) + body


def _parse_json_envelope(data: bytes) -> Frame:
    """Decode a v1 JSON envelope (after the version byte).

    Unknown envelope keys are ignored."""
    try:
        envelope = json.loads(bytes(data).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame body: {error}") from error
    if not isinstance(envelope, dict):
        raise ProtocolError(f"frame envelope must be an object, got {type(envelope).__name__}")
    try:
        frame_type = FrameType(envelope["t"])
        kind = envelope["kind"]
        src = envelope["src"]
        dst = envelope["dst"]
        request_id = envelope["id"]
    except (KeyError, ValueError) as error:
        raise ProtocolError(f"malformed frame envelope: {error}") from error
    if not isinstance(kind, str) or not isinstance(src, int) or not isinstance(dst, int):
        raise ProtocolError("frame envelope fields have wrong types")
    if not isinstance(request_id, int):
        raise ProtocolError("frame request id must be an integer")
    priority = envelope.get("pr", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError("frame priority must be an integer")
    return Frame(
        frame_type, kind, src, dst, request_id, decode_value(envelope.get("p")), priority
    )


def _parse_binary_envelope(view: memoryview) -> Frame:
    """Decode a v2 binary envelope (after the version and codec bytes)."""
    try:
        type_code = view[0]
        if type_code >= len(_FRAME_TYPES):
            raise ProtocolError(f"unknown frame type byte 0x{type_code:02x}")
        kind, position = read_str(view, 1)
        src, position = read_varint(view, position)
        dst, position = read_varint(view, position)
        request_id, position = read_varint(view, position)
        priority, position = read_varint(view, position)
        payload, position = decode_value_binary(view, position)
    except (IndexError, ValueError) as error:
        raise ProtocolError(f"malformed binary frame: {error}") from error
    if position != len(view):
        raise ProtocolError(
            f"trailing bytes after binary frame ({len(view) - position} left)"
        )
    return Frame(_FRAME_TYPES[type_code], kind, src, dst, request_id, payload, priority)


def parse_frame_info(data: bytes) -> Frame:
    """Decode one frame body (version byte onward, no length header).

    The version byte picks the decoder, so the body needs no connection
    state: v1 is a JSON envelope, v2 a codec id byte and that codec's
    envelope.  The only v2 codec id is binary.
    """
    if not data:
        raise ProtocolError("empty frame body")
    version = data[0]
    if version == PROTOCOL_VERSION:
        return _parse_json_envelope(data[1:])
    if version == PROTOCOL_VERSION_BINARY:
        if len(data) < 2:
            raise ProtocolError("binary frame missing its codec id byte")
        codec_id = data[1]
        if codec_id != CODEC_BINARY:
            raise ProtocolError(f"unknown codec id {codec_id} in v2 frame")
        return _parse_binary_envelope(memoryview(data)[2:])
    raise ProtocolError(
        f"unsupported wire version {version} "
        f"(speaking {PROTOCOL_VERSION}/{PROTOCOL_VERSION_BINARY})"
    )


def decode_frame(
    data: bytes, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> tuple[Frame, int]:
    """Decode one complete frame from the head of ``data``.

    Returns ``(frame, bytes consumed)``.  Raises
    :class:`~repro.net.errors.ProtocolError` if the bytes are invalid
    *or* incomplete — use :class:`FrameDecoder` for streaming input.
    """
    declared = _declared_length(data, max_frame_bytes)
    if declared is None or len(data) < _HEADER.size + declared:
        raise ProtocolError("truncated frame")
    body = data[_HEADER.size : _HEADER.size + declared]
    return parse_frame_info(body), _HEADER.size + declared


def _declared_length(buffer, max_frame_bytes: int) -> int | None:
    """The body length declared by a (possibly partial) header.

    Returns None when fewer than 4 header bytes are available; raises
    on a length the format forbids — *before* any body bytes are read.
    """
    if len(buffer) < _HEADER.size:
        return None
    (declared,) = _HEADER.unpack_from(buffer)
    if declared == 0:
        raise ProtocolError("frame with zero-length body")
    if declared > max_frame_bytes:
        raise ProtocolError(
            f"declared frame length {declared} exceeds the {max_frame_bytes}-byte cap"
        )
    return declared


class FrameDecoder:
    """Incremental frame parser for a byte stream.

    Feed arbitrarily-chunked bytes; complete frames come out (either
    wire version, transparently).  Invalid input raises
    :class:`~repro.net.errors.ProtocolError` immediately (oversized
    declared lengths are rejected from the 4 header bytes alone);
    incomplete input never blocks or raises — the decoder just waits
    for more.  After an error the decoder is poisoned and the
    connection that fed it should be closed.
    """

    def __init__(self, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> list[Frame]:
        """Consume ``data``, returning every frame it completed."""
        if self._poisoned:
            raise ProtocolError("decoder poisoned by an earlier protocol error")
        self._buffer.extend(data)
        frames: list[Frame] = []
        try:
            while True:
                declared = _declared_length(self._buffer, self.max_frame_bytes)
                if declared is None or len(self._buffer) < _HEADER.size + declared:
                    break
                body = bytes(self._buffer[_HEADER.size : _HEADER.size + declared])
                del self._buffer[: _HEADER.size + declared]
                frames.append(parse_frame_info(body))
        except ProtocolError:
            self._poisoned = True
            raise
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    def flush(self) -> None:
        """Assert the stream ended on a frame boundary.

        Call at EOF: leftover bytes mean the peer died mid-frame, which
        is a protocol error worth surfacing rather than silence.
        """
        if self._buffer:
            raise ProtocolError(f"stream ended mid-frame with {len(self._buffer)} bytes pending")
