"""Tests for the wire codec (repro.net.wire)."""

import json
import math
import struct

import pytest

from repro.net.codec import CODEC_BINARY, CODEC_JSON, PostingList
from repro.net.errors import ProtocolError
from repro.net.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    PROTOCOL_VERSION_BINARY,
    Frame,
    FrameDecoder,
    FrameType,
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
    parse_frame_info,
)

# One realistic request per message kind the protocol stack sends —
# payloads mirror what the handlers in repro.dht.* / repro.core.index
# actually receive, including the frozenset/tuple shapes that JSON
# alone cannot carry.
PROTOCOL_REQUESTS = {
    # Chord (repro.dht.chord)
    "chord.route_step": {"key": 123456789},
    "chord.get_predecessor": {},
    "chord.get_successor_list": {},
    "chord.notify": {"candidate": 42},
    # Kademlia (repro.dht.kademlia)
    "kad.find_node": {"key": 987654321},
    "kad.ping": {},
    # Pastry (repro.dht.pastry)
    "pastry.route_step": {"key": 555},
    # HyperCuP (repro.dht.hypercup)
    "cube.next_hops": {"target": 7, "dimension": 3},
    # DOLR object operations (repro.dht.dolr)
    "dolr.insert_ref": {"object_id": "paper.pdf", "holder": 99},
    "dolr.delete_ref": {"object_id": "paper.pdf", "holder": 99},
    "dolr.read_ref": {"object_id": "paper.pdf"},
    # Hypercube index (repro.core.index / repro.core.search)
    "hindex.put": {
        "logical": 5,
        "object_id": "paper.pdf",
        "keywords": frozenset({"dht", "search", "p2p"}),
    },
    "hindex.remove": {
        "logical": 5,
        "object_id": "paper.pdf",
        "keywords": frozenset({"dht", "search"}),
    },
    "hindex.pin": {"logical": 5, "keywords": frozenset({"dht"})},
    "hindex.scan": {"logical": 5, "keywords": frozenset({"dht"}), "limit": 10},
    "hindex.results": {"count": 3},
    "hindex.transfer": {
        "logical": 5,
        "entries": [(frozenset({"dht", "p2p"}), ("paper.pdf", "slides.ppt"))],
    },
    "hindex.cache_get": {"logical": 5, "keywords": frozenset({"dht"})},
    "hindex.cache_put": {
        "logical": 5,
        "keywords": frozenset({"dht"}),
        "objects": (("paper.pdf", frozenset({"dht", "search"})),),
    },
}

# Representative replies, including the trickiest one on the protocol:
# hindex.scan returns (frozenset, tuple) match pairs.
PROTOCOL_REPLIES = {
    "chord.route_step": {"next": 17, "candidates": [17, 23, 42], "owner": None},
    "hindex.scan": {
        "matches": [
            (frozenset({"dht", "search"}), ("paper.pdf",)),
            (frozenset({"dht", "p2p", "search"}), ("slides.ppt", "notes.txt")),
        ],
        "truncated": False,
    },
    "dolr.read_ref": {"holders": [3, 99]},
    "kad.find_node": {"closest": [(1, 2), (3, 4)]},
}


def roundtrip(frame: Frame) -> Frame:
    decoded, consumed = decode_frame(encode_frame(frame))
    assert consumed == len(encode_frame(frame))
    return decoded


class TestValueEncoding:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            0,
            -17,
            3.5,
            "keyword",
            [1, 2, 3],
            (1, 2, 3),
            {"a", "b"},
            frozenset({"x", "y"}),
            {"plain": "dict"},
            {"nested": [(frozenset({"k"}), ("oid",))]},
            {1: "non-string key"},
            {"!": "tag-collision value"},
            (),
            frozenset(),
            {},
        ],
    )
    def test_roundtrip_exact(self, value):
        recovered = decode_value(json.loads(json.dumps(encode_value(value))))
        assert recovered == value
        assert type(recovered) is type(value)

    def test_set_vs_frozenset_distinguished(self):
        assert type(decode_value(encode_value({"a"}))) is set
        assert type(decode_value(encode_value(frozenset({"a"})))) is frozenset

    def test_deterministic_bytes_for_sets(self):
        first = json.dumps(encode_value(frozenset({"c", "a", "b"})))
        second = json.dumps(encode_value(frozenset({"b", "c", "a"})))
        assert first == second

    def test_unencodable_type_rejected(self):
        with pytest.raises(ProtocolError):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError):
            decode_value({"!": "mystery", "v": []})


class TestFrameRoundtrip:
    @pytest.mark.parametrize("kind", sorted(PROTOCOL_REQUESTS))
    def test_every_protocol_request_kind(self, kind):
        frame = Frame(FrameType.REQUEST, kind, 12, 34, 7, PROTOCOL_REQUESTS[kind])
        assert roundtrip(frame) == frame

    @pytest.mark.parametrize("kind", sorted(PROTOCOL_REPLIES))
    def test_reply_payloads(self, kind):
        frame = Frame(FrameType.REPLY, kind, 34, 12, 7, PROTOCOL_REPLIES[kind])
        assert roundtrip(frame) == frame

    def test_datagram_and_error_frames(self):
        datagram = Frame(FrameType.DATAGRAM, "hindex.results", 1, 2, 3, {"count": 5})
        assert roundtrip(datagram) == datagram
        error = Frame(
            FrameType.ERROR, "hindex.scan", 2, 1, 3,
            {"error": "LookupError", "message": "unknown kind"},
        )
        assert roundtrip(error) == error

    def test_scalar_reply_payloads(self):
        # Handlers may return bare values, not just dicts.
        for payload in (None, True, 7, "ok", [1, 2], (1, 2)):
            frame = Frame(FrameType.REPLY, "chord.get_predecessor", 1, 2, 3, payload)
            assert roundtrip(frame) == frame

    def test_version_byte_on_the_wire(self):
        data = encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}))
        assert data[4] == PROTOCOL_VERSION


class TestMalformedFrames:
    def good_bytes(self):
        return encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}))

    def test_truncated_rejected(self):
        data = self.good_bytes()
        for cut in (0, 1, 4, 5, len(data) - 1):
            with pytest.raises(ProtocolError):
                decode_frame(data[:cut])

    def test_zero_length_rejected(self):
        with pytest.raises(ProtocolError, match="zero-length"):
            decode_frame(struct.pack("!I", 0) + b"rest")

    def test_oversized_rejected_from_header_alone(self):
        # Only 4 bytes supplied: the cap must trip before any body reads.
        header = struct.pack("!I", DEFAULT_MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(header)

    def test_encode_respects_cap(self):
        frame = Frame(FrameType.REQUEST, "hindex.put", 1, 2, 3, {"blob": "x" * 100})
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(frame, max_frame_bytes=32)

    def test_wrong_version_rejected(self):
        data = bytearray(self.good_bytes())
        data[4] = 99  # neither v1 (JSON) nor v2 (codec-id framed)
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(data))

    def test_garbage_json_rejected(self):
        body = bytes([PROTOCOL_VERSION]) + b"{not json"
        with pytest.raises(ProtocolError, match="malformed"):
            decode_frame(struct.pack("!I", len(body)) + body)

    @pytest.mark.parametrize(
        "envelope",
        [
            [],  # not an object
            {"kind": "x", "src": 1, "dst": 2, "id": 3},  # missing type
            {"t": "bogus", "kind": "x", "src": 1, "dst": 2, "id": 3},
            {"t": "req", "kind": 9, "src": 1, "dst": 2, "id": 3},  # kind not str
            {"t": "req", "kind": "x", "src": "a", "dst": 2, "id": 3},
            {"t": "req", "kind": "x", "src": 1, "dst": 2, "id": "z"},
        ],
    )
    def test_bad_envelopes_rejected(self, envelope):
        body = bytes([PROTOCOL_VERSION]) + json.dumps(envelope).encode()
        with pytest.raises(ProtocolError):
            decode_frame(struct.pack("!I", len(body)) + body)


def roundtrip_binary(frame: Frame) -> Frame:
    data = encode_frame(frame, codec=CODEC_BINARY)
    decoded, consumed = decode_frame(data)
    assert consumed == len(data)
    return decoded


class TestBinaryFrames:
    @pytest.mark.parametrize("kind", sorted(PROTOCOL_REQUESTS))
    def test_every_protocol_request_kind(self, kind):
        frame = Frame(FrameType.REQUEST, kind, 12, 34, 7, PROTOCOL_REQUESTS[kind])
        assert roundtrip_binary(frame) == frame

    @pytest.mark.parametrize("kind", sorted(PROTOCOL_REPLIES))
    def test_reply_payloads(self, kind):
        frame = Frame(FrameType.REPLY, kind, 34, 12, 7, PROTOCOL_REPLIES[kind])
        assert roundtrip_binary(frame) == frame

    def test_version_and_codec_bytes_on_the_wire(self):
        data = encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}),
                            codec=CODEC_BINARY)
        assert data[4] == PROTOCOL_VERSION_BINARY
        assert data[5] == CODEC_BINARY

    def test_priority_and_negative_addresses(self):
        frame = Frame(FrameType.REQUEST, "hindex.scan", -1, 2**40, 3, {}, priority=9)
        assert roundtrip_binary(frame) == frame

    def test_smaller_than_json_on_posting_heavy_reply(self):
        matches = PostingList(
            (frozenset({f"kw{i}", "dht"}), (f"obj-{i}.pdf",)) for i in range(20)
        )
        frame = Frame(FrameType.REPLY, "hindex.scan", 1, 2, 3,
                      {"matches": matches, "truncated": False})
        binary = encode_frame(frame, codec=CODEC_BINARY)
        json_form = encode_frame(frame)
        assert len(binary) < 0.7 * len(json_form)

    def test_unknown_codec_id_rejected(self):
        data = bytearray(encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}),
                                      codec=CODEC_BINARY))
        data[5] = 77
        with pytest.raises(ProtocolError, match="codec"):
            decode_frame(bytes(data))

    def test_unknown_frame_type_byte_rejected(self):
        data = bytearray(encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}),
                                      codec=CODEC_BINARY))
        data[6] = 250
        with pytest.raises(ProtocolError, match="type"):
            decode_frame(bytes(data))

    def test_truncated_binary_body_rejected(self):
        data = encode_frame(
            Frame(FrameType.REQUEST, "hindex.scan", 1, 2, 3, PROTOCOL_REQUESTS["hindex.scan"]),
            codec=CODEC_BINARY,
        )
        # Re-frame a cut body so the length header is consistent.
        cut = data[struct.calcsize("!I"):-4]
        with pytest.raises(ProtocolError):
            decode_frame(struct.pack("!I", len(cut)) + cut)


class TestNonFinitePayloads:
    """Regression: NaN/Infinity used to sail through ``json.dumps`` as
    the nonstandard ``NaN``/``Infinity`` literals that strict peers
    cannot parse.  Both codecs must refuse at encode time."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
    def test_rejected_at_encode_time(self, codec, bad):
        frame = Frame(FrameType.REPLY, "stats.latency", 1, 2, 3, {"p99": bad})
        with pytest.raises(ProtocolError, match="unencodable|non-finite"):
            encode_frame(frame, codec=codec)

    def test_nested_nan_rejected(self):
        frame = Frame(FrameType.REPLY, "stats.latency", 1, 2, 3,
                      {"series": [1.0, (2.0, math.nan)]})
        with pytest.raises(ProtocolError):
            encode_frame(frame)


class TestNegotiationParsing:
    """A frame body decodes by its version byte alone: no connection
    state, no capability advert, whichever codec the sender writes."""

    def good_frame(self):
        return Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {})

    def test_v1_without_advert(self):
        assert parse_frame_info(encode_frame(self.good_frame())[4:]) == self.good_frame()

    def test_v2_implies_binary_capability(self):
        data = encode_frame(self.good_frame(), codec=CODEC_BINARY)
        assert parse_frame_info(data[4:]) == self.good_frame()

    def test_unknown_envelope_key_is_ignored(self):
        envelope = {"t": "req", "kind": "kad.ping", "src": 1, "dst": 2, "id": 3,
                    "p": {}, "cd": "not-a-list"}
        body = bytes([PROTOCOL_VERSION]) + json.dumps(envelope).encode()
        assert parse_frame_info(body) == self.good_frame()
        decoded, consumed = decode_frame(struct.pack("!I", len(body)) + body)
        assert decoded == self.good_frame()
        assert consumed == 4 + len(body)

    def test_v2_frame_with_json_codec_id_is_rejected(self):
        # No encoder writes a JSON envelope behind the v2 version byte.
        envelope = {"t": "req", "kind": "kad.ping", "src": 1, "dst": 2, "id": 3, "p": {}}
        body = bytes([PROTOCOL_VERSION_BINARY, CODEC_JSON]) + json.dumps(envelope).encode()
        with pytest.raises(ProtocolError, match="unknown codec id"):
            parse_frame_info(body)


class TestFrameDecoder:
    def test_byte_at_a_time_never_hangs(self):
        frames = [
            Frame(FrameType.REQUEST, kind, 1, 2, i, PROTOCOL_REQUESTS[kind])
            for i, kind in enumerate(sorted(PROTOCOL_REQUESTS))
        ]
        stream = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        seen = []
        for offset in range(len(stream)):
            seen.extend(decoder.feed(stream[offset : offset + 1]))
        assert seen == frames
        decoder.flush()  # clean EOF: no pending bytes

    def test_split_across_arbitrary_chunks(self):
        frame = Frame(FrameType.REQUEST, "hindex.scan", 1, 2, 3, PROTOCOL_REQUESTS["hindex.scan"])
        stream = encode_frame(frame) * 3
        for chunk_size in (1, 2, 3, 5, 7, len(stream)):
            decoder = FrameDecoder()
            seen = []
            for start in range(0, len(stream), chunk_size):
                seen.extend(decoder.feed(stream[start : start + chunk_size]))
            assert seen == [frame, frame, frame]

    def test_truncated_stream_reports_at_flush(self):
        decoder = FrameDecoder()
        data = encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}))
        assert decoder.feed(data[:-2]) == []
        assert decoder.pending_bytes == len(data) - 2
        with pytest.raises(ProtocolError, match="mid-frame"):
            decoder.flush()

    def test_oversized_header_poisons_immediately(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(struct.pack("!I", 65))
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(b"more")

    def test_garbage_after_good_frame_poisons(self):
        decoder = FrameDecoder()
        good = encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}))
        bad_body = bytes([PROTOCOL_VERSION]) + b"\xff\xfe garbage"
        bad = struct.pack("!I", len(bad_body)) + bad_body
        with pytest.raises(ProtocolError):
            decoder.feed(good + bad)

    def test_fuzz_random_bytes_never_hang(self):
        import random

        rng = random.Random(1234)
        for trial in range(50):
            decoder = FrameDecoder(max_frame_bytes=4096)
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
            try:
                for start in range(0, len(blob), 7):
                    decoder.feed(blob[start : start + 7])
                decoder.flush()
            except ProtocolError:
                pass  # rejection is the expected outcome; hanging is the bug
