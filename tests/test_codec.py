"""Tests for the codec core (repro.net.codec).

The load-bearing property: the JSON and binary codecs carry the *same*
value domain, and for any value in that domain both round-trip it to an
equal value — so a payload produced by any layer (wire, WAL, scans)
survives either medium, which is what lets nodes pinned to different
codecs share a deployment and a WAL replay records of both.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import (
    BINARY_CODEC,
    CODEC_BINARY,
    CODEC_JSON,
    JSON_CODEC,
    PostingList,
    codec_by_id,
    codec_by_name,
    new_buffer,
    read_str,
    read_uvarint,
    read_varint,
    write_str,
    write_uvarint,
    write_varint,
)
from repro.net.errors import ProtocolError

CODECS = [JSON_CODEC, BINARY_CODEC]


def encode(codec, value) -> bytes:
    buffer = bytearray()
    codec.encode_into(buffer, value)
    return bytes(buffer)


def roundtrip(codec, value):
    return codec.decode(encode(codec, value))


# -- hypothesis strategies --------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

hashables = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=4),
    ),
    max_leaves=8,
)

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
        st.dictionaries(st.text(max_size=10), inner, max_size=5),
        st.dictionaries(hashables, inner, max_size=4),
    ),
    max_leaves=20,
)

posting_rows = st.lists(
    st.tuples(
        st.frozensets(st.text(max_size=12), min_size=1, max_size=5),
        st.lists(st.text(max_size=16), max_size=5).map(tuple),
    ),
    max_size=6,
).map(PostingList)


class TestRoundTripProperties:
    @settings(max_examples=300)
    @given(values)
    def test_both_codecs_roundtrip(self, value):
        for codec in CODECS:
            assert roundtrip(codec, value) == value

    @settings(max_examples=300)
    @given(values)
    def test_cross_codec_equality(self, value):
        """What one codec carries, the other carries — to an equal value."""
        assert roundtrip(JSON_CODEC, value) == roundtrip(BINARY_CODEC, value)

    @given(st.integers())
    def test_signed_varint_roundtrip(self, value):
        buffer = bytearray()
        write_varint(buffer, value)
        decoded, position = read_varint(buffer, 0)
        assert decoded == value
        assert position == len(buffer)

    @given(st.integers(min_value=0))
    def test_unsigned_varint_roundtrip(self, value):
        buffer = bytearray()
        write_uvarint(buffer, value)
        decoded, position = read_uvarint(buffer, 0)
        assert decoded == value
        assert position == len(buffer)

    @given(st.text(max_size=64))
    def test_raw_string_roundtrip(self, value):
        buffer = bytearray()
        write_str(buffer, value)
        decoded, position = read_str(memoryview(buffer), 0)
        assert decoded == value
        assert position == len(buffer)

    @given(posting_rows)
    def test_posting_list_roundtrip(self, rows):
        decoded = roundtrip(BINARY_CODEC, rows)
        assert type(decoded) is PostingList
        assert decoded == rows
        # The JSON codec sees the same rows as generic nested values.
        assert roundtrip(JSON_CODEC, rows) == list(rows)

    @settings(max_examples=100)
    @given(values)
    def test_encode_determinism(self, value):
        """Same value, same bytes — within a codec (sets are sorted)."""
        for codec in CODECS:
            assert encode(codec, value) == encode(codec, value)


class TestValueDomain:
    def test_type_fidelity(self):
        """tuple/set/frozenset/int-keyed-dict survive both codecs *as
        their own types* — the whole point of the tagged encodings."""
        value = {
            "t": (1, 2),
            "s": {"a", "b"},
            "f": frozenset({3}),
            "d": {7: "seven", (1, 2): "pair"},
        }
        for codec in CODECS:
            decoded = roundtrip(codec, value)
            assert decoded == value
            assert type(decoded["t"]) is tuple
            assert type(decoded["s"]) is set
            assert type(decoded["f"]) is frozenset

    def test_plain_list_does_not_become_posting_list(self):
        rows = [(frozenset({"k"}), ("o",))]
        decoded = roundtrip(BINARY_CODEC, rows)
        assert decoded == rows
        assert type(decoded) is list

    def test_varint_magnitude_edges(self):
        for value in (0, -1, 1, 63, 64, 127, 128, -128, 2**63, -(2**63), 2**200, -(2**200)):
            for codec in CODECS:
                assert roundtrip(codec, value) == value

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected_by_both(self, bad):
        for codec in CODECS:
            with pytest.raises(ProtocolError):
                encode(codec, bad)

    def test_unencodable_rejected_by_both(self):
        for codec in CODECS:
            with pytest.raises(ProtocolError):
                encode(codec, object())


class TestBinaryMalformed:
    def test_trailing_bytes_rejected(self):
        data = encode(BINARY_CODEC, {"a": 1}) + b"\x00"
        with pytest.raises(ProtocolError, match="trailing"):
            BINARY_CODEC.decode(data)

    def test_unknown_type_byte(self):
        with pytest.raises(ProtocolError, match="type byte"):
            BINARY_CODEC.decode(b"\xff")

    def test_truncated_string(self):
        data = bytearray(encode(BINARY_CODEC, "hello world"))
        with pytest.raises(ProtocolError):
            BINARY_CODEC.decode(bytes(data[:-3]))

    def test_truncated_container(self):
        data = encode(BINARY_CODEC, [1, 2, 3])
        with pytest.raises(ProtocolError):
            BINARY_CODEC.decode(data[:-1])

    def test_empty_input(self):
        with pytest.raises(ProtocolError):
            BINARY_CODEC.decode(b"")


class TestRegistry:
    def test_by_id(self):
        assert codec_by_id(CODEC_JSON) is JSON_CODEC
        assert codec_by_id(CODEC_BINARY) is BINARY_CODEC
        with pytest.raises(ProtocolError):
            codec_by_id(99)

    def test_by_name(self):
        assert codec_by_name("json") is JSON_CODEC
        assert codec_by_name("binary") is BINARY_CODEC
        assert codec_by_name(BINARY_CODEC) is BINARY_CODEC
        with pytest.raises(ValueError):
            codec_by_name("msgpack")

    def test_new_buffer_is_reused_and_emptied(self):
        first = new_buffer()
        first += b"leftovers"
        second = new_buffer()
        assert second is first
        assert len(second) == 0
