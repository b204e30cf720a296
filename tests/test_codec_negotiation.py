"""Mixed-codec interoperability (docs/protocol.md §18).

Each node writes every frame in its own codec from the first frame on a
connection, and reads either version by the frame's version byte, so a
JSON-pinned node and binary nodes share one deployment with no
handshake and no per-connection state.  The acceptance bar is exact
result parity: a superset search answered across a JSON-v1 × binary-v2
boundary returns the same results as a homogeneous deployment.  The
WAL side of the same story: a data directory written under one codec
recovers under the other.
"""

import struct
import threading

import pytest

import repro.net.aio
from repro.core.config import ServiceConfig
from repro.net.aio import AsyncioTransport
from repro.net.codec import CODEC_BINARY
from repro.net.wire import Frame, FrameType, encode_frame
from repro.net.node import NodeDaemon, cluster_addresses
from repro.store.file import FileStore
from repro.store.wal import decode_records

CORPUS = [
    ("paper.pdf", {"dht", "search", "p2p"}),
    ("slides.ppt", {"dht", "search"}),
    ("notes.txt", {"p2p", "overlay"}),
    ("code.tar", {"dht", "overlay", "chord"}),
    ("data.csv", {"search"}),
    ("thesis.pdf", {"dht", "p2p", "overlay", "search"}),
]

QUERIES = [{"dht"}, {"search"}, {"p2p"}, {"dht", "search"}, {"nosuch"}]


def echo_handler(message):
    return {"echo": message.payload, "kind": message.kind}


class TestTransportNegotiation:
    def paired(self, codec_a: str, codec_b: str):
        """Two single-address transports cross-dialling each other."""
        a = AsyncioTransport(rpc_timeout=5.0, serve_addresses={1}, codec=codec_a)
        b = AsyncioTransport(rpc_timeout=5.0, serve_addresses={2}, codec=codec_b)
        a.register(1, echo_handler)
        b.register(2, echo_handler)
        a.register(2, echo_handler)  # shadow: routing table entry
        b.register(1, echo_handler)
        a.peers[2] = b.endpoints[2]
        b.peers[1] = a.endpoints[1]
        return a, b

    PAYLOAD = {"keywords": frozenset({"dht", "p2p"}), "rows": [(1, "a"), (2, "b")]}

    @pytest.mark.parametrize(
        "codec_a,codec_b",
        [("binary", "binary"), ("json", "binary"), ("binary", "json"), ("json", "json")],
    )
    def test_rpc_parity_across_any_codec_pairing(self, codec_a, codec_b):
        a, b = self.paired(codec_a, codec_b)
        try:
            expected = {"echo": self.PAYLOAD, "kind": "test.echo"}
            assert a.rpc(1, 2, "test.echo", self.PAYLOAD) == expected
            assert b.rpc(2, 1, "test.echo", self.PAYLOAD) == expected
        finally:
            a.close()
            b.close()

    def test_binary_pair_sends_fewer_bytes_than_json_pair(self):
        """Identical traffic, strictly fewer bytes on the binary pair."""
        totals = {}
        for codec in ("binary", "json"):
            a, b = self.paired(codec, codec)
            try:
                for _ in range(10):
                    a.rpc(1, 2, "test.echo", self.PAYLOAD)
                totals[codec] = a.metrics.counter("net.bytes_sent")
            finally:
                a.close()
                b.close()
        assert totals["binary"] < totals["json"]

    def test_first_rpc_on_a_fresh_connection_is_binary_both_ways(self):
        """The opening request is already a v2 frame: one echo between
        two fresh binary transports costs exactly its two binary frames."""
        a, b = self.paired("binary", "binary")
        try:
            reply = a.rpc(1, 2, "test.echo", self.PAYLOAD)
            sent = a.metrics.counter("net.bytes_sent") + b.metrics.counter("net.bytes_sent")
        finally:
            a.close()
            b.close()
        request_id = 1  # a fresh transport numbers its first request 1
        request = Frame(FrameType.REQUEST, "test.echo", 1, 2, request_id, self.PAYLOAD)
        answer = Frame(FrameType.REPLY, "test.echo", 2, 1, request_id, reply)
        assert sent == len(encode_frame(request, codec=CODEC_BINARY)) + len(
            encode_frame(answer, codec=CODEC_BINARY)
        )

    def test_each_side_writes_its_own_codec(self, monkeypatch):
        """Binary node 1 and JSON-pinned node 2 call each other: every
        frame node 1 writes (its requests and its replies) is v2, every
        frame node 2 writes is v1, and both sides read what they get."""
        written = []
        real_encode = repro.net.aio.encode_frame

        def spy(frame, **options):
            data = real_encode(frame, **options)
            written.append((frame.src, frame.type, data[4]))
            return data

        monkeypatch.setattr(repro.net.aio, "encode_frame", spy)
        a, b = self.paired("binary", "json")
        try:
            for i in range(3):
                assert a.rpc(1, 2, "test.echo", {"i": i})["echo"] == {"i": i}
                assert b.rpc(2, 1, "test.echo", {"i": i})["echo"] == {"i": i}
        finally:
            a.close()
            b.close()
        assert {(src, frame_type) for src, frame_type, _ in written} == {
            (1, FrameType.REQUEST), (2, FrameType.REPLY),
            (2, FrameType.REQUEST), (1, FrameType.REPLY),
        }
        assert {(src, version) for src, _, version in written} == {(1, 2), (2, 1)}


class TestMixedDeploymentParity:
    def run_deployment(self, codecs: dict[int, str]) -> dict:
        """Spin one daemon per address (codec per ``codecs``), publish
        the corpus at the first, search from every daemon."""
        base = ServiceConfig(dimension=6, num_dht_nodes=4, seed=7)
        addresses = cluster_addresses(base)
        daemons = {
            address: NodeDaemon(
                ServiceConfig(
                    dimension=6, num_dht_nodes=4, seed=7,
                    codec=codecs.get(address, "binary"),
                ),
                address,
            )
            for address in addresses
        }
        try:
            for address, daemon in daemons.items():
                for other, peer in daemons.items():
                    if other != address:
                        daemon.transport.peers[other] = peer.endpoint
            publisher = daemons[addresses[0]]
            for object_id, keywords in CORPUS:
                publisher.service.publish(object_id, keywords, holder=addresses[0])
            outcomes = {}
            for address, daemon in daemons.items():
                for i, query in enumerate(QUERIES):
                    result = daemon.service.superset_search(query, origin=address)
                    outcomes[(address, i)] = result.results()
            return outcomes
        finally:
            for daemon in daemons.values():
                daemon.close()

    def test_superset_search_parity_json_x_binary(self):
        """Half the deployment pinned to JSON v1, half binary v2: every
        (origin, query) answer matches the all-binary deployment."""
        base = ServiceConfig(dimension=6, num_dht_nodes=4, seed=7)
        addresses = cluster_addresses(base)
        mixed_codecs = {
            address: ("json" if i % 2 == 0 else "binary")
            for i, address in enumerate(addresses)
        }
        homogeneous = self.run_deployment({})
        mixed = self.run_deployment(mixed_codecs)
        assert mixed == homogeneous
        assert any(results for results in homogeneous.values())  # non-vacuous
        assert not any(
            thread.name.startswith("repro-net") for thread in threading.enumerate()
        )


class TestWalCodecInterop:
    def seed_store(self, path, codec: str) -> None:
        store = FileStore(path, codec=codec)
        store.recover()
        store.record_put("default", 3, ("dht", "search"), "paper.pdf")
        store.record_put("default", 5, ("p2p",), "notes.txt")
        store.record_ref_put("paper.pdf", 42)
        store.close()

    def test_json_directory_reopens_under_binary(self, tmp_path):
        self.seed_store(tmp_path, "json")
        store = FileStore(tmp_path, codec="binary")
        state = store.recover()
        assert state.wal_records == 3
        assert not state.truncated
        # New appends go out binary into the same WAL file...
        store.record_put("default", 3, ("overlay",), "late.pdf")
        store.close()
        # ...and a third open replays the mixed file completely.
        reopened = FileStore(tmp_path, codec="binary")
        state = reopened.recover()
        assert state.wal_records == 4
        assert {"paper.pdf", "notes.txt", "late.pdf"} <= {
            object_id
            for table in state.tables.values()
            for object_ids in table.values()
            for object_id in object_ids
        }
        reopened.close()

    def test_binary_directory_reopens_under_json(self, tmp_path):
        self.seed_store(tmp_path, "binary")
        store = FileStore(tmp_path, codec="json")
        state = store.recover()
        assert state.wal_records == 3
        assert not state.truncated
        store.close()

    def test_mixed_wal_file_really_is_mixed(self, tmp_path):
        """The interop above must not come from silent transcoding: the
        bytes on disk hold v1 records next to v2 records."""
        self.seed_store(tmp_path, "json")
        store = FileStore(tmp_path, codec="binary")
        store.recover()
        store.record_put("default", 3, ("overlay",), "late.pdf")
        store.close()
        data = (tmp_path / "wal.log").read_bytes()
        decoded = decode_records(data)
        assert len(decoded.records) == 4
        assert not decoded.truncated
        # Version bytes live right after each record's 8-byte frame
        # header (length + crc): both 1 (JSON) and 2 (binary) present.
        versions = []
        position = 0
        while position < len(data):
            (length,) = struct.unpack_from("!I", data, position)
            versions.append(data[position + 8])
            position += 8 + length
        assert 1 in versions and 2 in versions
