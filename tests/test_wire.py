"""The binary scatter wire format: framing, array codecs, versioning.

Covers the wire format at the unit level (frame layout round-trips, one
line cap and one error type for both frame readers, width-adaptive int
packing, protocol-3 array task/answer codecs keeping values, dtypes and
shapes and rejecting every inconsistent array answer, encode-once
scatter caching) and over live sockets (scatter riding binary frames,
protocol-1 and protocol-2 peers failing the handshake, a JSON-lines
scatter answered with a typed error, malformed/truncated frames answered
with one typed error — no hang, clean close — and malformed shard
replies failing the query typed without killing the front-end's reader
threads).
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro import ShardHandshakeMismatch, ShardUnavailable, connect
from repro.engine.parallel import _ScatterEncoder
from repro.core.kernels import describe_nodes, graph_kernel
from repro.errors import ShardProtocolError
from repro.graph.frozen import FrozenGraph
from repro.graph.graph import Graph
from repro.pattern import parse_pattern
from repro.pattern.predicates import Predicate
from repro.server import protocol
from repro.server.shardserver import ShardServer
from repro.util import arrays
from tests.conftest import plain

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

CHEAP = parse_pattern("m: movie; y: year; m -> y")

I64 = np.int64

TASKS = [
    ("probe", np.array([1, 2, 70000], dtype=I64), np.array([3, 4], dtype=I64)),
    ("fetch", 0, np.array([[5], [6], [2**40]], dtype=I64),
     Predicate.parse(">=3 & <=9")),
    ("edge", 1, np.array([[7, 8], [9, 10]], dtype=I64)),
    ("fetch", 2, np.empty((1, 0), dtype=I64), Predicate.parse('="x"')),
]

RESPONSES = [
    (3, np.array([[1, 3], [70000, 4]], dtype=I64)),              # probe
    (np.array([2, 0, 1], dtype=I64),                             # fetch
     np.array([11, 12, 2**40], dtype=I64),
     np.array([11, 2**40], dtype=I64),
     (["movie", "year"], np.array([2, 7], dtype=I64),
      np.array([7, 0], dtype=I64), [1.5])),
    (np.array([1, 0], dtype=I64), np.array([20], dtype=I64),    # edge
     np.array([0b1001], dtype=I64)),
    (np.array([0], dtype=I64), np.empty(0, dtype=I64),          # empty
     np.empty(0, dtype=I64), ([], np.empty(0, dtype=I64),
                              np.empty(0, dtype=I64), [])),
]
KINDS = ["probe", "fetch", "edge", "fetch"]
EXPECTED = [("probe", 0), ("fetch", 3), ("edge", 2), ("fetch", 1)]


def read_frame_bytes(data: bytes) -> protocol.Frame:
    return protocol.read_frame(io.BufferedReader(io.BytesIO(data)))


def read_frame_bytes_async(data: bytes) -> protocol.Frame:
    """:func:`protocol.read_frame_async` over a stream with the query
    server's line limit."""
    async def read():
        reader = asyncio.StreamReader(limit=protocol.MAX_LINE_BYTES)
        reader.feed_data(data)
        reader.feed_eof()
        return await protocol.read_frame_async(reader)
    return asyncio.run(read())


def json_line(size: int) -> bytes:
    """A newline-terminated JSON object line of exactly ``size`` bytes."""
    head, tail = b'{"pad":"', b'"}\n'
    return head + b"x" * (size - len(head) - len(tail)) + tail


# ------------------------------------------------------------- packing
class TestPackInts:
    def test_width_adapts_to_value_range(self):
        assert arrays.pack_ints([0, 255])[0] == "u1"
        assert arrays.pack_ints([0, 256])[0] == "u2"
        assert arrays.pack_ints([0, 0xFFFF])[0] == "u2"
        assert arrays.pack_ints([0, 0x10000])[0] == "i4"
        assert arrays.pack_ints([-1, 100])[0] == "i4"
        assert arrays.pack_ints([0, 2**31])[0] == "i8"
        assert arrays.pack_ints([-2**40])[0] == "i8"

    def test_roundtrip_all_widths(self):
        for values in ([0, 1, 255], [-5, 70000], [2**40, -2**40], []):
            code, raw = arrays.pack_ints(values)
            assert arrays.unpack_ints(code, raw).tolist() == values

    def test_flattens_matrices(self):
        code, raw = arrays.pack_ints([(1, 2), (3, 4)])
        assert arrays.unpack_ints(code, raw).tolist() == [1, 2, 3, 4]

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            arrays.unpack_ints("f8", b"\x00" * 8)


# ------------------------------------------------------------- framing
class TestFraming:
    def test_json_frame_roundtrip(self):
        data = protocol.encode({"op": "ping", "id": 3})
        frame = read_frame_bytes(data)
        assert frame == {"op": "ping", "id": 3}
        assert frame.binary is False
        assert frame.payloads == []
        assert frame.nbytes == len(data)

    def test_binary_frame_roundtrip(self):
        buffers = [b"\x01\x02\x03", b"", b"\xff" * 10]
        data = protocol.encode_binary({"op": "scatter", "id": 9}, buffers)
        frame = read_frame_bytes(data)
        assert frame == {"op": "scatter", "id": 9}
        assert frame.binary is True
        assert [bytes(view) for view in frame.payloads] == buffers
        assert frame.nbytes == len(data)

    def test_binary_magic_cannot_start_a_json_line(self):
        assert protocol.BINARY_MAGIC[0] == 0xAB  # never valid JSON/UTF-8

    def test_payload_reuse_across_headers(self):
        payload = protocol.encode_payload([b"shared"])
        frames = [protocol.binary_frame(
            json.dumps({"id": i}).encode(), payload) for i in (1, 2)]
        for i, data in zip((1, 2), frames):
            frame = read_frame_bytes(data)
            assert frame["id"] == i
            assert bytes(frame.payloads[0]) == b"shared"

    def test_eof_between_frames_is_eoferror(self):
        with pytest.raises(EOFError):
            read_frame_bytes(b"")

    def test_truncated_binary_body_is_eoferror(self):
        data = protocol.encode_binary({"id": 1}, [b"abcdef"])
        for cut in (3, len(data) - 1):
            with pytest.raises(EOFError):
                read_frame_bytes(data[:cut])

    def test_oversize_declared_frame_is_typed(self):
        head = struct.pack(">4sII", protocol.BINARY_MAGIC,
                           protocol.MAX_FRAME_BYTES, 1024)
        with pytest.raises(ShardProtocolError, match="exceeds"):
            read_frame_bytes(head)

    def test_garbage_header_json_is_typed(self):
        data = protocol.binary_frame(b"not json", protocol.encode_payload([]))
        with pytest.raises(ShardProtocolError, match="malformed"):
            read_frame_bytes(data)
        data = protocol.binary_frame(b"[1,2]", protocol.encode_payload([]))
        with pytest.raises(ShardProtocolError, match="JSON object"):
            read_frame_bytes(data)

    def test_corrupt_payload_section_is_typed(self):
        header = b'{"id":1}'
        # Declares one buffer of 100 bytes but supplies 3.
        bad = struct.pack(">II", 1, 100) + b"abc"
        with pytest.raises(ShardProtocolError, match="truncated"):
            read_frame_bytes(protocol.binary_frame(header, bad))
        # Trailing bytes past the declared buffers.
        good = protocol.encode_payload([b"ok"])
        with pytest.raises(ShardProtocolError, match="trailing"):
            read_frame_bytes(protocol.binary_frame(header, good + b"junk"))
        # Absurd buffer count.
        bomb = struct.pack(">I", protocol.MAX_PAYLOAD_BUFFERS + 1)
        with pytest.raises(ShardProtocolError, match="buffers"):
            read_frame_bytes(protocol.binary_frame(header, bomb))

    def test_overlong_json_line_is_typed(self):
        data = b'{"pad":"' + b"x" * protocol.MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ShardProtocolError, match="bytes"):
            read_frame_bytes(data)

    @pytest.mark.parametrize("read", [read_frame_bytes,
                                      read_frame_bytes_async],
                             ids=["sync", "async"])
    @pytest.mark.parametrize("line", ["max", "max+1", "max+2",
                                      "non-object"])
    def test_both_readers_share_the_line_cap_and_error(self, read, line):
        """Every overlong or malformed line is a ShardProtocolError in
        either reader; a line of exactly MAX_LINE_BYTES is accepted."""
        if line == "max":
            frame = read(json_line(protocol.MAX_LINE_BYTES))
            assert frame.nbytes == protocol.MAX_LINE_BYTES
            return
        if line == "non-object":
            data, match = b"[1]\n", "JSON object"
        else:
            extra = int(line[-1])
            data = json_line(protocol.MAX_LINE_BYTES + extra)
            match = "exceeds"
        with pytest.raises(ShardProtocolError, match=match):
            read(data)


# ---------------------------------------------------------- array codecs
def _roundtrip_responses(kinds, responses, expected):
    metas, buffers = protocol.encode_responses(kinds, responses)
    return protocol.decode_responses(
        json.loads(json.dumps(metas)), [memoryview(b) for b in buffers],
        expected)


def _fetch_response(lengths, values, found, info):
    return (np.array(lengths, dtype=I64), np.array(values, dtype=I64),
            np.array(found, dtype=I64), info)


class TestBinaryCodecs:
    """Protocol 3: tasks and answers are arrays on both ends; round
    trips keep every value, dtype and shape, and every shape the
    executor relies on is validated at decode."""

    def test_tasks_roundtrip_matches_json_codec(self):
        metas, buffers = protocol.encode_tasks(TASKS)
        views = [memoryview(buf) for buf in buffers]
        decoded = protocol.decode_tasks(json.loads(json.dumps(metas)), views)
        assert plain(decoded) == plain(TASKS)
        for task, sent in zip(decoded, TASKS):
            arrays_in = task[1:3] if task[0] == "probe" else task[2:3]
            for got, want in zip(arrays_in, (sent[1:3] if task[0] == "probe"
                                             else sent[2:3])):
                assert got.dtype == np.int64 and got.shape == want.shape
            if task[0] == "fetch":
                assert task[3] == sent[3]  # the predicate, rebuilt

    def test_responses_roundtrip_matches_json_codec(self):
        decoded = _roundtrip_responses(KINDS, RESPONSES, EXPECTED)
        assert plain(decoded) == plain(RESPONSES)
        checked, pairs = decoded[0]
        assert type(checked) is int and pairs.shape == (2, 2)
        for response in decoded[1:]:
            for part in response[:3]:
                assert part.dtype == np.int64 and part.ndim == 1

    def test_packed_fetch_info_roundtrip(self):
        """Node info packs as labels, tags and numbers; values outside
        the int and ``<label>_<n>`` forms ride in the meta. Decoding
        restores every node's exact label and value."""
        graph = Graph()
        values = ["movie_7", "movie_007", 1984, None, 1.5, True, 2**70,
                  "year_3"]
        labels = ["movie", "movie", "year", "award", "movie", "award",
                  "year", "movie"]
        ids = [graph.add_node(label, value=value)
               for label, value in zip(labels, values)]
        kernel = graph_kernel(FrozenGraph.from_graph(graph))
        found = np.array(sorted(ids), dtype=I64)
        response = _fetch_response([len(ids)], found, found,
                                   kernel.node_info(found))
        [decoded] = _roundtrip_responses(["fetch"], [response],
                                         [("fetch", 1)])
        got = describe_nodes([(decoded[2], decoded[3])], found)
        assert got == [(graph.label_of(v), graph.value_of(v))
                       for v in found.tolist()]
        assert [type(value) for _, value in got] == \
            [type(graph.value_of(v)) for v in found.tolist()]

    def test_fetch_info_misaligned_with_found_is_typed(self):
        info = (["movie"], np.array([1, 1], dtype=I64),
                np.array([3, 4], dtype=I64), [])
        bad = [
            _fetch_response([2], [5, 6], [5], info),        # 2 tags, 1 id
            _fetch_response([2], [5, 6], [5, 6],            # label index
                            (["movie"], np.array([1, 5], dtype=I64),
                             np.array([3, 4], dtype=I64), [])),
            _fetch_response([2], [5, 6], [5, 6],            # kind-3 count
                            (["movie"], np.array([3, 1], dtype=I64),
                             np.array([0, 4], dtype=I64), [])),
        ]
        # Extra tags or numbers show as buffer bytes no array accounts
        # for; a bad label index or kind-3 count fails the info check.
        for response in bad:
            with pytest.raises(ShardProtocolError, match="aligned|buffer"):
                _roundtrip_responses(["fetch"], [response], [("fetch", 1)])

    def test_lengths_that_do_not_sum_to_values_are_typed(self):
        response = _fetch_response([3], [5, 6], [], ([], np.empty(0, I64),
                                                     np.empty(0, I64), []))
        # The payload's size is implied by the lengths, so a lie shows as
        # a buffer that is too short or too long for its arrays.
        with pytest.raises(ShardProtocolError, match="buffer"):
            _roundtrip_responses(["fetch"], [response], [("fetch", 1)])
        edge = (np.array([1, 1], dtype=I64), np.array([20], dtype=I64),
                np.array([1], dtype=I64))
        with pytest.raises(ShardProtocolError, match="buffer"):
            _roundtrip_responses(["edge"], [edge], [("edge", 2)])
        # One length per combo of the task, no more, no fewer.
        ok = RESPONSES[1]
        with pytest.raises(ShardProtocolError):
            _roundtrip_responses(["fetch"], [ok], [("fetch", 2)])

    def test_found_not_a_subset_of_values_is_typed(self):
        empty_info = ([], np.empty(0, I64), np.empty(0, I64), [])
        info = (["movie"], np.array([1], dtype=I64),
                np.array([3], dtype=I64), [])
        with pytest.raises(ShardProtocolError, match="subset"):
            _roundtrip_responses(
                ["fetch"], [_fetch_response([2], [5, 6], [7], info)],
                [("fetch", 1)])
        two = (["movie"], np.array([1, 1], dtype=I64),
               np.array([3, 4], dtype=I64), [])
        with pytest.raises(ShardProtocolError, match="subset"):
            _roundtrip_responses(  # unsorted
                ["fetch"], [_fetch_response([2], [5, 6], [6, 5], two)],
                [("fetch", 1)])
        assert _roundtrip_responses(
            ["fetch"], [_fetch_response([2], [5, 6], [], empty_info)],
            [("fetch", 1)])[0][2].size == 0

    def test_kind_mismatch_is_typed(self):
        metas, buffers = protocol.encode_responses(["probe"],
                                                   [RESPONSES[0]])
        with pytest.raises(ShardProtocolError, match="expected"):
            protocol.decode_responses(metas, buffers, [("fetch", 1)])

    def test_size_lies_are_typed(self):
        metas, buffers = protocol.encode_tasks(
            [("fetch", 0, np.array([[1, 2], [3, 4]], dtype=I64),
              Predicate.parse(">1"))])
        metas[0][2] = 7  # claim 7 combos; the buffer holds 2x2 ints
        with pytest.raises(ShardProtocolError, match="expected 7x2"):
            protocol.decode_tasks(metas, buffers)
        metas[0][2], metas[0][3] = 1, 3  # 1x3 is not 4 ints either
        with pytest.raises(ShardProtocolError, match="expected 1x3"):
            protocol.decode_tasks(metas, buffers)
        metas[0][2:4] = [2, 2]
        metas[0][5] = [["~", 1]]  # no such operator
        with pytest.raises(ShardProtocolError):
            protocol.decode_tasks(metas, buffers)
        probe = protocol.encode_responses(
            ["probe"], [(1, np.array([1, 2, 3], dtype=I64))])
        with pytest.raises(ShardProtocolError, match="pair"):
            protocol.decode_responses(*probe, [("probe", 0)])

    def test_missing_buffer_reference_is_typed(self):
        with pytest.raises(ShardProtocolError):
            protocol.decode_tasks([["probe", ["i8", 5], ["i8", 6]]], [])
        with pytest.raises(ShardProtocolError):
            protocol.decode_responses([["edge", ["i8", 0]]], [],
                                      [("edge", 1)])

    def test_inexact_predicate_constant_is_refused(self):
        with pytest.raises(ShardProtocolError, match="wire form"):
            protocol.encode_tasks([("fetch", 0, np.empty((1, 0), dtype=I64),
                                    Predicate.of(("=", (1, 2))))])


# ------------------------------------------------------ encode-once cache
class TestScatterEncoder:
    def test_heavy_parts_encoded_once_per_key(self):
        encoder = _ScatterEncoder(TASKS)
        key = (0, 1, 2, 3)
        assert encoder._binary_parts(key) is encoder._binary_parts(key)

    def test_spliced_frames_decode_per_codec(self):
        encoder = _ScatterEncoder(TASKS)
        key = (1, 3)
        expected = [TASKS[i] for i in key]
        for shard_id in (0, 1):
            envelope = {"id": shard_id + 1, "op": "scatter"}
            frame = read_frame_bytes(encoder.encode(key, dict(envelope)))
            assert frame["id"] == shard_id + 1 and frame.binary
            assert plain(protocol.decode_tasks(
                frame["tasks_meta"], frame.payloads)) == plain(expected)


# ------------------------------------------------------------ live sockets
@pytest.fixture(scope="module")
def artifact(tmp_path_factory, imdb_small):
    graph, schema = imdb_small
    path = tmp_path_factory.mktemp("wire") / "artifact"
    with connect((graph, schema)) as engine:
        engine.prepare(CHEAP)
        engine.save(path, shards=2)
    return path


def answers(engine):
    run = engine.query(CHEAP)
    return sorted(tuple(sorted(m.items())) for m in run.answer)


class TestLiveNegotiation:
    """What the hello handshake and a scatter round put on the wire."""

    def _call(self, server, doc: dict) -> dict:
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(protocol.encode(doc))
            return protocol.decode(sock.makefile("rb").readline())

    def test_auto_negotiates_binary_and_counts_bytes(self, artifact):
        """A default session's scatter rides binary frames, answers
        intact, and every byte is counted on both ends."""
        with connect(artifact, strategy="scatter") as inline:
            expected = answers(inline)
        servers = [ShardServer(artifact / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            with connect(artifact, backend="remote",
                         shard_addrs=[s.address for s in servers]) as remote:
                assert answers(remote) == expected
                stats = remote._shards.wire_stats()
                assert all(s["bytes_sent"] > 0 and s["bytes_received"] > 0
                           for s in stats)
                # Response decode is timed on the reader threads, next
                # to the keys benchmarks already read.
                assert all(s["decode_ms"] > 0 and s["encode_ms"] > 0
                           for s in stats)
                assert {"shard_id", "addr", "bytes_sent", "bytes_received",
                        "encode_ms", "decode_ms", "inflight",
                        "inflight_peak"} == set(stats[0])
            assert any(s.binary_frames_received > 0 for s in servers)
        finally:
            for server in servers:
                server.stop()

    def test_protocol_1_hello_is_a_handshake_mismatch(self, artifact):
        """A peer from before the binary-only scatter fails the hello
        instead of sending a JSON scatter later."""
        server = ShardServer(artifact / "shard-0000").start()
        try:
            response = self._call(server, {"id": 1, "op": "hello",
                                           "protocol": 1})
        finally:
            server.stop()
        assert response["ok"] is False
        assert response["error"] == "ShardHandshakeMismatch"
        assert response["found"] == 1
        assert response["expected"] == protocol.PROTOCOL_VERSION == 3
        with pytest.raises(ShardHandshakeMismatch):
            protocol.raise_error(response)

    def test_protocol_2_hello_is_a_handshake_mismatch(self, artifact):
        """A front-end from before array scatter (list/tuple tasks,
        front-end predicates) fails the hello, whichever side is old."""
        server = ShardServer(artifact / "shard-0000").start()
        try:
            response = self._call(server, {"id": 1, "op": "hello",
                                           "protocol": 2})
        finally:
            server.stop()
        assert response["ok"] is False
        assert response["error"] == "ShardHandshakeMismatch"
        assert (response["found"], response["expected"]) == (2, 3)

        from tests.test_remote import fake_shard_server, hello_fields_for
        hello = {**hello_fields_for(artifact, 0), "protocol": 2}

        def old_shard(conn):
            try:
                reader = conn.makefile("rb")
                doc = protocol.read_frame(reader)
                conn.sendall(protocol.encode({"id": doc.get("id"),
                                              "ok": True, **hello}))
                reader.read()
            except (OSError, EOFError, ValueError):
                pass
            conn.close()

        addr, close = fake_shard_server(old_shard)
        try:
            with pytest.raises(ShardHandshakeMismatch, match="protocol"):
                connect(artifact, backend="remote", shard_addrs=[addr, addr],
                        retries=0, connect_timeout=2.0)
        finally:
            close()

    def test_json_lines_scatter_is_a_typed_protocol_error(self, artifact):
        server = ShardServer(artifact / "shard-0000").start()
        try:
            response = self._call(server, {
                "id": 2, "op": "scatter",
                "tasks": [["probe", [1, 2], [3]]]})
            assert server.tasks_handled == 0
        finally:
            server.stop()
        assert response["ok"] is False
        assert response["id"] == 2
        assert response["error"] == "ShardProtocolError"
        assert "tasks_meta" in response["message"]


class TestLiveMalformedFrames:
    def _exchange(self, server, data: bytes) -> dict:
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(data)
            reader = sock.makefile("rb")
            response = protocol.decode(reader.readline())
            assert reader.readline() == b""  # server hung up
        return response

    def test_bad_payload_section_typed_then_closed(self, artifact):
        server = ShardServer(artifact / "shard-0000").start()
        try:
            bad = protocol.binary_frame(
                b'{"op":"ping"}', struct.pack(">II", 1, 999) + b"short")
            response = self._exchange(server, bad)
            assert response["ok"] is False
            assert response["error"] == "ShardProtocolError"
        finally:
            server.stop()

    def test_oversize_binary_frame_typed_then_closed(self, artifact):
        server = ShardServer(artifact / "shard-0000").start()
        try:
            head = struct.pack(">4sII", protocol.BINARY_MAGIC,
                               protocol.MAX_FRAME_BYTES, 64)
            response = self._exchange(server, head)
            assert response["ok"] is False
            assert response["error"] == "ShardProtocolError"
            assert "exceeds" in response["message"]
        finally:
            server.stop()

    def test_truncated_binary_frame_no_hang(self, artifact):
        """A client that dies mid-binary-frame must not wedge the
        handler; the server treats it as a clean EOF."""
        servers = [ShardServer(artifact / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            data = protocol.encode_binary({"op": "ping"}, [b"abcdef"])
            with socket.create_connection((servers[0].host,
                                           servers[0].port),
                                          timeout=10) as sock:
                sock.sendall(data[:len(data) - 2])
            # The connection above closed mid-frame; the server must
            # still answer fresh connections promptly.
            with connect(artifact, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         connect_timeout=5.0) as remote:
                assert remote.query(CHEAP).answer is not None
        finally:
            for server in servers:
                server.stop()

    def test_client_wraps_protocol_error_with_addr(self, artifact):
        """A shard speaking garbage binary framing surfaces to the
        front-end as a typed error naming the shard, not a hang."""
        def handler(conn):
            try:
                reader = conn.makefile("rb")
                while True:
                    protocol.read_frame(reader)
                    conn.sendall(protocol.binary_frame(
                        b"not json", protocol.encode_payload([])))
            except (OSError, EOFError, ShardProtocolError):
                conn.close()

        from tests.test_remote import fake_shard_server
        addr, close = fake_shard_server(handler)
        try:
            with pytest.raises((ShardProtocolError, ShardUnavailable)):
                connect(artifact, backend="remote",
                        shard_addrs=[addr, addr], retries=0,
                        connect_timeout=2.0)
        finally:
            close()

    def test_non_object_scatter_reply_is_typed(self, artifact,
                                               monkeypatch):
        """Shards that handshake truthfully and then answer a scatter
        with a well-framed line that is not a JSON object fail the query
        with ShardProtocolError; the front-end's reader threads exit
        cleanly instead of dying on an uncaught exception."""
        from tests.test_remote import (
            fake_shard_server,
            hello_fields_for,
            make_scripted_handler,
        )

        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        fakes = [fake_shard_server(make_scripted_handler(
            hello_fields_for(artifact, shard_id), b"[1]\n"))
            for shard_id in range(2)]
        try:
            with connect(artifact, backend="remote",
                         shard_addrs=[addr for addr, _ in fakes],
                         retries=0, connect_timeout=2.0) as remote:
                with pytest.raises(ShardProtocolError,
                                   match="JSON object") as err:
                    remote.query(CHEAP)
                assert err.value.addr in [addr for addr, _ in fakes]
                for conn in remote._shards._conns.values():
                    if conn.reader is not None:
                        conn.reader.join(timeout=5)
        finally:
            for _, close in fakes:
                close()
        assert uncaught == []

    @pytest.mark.parametrize("lie", ["lengths", "subset", "info"])
    def test_malformed_array_answer_is_typed(self, artifact, monkeypatch,
                                             lie):
        """Shards that handshake truthfully and answer a scatter with a
        well-framed but inconsistent array response fail the query with
        ShardProtocolError; no reader thread dies uncaught."""
        from tests.test_remote import fake_shard_server, hello_fields_for

        def answer(kind, combos):
            lengths = [2] + [0] * (combos - 1) if combos else []
            if kind == "probe":
                return (0, np.empty((0, 2), dtype=I64))
            if kind == "edge":
                return (np.array(lengths, dtype=I64),
                        np.array([5, 6], dtype=I64),
                        np.array([0], dtype=I64))  # one mask, two entries
            values, found = [5, 6], [5]
            tags = [1]
            if lie == "lengths":
                values = [5, 6, 7]
            elif lie == "subset":
                found = [9]
            else:
                tags = [1, 1]
            return _fetch_response(lengths, values, found,
                                   (["movie"], np.array(tags, dtype=I64),
                                    np.zeros(len(tags), dtype=I64), []))

        def handler_for(hello):
            def handler(conn):
                try:
                    reader = conn.makefile("rb")
                    while True:
                        doc = protocol.read_frame(reader)
                        if doc.get("op") == "hello":
                            conn.sendall(protocol.encode(
                                {"id": doc.get("id"), "ok": True, **hello}))
                            continue
                        tasks = protocol.decode_tasks(doc["tasks_meta"],
                                                      doc.payloads)
                        kinds = [task[0] for task in tasks]
                        metas, buffers = protocol.encode_responses(
                            kinds, [answer(task[0], 0 if task[0] == "probe"
                                           else len(task[2]))
                                    for task in tasks])
                        conn.sendall(protocol.encode_binary(
                            {"id": doc.get("id"), "ok": True,
                             "responses_meta": metas}, buffers))
                except (OSError, EOFError, ValueError, ShardProtocolError):
                    conn.close()
            return handler

        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        fakes = [fake_shard_server(handler_for(
            hello_fields_for(artifact, shard_id))) for shard_id in range(2)]
        try:
            with connect(artifact, backend="remote",
                         shard_addrs=[addr for addr, _ in fakes],
                         retries=0, connect_timeout=2.0) as remote:
                with pytest.raises(ShardProtocolError) as err:
                    remote.query(CHEAP)
                assert err.value.addr in [addr for addr, _ in fakes]
        finally:
            for _, close in fakes:
                close()
        assert uncaught == []
