"""Malformed-frame regression matrix over both wires.

Pins the PR 9 validation fixes:

* ``decode_frame`` treats ``segment_bits`` as untrusted — non-list,
  non-int, bool, and negative counts, and counts inconsistent with the
  header's ``n_bits``, all raise typed :class:`ProtocolError` instead
  of escaping as raw ``ValueError``;
* ``encode_frame`` recognizes a flat Python list of scalar bits as ONE
  logical array, not a run of one-bit segments;
* a metadata-level frame violation (the frame was consumed in full)
  is answered with ``{"code": "protocol"}`` and the connection
  **survives** — only header corruption, where framing is lost,
  closes the connection;
* negative readout offsets/limits answer ``{"code": "query"}`` on
  both wires and the connection survives;
* untrusted JSON never escapes as a raw exception: a JSON-lines
  request that is valid JSON but not an object, and nesting deep
  enough to exhaust the parser on either wire, answer
  ``{"code": "protocol"}`` and the connection survives;
* Hypothesis fuzzes both decoders: random bytes and mutated valid
  REPB frames raise only :class:`ProtocolError`, and random JSON
  values sent as request lines get typed error replies on a
  connection that keeps serving.
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.service import BitwiseService, serve_tcp
from repro.service import wire
from tests.service.test_wire import _BinaryClient, _JsonClient

N_BITS = 512

pytestmark = pytest.mark.timeout(60)


@pytest.fixture
def service(rng):
    svc = BitwiseService(n_bits=N_BITS, n_shards=2)
    for name in ("a", "b"):
        svc.create_column(
            name, (rng.random(N_BITS) < 0.5).astype(np.uint8))
    yield svc
    svc.close()


@pytest.fixture
def server(service):
    srv = serve_tcp(service, 0, batch_window_s=0.002)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _raw_frame(meta: dict, payload: bytes, n_bits: int) -> bytes:
    """Hand-craft a frame with a *valid* header but arbitrary meta."""
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode()
    header = wire.HEADER.pack(wire.MAGIC, wire.VERSION,
                              wire.KIND_REQUEST, 0, n_bits,
                              len(meta_bytes), len(payload) // 8)
    return header + meta_bytes + payload


# ----------------------------------------------------------------------
# codec level
# ----------------------------------------------------------------------
class TestSegmentBitsValidation:
    def _decode(self, meta: dict, payload: bytes, n_bits: int):
        frame = _raw_frame(meta, payload, n_bits)
        header = wire.decode_header(frame[:wire.HEADER_SIZE])
        rest = frame[wire.HEADER_SIZE:]
        return wire.decode_frame(header, rest[:header.meta_len],
                                 rest[header.meta_len:])

    @pytest.mark.parametrize("counts", [
        ["oops"],          # non-int count
        [None],            # null count
        [True],            # bool is not an integer count
        [64.0],            # float count
        [[64]],            # nested list
    ])
    def test_non_int_count_is_typed_error(self, counts):
        with pytest.raises(ProtocolError, match="integer"):
            self._decode({"segment_bits": counts}, b"\x00" * 8, 64)

    def test_negative_count_is_typed_error(self):
        with pytest.raises(ProtocolError, match="negative"):
            self._decode({"segment_bits": [-64]}, b"\x00" * 8, 64)

    @pytest.mark.parametrize("segments", ["64", {"n": 64}, 64])
    def test_non_list_segments_is_typed_error(self, segments):
        with pytest.raises(ProtocolError, match="list"):
            self._decode({"segment_bits": segments}, b"\x00" * 8, 64)

    def test_counts_must_sum_to_header_n_bits(self):
        with pytest.raises(ProtocolError, match="sum"):
            self._decode({"segment_bits": [32, 16]}, b"\x00" * 16, 64)

    def test_tampered_header_n_bits_is_typed_error(self):
        # Header claims more bits than the payload words can hold.
        with pytest.raises(ProtocolError, match="header claims"):
            self._decode({}, b"\x00" * 8, 128)

    def test_consistent_segments_still_decode(self, rng):
        segments = [rng.integers(0, 2, width, dtype=np.uint8)
                    for width in (65, 64)]
        frame = wire.encode_frame(wire.KIND_REQUEST, {}, segments)
        header = wire.decode_header(frame[:wire.HEADER_SIZE])
        rest = frame[wire.HEADER_SIZE:]
        _, bits = wire.decode_frame(header, rest[:header.meta_len],
                                    rest[header.meta_len:])
        assert len(bits) == 2
        for got, want in zip(bits, segments):
            assert np.array_equal(got, want)


class TestFlatListEncoding:
    def test_flat_scalar_list_is_one_segment(self):
        """Regression: ``[1, 0, 1, 1]`` used to encode as four one-bit
        segments; it must be a single 4-bit payload."""
        frame = wire.encode_frame(wire.KIND_REQUEST,
                                  {"op": "x"}, [1, 0, 1, 1])
        header = wire.decode_header(frame[:wire.HEADER_SIZE])
        assert header.n_bits == 4
        rest = frame[wire.HEADER_SIZE:]
        meta, bits = wire.decode_frame(header, rest[:header.meta_len],
                                       rest[header.meta_len:])
        assert "segment_bits" not in meta
        assert isinstance(bits, np.ndarray)
        assert np.array_equal(bits, [1, 0, 1, 1])

    def test_numpy_scalar_list_is_one_segment(self):
        values = [np.uint8(1), np.uint8(1), np.uint8(0)]
        frame = wire.encode_frame(wire.KIND_REQUEST, {}, values)
        header = wire.decode_header(frame[:wire.HEADER_SIZE])
        assert header.n_bits == 3

    def test_array_list_still_multi_segment(self, rng):
        segments = [rng.integers(0, 2, 64, dtype=np.uint8)
                    for _ in range(3)]
        frame = wire.encode_frame(wire.KIND_REQUEST, {}, segments)
        header = wire.decode_header(frame[:wire.HEADER_SIZE])
        assert header.n_bits == 192
        rest = frame[wire.HEADER_SIZE:]
        _, bits = wire.decode_frame(header, rest[:header.meta_len],
                                    rest[header.meta_len:])
        assert isinstance(bits, list) and len(bits) == 3


# ----------------------------------------------------------------------
# server level: the connection must survive
# ----------------------------------------------------------------------
class TestMalformedFrameMatrix:
    def _send_raw(self, client, meta, payload, n_bits):
        client.sock.sendall(_raw_frame(meta, payload, n_bits))
        response, _ = client.read_frame()
        return response

    @pytest.mark.parametrize("meta,payload,n_bits", [
        ({"op": "bits", "segment_bits": ["oops"]}, b"\x00" * 8, 64),
        ({"op": "bits", "segment_bits": [-64]}, b"\x00" * 8, 64),
        ({"op": "bits", "segment_bits": "64"}, b"\x00" * 8, 64),
        ({"op": "bits", "segment_bits": [True]}, b"\x00" * 8, 64),
        ({"op": "bits", "segment_bits": [32, 16]}, b"\x00" * 16, 64),
        ({"op": "bits"}, b"\x00" * 8, 128),  # tampered n_bits
    ])
    def test_bad_frame_reports_protocol_and_survives(
            self, server, meta, payload, n_bits):
        client = _BinaryClient(server.server_address[1])
        try:
            response = self._send_raw(client, meta, payload, n_bits)
            assert not response["ok"]
            assert response["code"] == "protocol"
            # The frame was consumed in full: the connection survives.
            follow_up = client.call({"op": "query", "expr": "a & b"})
            assert follow_up["ok"]
        finally:
            client.close()

    def test_header_corruption_still_closes(self, server):
        client = _BinaryClient(server.server_address[1])
        try:
            client.sock.sendall(b"Y" * wire.HEADER_SIZE)
            response, _ = client.read_frame()
            assert response["code"] == "protocol"
            assert client.stream.read(1) == b""  # framing lost: close
        finally:
            client.close()

    @pytest.mark.parametrize("request_", [
        {"op": "bits", "name": "a", "offset": -5},
        {"op": "bits", "name": "a", "offset": 0, "limit": -1},
        {"op": "bits", "name": "a", "offset": -1, "limit": -1},
    ])
    def test_negative_readout_is_query_error_both_wires(
            self, server, request_):
        port = server.server_address[1]
        for client in (_JsonClient(port), _BinaryClient(port)):
            try:
                response = client.call(dict(request_))
                assert not response["ok"]
                assert response["code"] == "query"
                assert "non-negative" in response["error"]
                follow_up = client.call({"op": "query",
                                         "expr": "a | b"})
                assert follow_up["ok"]
            finally:
                client.close()

    def test_unknown_column_is_query_error(self, server):
        client = _JsonClient(server.server_address[1])
        try:
            response = client.call({"op": "query", "expr": "nope"})
            assert not response["ok"]
            assert response["code"] == "query"
        finally:
            client.close()


# ----------------------------------------------------------------------
# untrusted JSON: non-objects and deep nesting
# ----------------------------------------------------------------------
#: deep enough to exhaust the JSON parser's recursion on any platform
DEEP = 100_000


def _send_line(client, line: str) -> dict:
    client.stream.write(line + "\n")
    client.stream.flush()
    return json.loads(client.stream.readline())


class TestUntrustedJson:
    @pytest.mark.parametrize("line", [
        "[]", "1", '"x"', "null", "[" * DEEP, '{"a":' * DEEP,
    ], ids=["list", "int", "str", "null", "deep-list", "deep-object"])
    def test_json_line_is_protocol_error_and_survives(self, server,
                                                      line):
        client = _JsonClient(server.server_address[1])
        try:
            response = _send_line(client, line)
            assert not response["ok"]
            assert response["code"] == "protocol"
            follow_up = client.call({"op": "query", "expr": "a & b"})
            assert follow_up["ok"]
        finally:
            client.close()

    def test_deep_frame_metadata_is_typed_error(self):
        meta = b"[" * DEEP
        header = wire.HEADER.pack(wire.MAGIC, wire.VERSION,
                                  wire.KIND_REQUEST, 0, 0, len(meta), 0)
        with pytest.raises(ProtocolError, match="nest"):
            wire.decode_frame(wire.decode_header(header), meta, b"")

    def test_long_integer_metadata_is_typed_error(self):
        """An integer literal past the interpreter's digit limit makes
        ``json.loads`` raise a plain ValueError."""
        meta = b'{"offset": ' + b"7" * 10_000 + b"}"
        header = wire.HEADER.pack(wire.MAGIC, wire.VERSION,
                                  wire.KIND_REQUEST, 0, 0, len(meta), 0)
        with pytest.raises(ProtocolError, match="metadata"):
            wire.decode_frame(wire.decode_header(header), meta, b"")

    def test_deep_frame_metadata_survives_on_the_wire(self, server):
        client = _BinaryClient(server.server_address[1])
        try:
            meta = b"[" * DEEP
            client.sock.sendall(wire.HEADER.pack(
                wire.MAGIC, wire.VERSION, wire.KIND_REQUEST, 0, 0,
                len(meta), 0) + meta)
            response, _ = client.read_frame()
            assert response["code"] == "protocol"
            assert client.call({"op": "query", "expr": "a | b"})["ok"]
        finally:
            client.close()


# ----------------------------------------------------------------------
# fuzzing: typed errors only, never a raw exception
# ----------------------------------------------------------------------
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)


@st.composite
def _mutated_frames(draw) -> bytes:
    """A valid REPB request frame, its metadata maybe swapped for a
    hostile JSON text, then a few random byte corruptions."""
    meta = draw(st.dictionaries(st.text(max_size=6), _JSON, max_size=4))
    bits = [np.ones(width, dtype=np.uint8) for width in
            draw(st.lists(st.integers(0, 200), max_size=3))]
    frame = wire.encode_frame(
        wire.KIND_REQUEST, meta,
        bits[0] if len(bits) == 1 else bits or None)
    fields = list(wire.HEADER.unpack(frame[:wire.HEADER_SIZE]))
    meta_end = wire.HEADER_SIZE + fields[5]
    meta_bytes = draw(st.one_of(
        st.just(frame[wire.HEADER_SIZE:meta_end]),
        st.integers(1, DEEP).map(lambda depth: b"[" * depth),
        st.integers(1, 10_000).map(
            lambda digits: b'{"n": ' + b"7" * digits + b"}")))
    fields[5] = len(meta_bytes)
    frame = bytearray(wire.HEADER.pack(*fields) + meta_bytes
                      + frame[meta_end:])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(frame)))
        edit = draw(st.sampled_from(["flip", "cut", "insert"]))
        if edit == "flip" and at < len(frame):
            frame[at] ^= 1 << draw(st.integers(0, 7))
        elif edit == "cut":
            del frame[at:at + draw(st.integers(1, 16))]
        elif edit == "insert":
            frame[at:at] = draw(st.binary(min_size=1, max_size=8))
    return bytes(frame)


def _decode_untrusted(frame: bytes) -> None:
    """Decode ``frame`` as a server does; only ProtocolError may
    escape."""
    try:
        header = wire.decode_header(frame[:wire.HEADER_SIZE])
        rest = frame[wire.HEADER_SIZE:]
        wire.decode_frame(header, rest[:header.meta_len],
                          rest[header.meta_len:header.meta_len
                               + header.payload_bytes])
    except ProtocolError:
        pass


class TestDecoderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=96))
    def test_random_bytes_raise_only_protocol_errors(self, data):
        _decode_untrusted(data)

    @settings(max_examples=150, deadline=None)
    @given(frame=_mutated_frames())
    def test_mutated_frames_raise_only_protocol_errors(self, frame):
        _decode_untrusted(frame)


@pytest.fixture(scope="module")
def fuzz_server():
    """One server for every fuzz example (a fresh connection each)."""
    svc = BitwiseService(n_bits=N_BITS, n_shards=2)
    bits = np.random.default_rng(5).integers(0, 2, N_BITS,
                                             dtype=np.uint8)
    svc.create_column("a", bits)
    srv = serve_tcp(svc, 0, batch_window_s=0.0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    svc.close()


class TestJsonLinesFuzz:
    @settings(max_examples=40, deadline=None)
    @given(line=_JSON.map(json.dumps)
           | st.integers(1, DEEP).map(lambda depth: "[" * depth)
           | st.binary(max_size=24).map(
               lambda raw: raw.decode("latin-1").replace("\n", " ")))
    def test_random_lines_get_typed_replies(self, fuzz_server, line):
        sock = socket.create_connection(
            ("127.0.0.1", fuzz_server.server_address[1]), timeout=10)
        stream = sock.makefile("rw", encoding="latin-1")
        try:
            stream.write(line + "\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is False
            assert response["code"] in ("protocol", "query"), response
            stream.write(json.dumps({"op": "query", "expr": "~a"})
                         + "\n")
            stream.flush()
            assert json.loads(stream.readline())["ok"]
        finally:
            sock.close()
