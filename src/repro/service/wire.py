"""Length-prefixed binary frames for bulk bit payloads.

The JSON-lines protocol ships column payloads as JSON integer arrays
— ~5 bytes of text per bit plus a parse on each side.  For bulk ops
(``bits``, ``write_slice``, ``append_rows``, functional
``create_column``/``update_column``) the binary wire packs the same
bits 64 per uint64 word, little-endian, after a fixed 24-byte header:

.. code-block:: text

    offset  size  field
    ------  ----  --------------------------------------------------
        0     4   magic  b"REPB"
        4     1   version (currently 1)
        5     1   kind    (1 = request, 2 = response)
        6     2   flags   (reserved, 0)
        8     8   n_bits  total logical bits in the payload (u64 LE)
       16     4   meta_len     bytes of UTF-8 JSON metadata (u32 LE)
       20     4   payload_words  uint64 words following meta (u32 LE)
    ------  ----  --------------------------------------------------
       24          meta: UTF-8 JSON object (op, name, offset, ...)
    24+meta        payload: payload_words * 8 bytes of raw LE words

Bits pack with :func:`numpy.packbits` (``bitorder="little"``) so bit
*i* of the logical column is bit ``i % 8`` of payload byte ``i // 8``
— the same order :class:`~repro.service.columnstore.ColumnStore` uses
internally, making server-side decode a straight ``frombuffer``.

Multi-segment payloads (``append_rows`` with several columns) carry a
``"segment_bits": [n0, n1, ...]`` list in the metadata; each segment
is padded independently to a word boundary so segment offsets stay
word-aligned.  The decoder treats ``segment_bits`` as untrusted: each
count must be a non-negative integer, the counts must sum to the
header's ``n_bits``, and the padded widths must cover the payload
exactly — anything else raises :class:`ProtocolError`.

A connection starts in JSON-lines and opts in per-connection via
``{"op": "hello", "wire": "binary"}`` — the hello response is still a
JSON line, then both directions switch to frames.  Structural
violations (bad magic, unsupported version, truncated payload,
oversized frame) raise :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import json
import struct
from typing import NamedTuple

import numpy as np

from repro.errors import ProtocolError

__all__ = [
    "MAGIC", "VERSION", "KIND_REQUEST", "KIND_RESPONSE",
    "HEADER", "HEADER_SIZE", "MAX_FRAME_BYTES", "FrameHeader",
    "pack_bits", "unpack_bits", "encode_frame", "decode_header",
    "decode_frame", "decode_json_object", "read_frame_async",
]

MAGIC = b"REPB"
VERSION = 1
KIND_REQUEST = 1
KIND_RESPONSE = 2

#: magic | version | kind | flags | n_bits | meta_len | payload_words
HEADER = struct.Struct("<4sBBHQII")
HEADER_SIZE = HEADER.size  # 24

#: hard cap on meta + payload per frame (guards a hostile header from
#: driving an unbounded allocation before the read even starts).
MAX_FRAME_BYTES = 1 << 28


class FrameHeader(NamedTuple):
    kind: int
    flags: int
    n_bits: int
    meta_len: int
    payload_bytes: int


def _words_for(n_bits: int) -> int:
    return (int(n_bits) + 63) // 64


def _pack_segment(bits) -> tuple[np.ndarray, int, int]:
    """``(packed bytes array, n_bits, word-padded size)`` for one
    segment.  :func:`numpy.packbits` binarizes (any nonzero counts as
    a set bit), so no clamp pass is needed; padding is NOT
    materialized — callers write into zero-filled buffers where the
    pad comes for free.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        arr = arr.ravel()
    packed = np.packbits(arr, bitorder="little")
    return packed, int(arr.size), _words_for(arr.size) * 8


def pack_bits(bits) -> tuple[bytes, int]:
    """Pack a 0/1 array into word-padded little-endian bytes.

    Returns ``(payload, n_bits)``; the payload is padded with zero
    bits to a multiple of 8 bytes (one uint64 word).
    """
    packed, n_bits, padded = _pack_segment(bits)
    if packed.size == padded:
        return packed.tobytes(), n_bits
    out = bytearray(padded)
    out[:packed.size] = packed.data
    return bytes(out), n_bits


def unpack_bits(payload: bytes, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: payload bytes -> 0/1 uint8 array."""
    n_bits = int(n_bits)
    if len(payload) * 8 < n_bits:
        raise ProtocolError(
            f"frame payload holds {len(payload) * 8} bits, "
            f"header claims {n_bits}")
    raw = np.frombuffer(payload, dtype=np.uint8)
    return np.unpackbits(raw, count=n_bits, bitorder="little")


def encode_frame(kind: int, meta: dict, bits=None, *,
                 default=None) -> bytes:
    """Encode one frame.

    ``bits`` may be ``None`` (no payload), a single 0/1 array, or a
    list of arrays (multi-segment; per-segment widths are recorded in
    the metadata as ``"segment_bits"``).  ``default`` is forwarded to
    :func:`json.dumps` for the metadata; a metadata object that still
    fails to serialize raises :class:`ProtocolError`.
    """
    if bits is None:
        parts = []
    elif isinstance(bits, (list, tuple)) and bits and all(
            np.ndim(segment) == 0 for segment in bits):
        # A flat list of scalar bits is ONE logical array, not a run
        # of one-bit segments.
        parts = [_pack_segment(bits)]
    elif isinstance(bits, (list, tuple)):
        parts = [_pack_segment(segment) for segment in bits]
        meta = dict(meta)
        meta["segment_bits"] = [count for _, count, _ in parts]
    else:
        parts = [_pack_segment(bits)]
    n_bits = sum(count for _, count, _ in parts)
    payload_len = sum(padded for _, _, padded in parts)
    try:
        meta_bytes = json.dumps(
            meta, separators=(",", ":"),
            default=default).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"frame metadata is not JSON-serializable: {exc}") from exc
    if len(meta_bytes) + payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(meta_bytes) + payload_len} bytes exceeds "
            f"the {MAX_FRAME_BYTES}-byte limit")
    # One zero-filled buffer for the whole frame: header packs in
    # place, meta and packed segments copy in once, and word padding
    # between segments is already zero — no intermediate joins.
    frame = bytearray(HEADER_SIZE + len(meta_bytes) + payload_len)
    HEADER.pack_into(frame, 0, MAGIC, VERSION, int(kind), 0, n_bits,
                     len(meta_bytes), payload_len // 8)
    frame[HEADER_SIZE:HEADER_SIZE + len(meta_bytes)] = meta_bytes
    offset = HEADER_SIZE + len(meta_bytes)
    for packed, _, padded in parts:
        frame[offset:offset + packed.size] = packed.data
        offset += padded
    return bytes(frame)


def decode_header(data: bytes) -> FrameHeader:
    """Validate and decode a 24-byte frame header."""
    if len(data) != HEADER_SIZE:
        raise ProtocolError(
            f"frame header needs {HEADER_SIZE} bytes, got {len(data)}")
    magic, version, kind, flags, n_bits, meta_len, words = \
        HEADER.unpack(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(
            f"unsupported wire version {version} (speak {VERSION})")
    if kind not in (KIND_REQUEST, KIND_RESPONSE):
        raise ProtocolError(f"unknown frame kind {kind}")
    if meta_len + words * 8 > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {meta_len + words * 8} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return FrameHeader(kind, flags, n_bits, meta_len, words * 8)


def decode_json_object(data: bytes, what: str) -> dict:
    """Parse untrusted UTF-8 JSON that must be an object.

    Every failure raises :class:`ProtocolError`: bad UTF-8, bad JSON,
    an integer literal too long to convert, nesting deep enough to
    exhaust the parser's recursion, or a value that is not an object.
    """
    try:
        value = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # includes JSON and UTF-8 decode errors
        raise ProtocolError(f"bad {what}: {exc}") from exc
    except RecursionError:
        raise ProtocolError(f"{what} nests too deeply") from None
    if not isinstance(value, dict):
        raise ProtocolError(f"{what} must be a JSON object")
    return value


def decode_frame(header: FrameHeader, meta_bytes: bytes,
                 payload: bytes) -> tuple[dict, object]:
    """Decode meta + payload bytes read after :func:`decode_header`.

    Returns ``(meta, bits)`` where ``bits`` is ``None`` (no payload),
    one 0/1 array, or — when the metadata carries ``segment_bits`` —
    a list of arrays.  The ``segment_bits`` key is consumed.
    """
    meta = decode_json_object(meta_bytes, "frame metadata")
    segments = meta.pop("segment_bits", None)
    if segments is not None:
        if not isinstance(segments, list):
            raise ProtocolError(
                "segment_bits must be a list of bit counts, got "
                f"{type(segments).__name__}")
        for count in segments:
            if isinstance(count, bool) or not isinstance(count, int):
                raise ProtocolError(
                    f"segment_bits count {count!r} is not an integer")
            if count < 0:
                raise ProtocolError(
                    f"segment_bits count {count} is negative")
        if sum(segments) != header.n_bits:
            raise ProtocolError(
                f"segment widths sum to {sum(segments)} bits, "
                f"header claims {header.n_bits}")
        bits, offset = [], 0
        for count in segments:
            size = _words_for(count) * 8
            bits.append(unpack_bits(
                payload[offset:offset + size], count))
            offset += size
        if offset != len(payload):
            raise ProtocolError(
                f"segment widths cover {offset} payload bytes, "
                f"frame carries {len(payload)}")
    elif header.n_bits or payload:
        bits = unpack_bits(payload, header.n_bits)
    else:
        bits = None
    return meta, bits


async def read_frame_async(reader) -> tuple[dict, object]:
    """Read one full frame from an asyncio stream reader."""
    header = decode_header(await reader.readexactly(HEADER_SIZE))
    meta_bytes = (await reader.readexactly(header.meta_len)
                  if header.meta_len else b"")
    payload = (await reader.readexactly(header.payload_bytes)
               if header.payload_bytes else b"")
    return decode_frame(header, meta_bytes, payload)
