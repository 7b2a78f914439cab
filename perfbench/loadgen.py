"""Open-loop load generator over the service's two TCP wires.

One asyncio loop in the benchmark process drives every connection.  A
connection is pipelined: requests are written when they fall due,
whether or not earlier replies have arrived, and replies are matched
to requests in order (the server answers each connection in order).
Each request is timed from its due time, so a stall also charges the
wait it imposes on the requests queued behind it; how late the
generator itself ran is recorded as ``lag``.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from common import pct
from repro.service.wire import (
    HEADER_SIZE,
    KIND_REQUEST,
    decode_frame,
    decode_header,
    encode_frame,
)


@dataclass
class Op:
    """One scheduled request and what the shadow model expects of it."""

    kind: str                   #: read | write (latency class)
    name: str                   #: query, match, bits, write_slice, ...
    request: dict
    bits: object = None         #: bulk payload (binary wire) or None
    expect: object = None       #: expected count / page, or None
    rows: int = 0               #: rows the op answers (reads)
    payload_bytes: int = 0      #: user payload bytes (writes)
    due_ns: int = 0
    sent_ns: int = 0
    done_ns: int = 0
    service_ns: int = 0         #: reply time minus max(send, prev reply)
    encode_ns: int = 0
    response: dict = field(default_factory=dict)
    error: str | None = None
    lane: int = 0


class Conn:
    """A pipelined connection speaking JSON-lines or REPB frames."""

    def __init__(self, reader, writer, wire: str) -> None:
        self.reader, self.writer, self.wire = reader, writer, wire
        self.inflight: deque = deque()
        self.last_done_ns = 0
        self._task: asyncio.Task | None = None

    @classmethod
    async def open(cls, port: int, tenant: str, wire: str) -> "Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 26)
        hello = {"op": "hello", "tenant": tenant, "wire": wire}
        writer.write((json.dumps(hello) + "\n").encode())
        await writer.drain()
        reply = json.loads(await reader.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"hello refused: {reply}")
        conn = cls(reader, writer, wire)
        conn._task = asyncio.get_running_loop().create_task(conn._read())
        return conn

    def encode(self, op: Op) -> bytes:
        start = time.perf_counter_ns()
        if self.wire == "binary":
            data = encode_frame(KIND_REQUEST, op.request, op.bits)
        else:
            request = op.request
            if op.bits is not None:
                request = {**request, "bits": np.asarray(op.bits).tolist()}
            data = (json.dumps(request) + "\n").encode()
        op.encode_ns = time.perf_counter_ns() - start
        return data

    def send(self, op: Op) -> asyncio.Future:
        data = self.encode(op)
        future = asyncio.get_running_loop().create_future()
        op.sent_ns = time.perf_counter_ns()
        self.inflight.append((op, future))
        self.writer.write(data)
        return future

    async def call(self, request: dict, bits=None) -> tuple[dict, object]:
        """One request/response outside any schedule (set-up, checks)."""
        op = Op("setup", request.get("op", ""), request, bits)
        await self.send(op)
        return op.response, op.response.pop("bits", None)

    async def _recv(self) -> tuple[dict, object]:
        if self.wire == "binary":
            header = decode_header(await self.reader.readexactly(HEADER_SIZE))
            meta = (await self.reader.readexactly(header.meta_len)
                    if header.meta_len else b"")
            payload = (await self.reader.readexactly(header.payload_bytes)
                       if header.payload_bytes else b"")
            return decode_frame(header, meta, payload)
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        return response, response.get("bits")

    async def _read(self) -> None:
        try:
            while True:
                response, bits = await self._recv()
                now = time.perf_counter_ns()
                op, future = self.inflight.popleft()
                op.done_ns = now
                op.service_ns = now - max(op.sent_ns, self.last_done_ns)
                self.last_done_ns = now
                if bits is not None:
                    response["bits"] = bits
                op.response = response
                if not future.done():
                    future.set_result(op)
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            while self.inflight:
                op, future = self.inflight.popleft()
                op.error = f"connection lost: {exc}"
                if not future.done():
                    future.set_result(op)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass


async def run_schedule(conns: list[Conn], lanes: list[list[Op]],
                       rate: float, on_due=None) -> tuple[list[Op], int]:
    """Send ``lanes[i]`` on ``conns[i]`` at ``rate`` ops/s in total.

    Ops are spaced evenly: with ``k`` lanes each lane runs at
    ``rate / k`` and the lanes are phase-shifted so arrivals interleave.
    ``on_due(lane, op)`` runs just before an op is sent, in send order
    per lane (the shadow model computes expectations there).  Returns
    every op (completed) and the start time in ns.
    """
    k = len(lanes)
    period_ns = int(1e9 * k / rate)
    start_ns = time.perf_counter_ns() + 20_000_000
    futures: list[asyncio.Future] = []

    async def lane(index: int) -> None:
        conn = conns[index]
        for position, op in enumerate(lanes[index]):
            op.due_ns = start_ns + position * period_ns \
                + index * period_ns // k
            delay = (op.due_ns - time.perf_counter_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            op.lane = index
            if on_due is not None:
                on_due(index, op)
            futures.append(conn.send(op))
            if len(conn.inflight) > 256:
                await conn.writer.drain()

    await asyncio.gather(*(lane(i) for i in range(k)))
    ops = list(await asyncio.gather(*futures))
    return ops, start_ns


def summarize_latency(ops: list[Op]) -> dict:
    """Read/write latency (from due time) plus generator lag, in ms."""
    out = {}
    for kind in ("read", "write"):
        lat = [(op.done_ns - op.due_ns) / 1e6 for op in ops
               if op.kind == kind and op.error is None]
        out[f"{kind}_p50_ms"] = pct(lat, 50)
        out[f"{kind}_p99_ms"] = pct(lat, 99)
        out[f"{kind}_n"] = len(lat)
    lag = [(op.sent_ns - op.due_ns) / 1e6 for op in ops]
    out["lag_p99_ms"] = pct(lag, 99)
    out["encode_ms"] = float(np.mean([op.encode_ns for op in ops])) / 1e6 \
        if ops else float("nan")
    return out
