"""Async serving-stack load generator and benchmarks.

Closed-loop multi-client load against the asyncio TCP server: each
client opens its own connection and issues its next request as soon
as the previous response arrives, mixing queries with in-place column
mutations.  Per-request latencies aggregate into p50/p99 and total
queries/s — the ``serving_latency`` entry recorded in
``BENCH_substrate.json`` and gated by ``perf_smoke --check``.

Clients speak either wire: JSON-lines (default) or the negotiated
binary ``REPB`` frames (``wire="binary"``), with mutation payloads
shipped as packed words.  Client-side wire-encode time (JSON dumps /
frame packing) is measured separately from round-trip latency so the
record splits serialization cost from server time.

The same run demonstrates dependency-aware invalidation at the
system level: mutation clients write column ``m`` only, so the
query clients' plans over ``a``/``b``/``c`` keep their cache hits
across every mutation.
"""

from __future__ import annotations

import json
import socket
import tempfile
import threading
import time

import numpy as np

from repro.service import BitwiseService, DurabilityManager, serve_tcp
from repro.service import wire as wire_codec

N_BITS = 1 << 16
N_SHARDS = 4

#: read-only predicates over a/b/c — never invalidated by the
#: mutation clients, which write column m exclusively
QUERY_MIX = ["a & b", "(a & b) | ~c", "a ^ c", "maj(a, b, c)"]


def _make_service(*, workers: int = 1) -> BitwiseService:
    rng = np.random.default_rng(7)
    service = BitwiseService("feram-2tnc", n_bits=N_BITS,
                             n_shards=N_SHARDS, workers=workers)
    if workers > 1:
        # The 64Ki-bit bench table is far below the default
        # work threshold; drop it so the process tier actually
        # executes the scattered jobs being measured.
        service._parallel_min_work = 0
    for name in ("a", "b", "c", "m"):
        service.create_column(
            name, (rng.random(N_BITS) < 0.4).astype(np.uint8))
    return service


class _LoadClient(threading.Thread):
    """One closed-loop client; records per-request latencies and the
    client-side wire-encode share separately."""

    def __init__(self, port: int, requests: list[dict],
                 wire: str = "json") -> None:
        super().__init__(daemon=True)
        self.port = port
        self.requests = requests
        self.wire = wire
        self.latencies: list[float] = []
        self.encode_s = 0.0
        self.error: Exception | None = None

    def run(self) -> None:
        try:
            if self.wire == "binary":
                self._run_binary()
            else:
                self._run_json()
        except Exception as exc:
            self.error = exc

    def _run_json(self) -> None:
        sock = socket.create_connection(("127.0.0.1", self.port),
                                        timeout=30)
        stream = sock.makefile("rw")
        for request in self.requests:
            start = time.perf_counter()
            line = json.dumps(request) + "\n"
            self.encode_s += time.perf_counter() - start
            stream.write(line)
            stream.flush()
            response = json.loads(stream.readline())
            self.latencies.append(time.perf_counter() - start)
            assert response.get("ok"), response
        sock.close()

    def _run_binary(self) -> None:
        sock = socket.create_connection(("127.0.0.1", self.port),
                                        timeout=30)
        stream = sock.makefile("rb")
        sock.sendall((json.dumps({"op": "hello", "wire": "binary"})
                      + "\n").encode())
        hello = json.loads(stream.readline())
        assert hello.get("ok"), hello
        for request in self.requests:
            start = time.perf_counter()
            meta = dict(request)
            bits = meta.pop("bits", None)
            if bits is not None:  # one flat payload, not segments
                bits = np.asarray(bits, dtype=np.uint8)
            frame = wire_codec.encode_frame(
                wire_codec.KIND_REQUEST, meta, bits)
            self.encode_s += time.perf_counter() - start
            sock.sendall(frame)
            header = wire_codec.decode_header(
                stream.read(wire_codec.HEADER_SIZE))
            meta_bytes = stream.read(header.meta_len)
            payload = stream.read(header.payload_bytes)
            response, _ = wire_codec.decode_frame(
                header, meta_bytes, payload)
            self.latencies.append(time.perf_counter() - start)
            assert response.get("ok"), response
        sock.close()


def _client_requests(index: int, n_requests: int,
                     mutation_share: float) -> list[dict]:
    """Deterministic per-client request mix (queries + slice writes)."""
    rng = np.random.default_rng(1000 + index)
    requests: list[dict] = []
    for step in range(n_requests):
        if rng.random() < mutation_share:
            offset = int(rng.integers(0, N_BITS - 256))
            bits = rng.integers(0, 2, size=256).tolist()
            requests.append({"op": "write_slice", "name": "m",
                             "offset": offset, "bits": bits})
        else:
            requests.append({"op": "query",
                             "expr": QUERY_MIX[step % len(QUERY_MIX)]})
    return requests


def serving_latency(*, n_clients: int = 6, requests_per_client: int = 40,
                    mutation_share: float = 0.2,
                    batch_window_s: float = 0.0005,
                    wire: str = "json",
                    durable: bool = False,
                    workers: int = 1) -> dict:
    """Closed-loop mixed query/mutation load; p50/p99 and queries/s.

    ``durable=True`` runs the identical load with a write-ahead log
    attached (``sync="batch"``: one fsync per mutation barrier), so
    the recorded delta against the plain run is the end-to-end WAL
    overhead on the serving path.  ``workers>1`` serves through the
    multi-process shard-worker tier over the shared-memory store; the
    pool is spawned (one warm-up query) before the timed window, and
    that cold start is returned on its own as ``spawn_s``.
    """
    service = _make_service(workers=workers)
    spawn_s = 0.0
    if workers > 1:
        start = time.perf_counter()
        service.query(QUERY_MIX[0], use_cache=False)
        spawn_s = time.perf_counter() - start
    data_dir = None
    if durable:
        data_dir = tempfile.TemporaryDirectory(prefix="repro-wal-")
        manager = DurabilityManager(data_dir.name, snapshot_every=256,
                                    sync="batch")
        manager.open(manager.load_base()[0])
        service.attach_durability(manager)
    server = serve_tcp(service, 0, batch_window_s=batch_window_s)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        clients = [
            _LoadClient(server.server_address[1],
                        _client_requests(index, requests_per_client,
                                         mutation_share),
                        wire=wire)
            for index in range(n_clients)
        ]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=120)
            assert not client.is_alive(), "load client hung"
        elapsed = time.perf_counter() - start
        for client in clients:
            if client.error is not None:
                raise client.error
        latencies = np.array(sorted(
            latency for client in clients
            for latency in client.latencies))
        total = n_clients * requests_per_client
        encode_s = sum(client.encode_s for client in clients)
        metrics = dict(server.scheduler.metrics)
        stats = service.stats()
        return {
            "seconds": elapsed,
            "wire": wire,
            "workers": workers,
            "spawn_s": spawn_s,
            "clients": n_clients,
            "requests": total,
            "mutation_share": mutation_share,
            "p50_ms": float(np.percentile(latencies, 50) * 1e3),
            "p99_ms": float(np.percentile(latencies, 99) * 1e3),
            "qps": total / elapsed,
            "encode_s": encode_s,
            "encode_ms_per_request": encode_s * 1e3 / total,
            "batches": metrics["batches"],
            "batched_queries": metrics["batched_queries"],
            "cache_hits": stats["cache_hits"],
            "mutations": stats["mutations_applied"],
        }
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_serving_latency_under_mixed_load(benchmark):
    """≥4 concurrent clients, mixed query/mutation traffic: the server
    answers everything, coalesces queries across connections, and —
    because mutations touch only column m — the a/b/c query plans
    keep serving cache hits straight through the writes."""
    record = benchmark(serving_latency)
    assert record["requests"] == record["clients"] * 40
    assert record["clients"] >= 4
    assert record["mutations"] > 0
    assert record["p50_ms"] <= record["p99_ms"]
    # The encode split is a strict share of total wall-clock.
    assert 0.0 <= record["encode_s"] < record["seconds"]
    # Coalescing: strictly fewer vector batches than queries answered.
    assert record["batches"] < record["batched_queries"]
    # Dependency-aware invalidation at the system level: with only
    # four distinct read plans, nearly every query after warm-up is a
    # hit despite the interleaved mutations.
    assert record["cache_hits"] > record["batched_queries"] // 2
    benchmark.extra_info["serving_latency"] = {
        key: round(value, 4) if isinstance(value, float) else value
        for key, value in record.items()}


def test_serving_latency_binary_wire(benchmark):
    """The same closed loop over negotiated REPB frames: every
    request answered, mutations land, and the recorded encode share
    stays split out."""
    record = benchmark(lambda: serving_latency(wire="binary"))
    assert record["wire"] == "binary"
    assert record["requests"] == record["clients"] * 40
    assert record["mutations"] > 0
    assert 0.0 <= record["encode_s"] < record["seconds"]
    benchmark.extra_info["serving_latency_binary"] = {
        key: round(value, 4) if isinstance(value, float) else value
        for key, value in record.items()}
