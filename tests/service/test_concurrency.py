"""Concurrent mutation/query interleavings.

Four layers:

* deterministic serialized schedules through the differential
  op-script harness (service vs engine replay vs numpy shadow, full
  Stats);
* a hypothesis property over random op scripts (same harness);
* in-place writes racing live query batches, in-process and on shard
  workers: a batch sees one table version, and deferred readouts keep
  the value they were computed from;
* an async soak: multiple tenant clients hammer one shared async
  server concurrently with mixed query/mutation traffic; each
  tenant's result stream must be bit-exact against a serial engine
  replay of that tenant's own schedule (namespaces are disjoint, and
  the scheduler guarantees per-tenant FIFO).
"""

from __future__ import annotations

import json
import socket
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import BitwiseService, serve_tcp
from tests.support.differential import apply_op, assert_ops_equivalent
from tests.support.replay import EngineReplay

N_BITS = 3 * 64 * 2  # 2 words per shard on 3 shards
#: wide enough that numpy releases the GIL inside each kernel, so a
#: writer thread really runs while a batch executes
RACE_BITS = 1 << 16

pytestmark = pytest.mark.timeout(120)


def table_for(seed: int, names=("a", "b", "c"),
              n_bits: int = N_BITS) -> dict:
    rng = np.random.default_rng(seed)
    return {name: (rng.random(n_bits) < 0.5).astype(np.uint8)
            for name in names}


class TestDeterministicSchedules:
    """Known-order interleavings, pinned exactly against the replay."""

    def test_read_heavy_with_periodic_updates(self):
        table = table_for(1)
        rng = np.random.default_rng(2)
        ops = []
        for round_index in range(4):
            ops += [("query", "a & b"), ("query", "b | c"),
                    ("query", "a ^ c"), ("query", "a & b")]
            fresh = (rng.random(N_BITS) < 0.5).astype(np.uint8)
            ops.append(("update", "a", fresh))
        ops.append(("query", "a & b"))
        assert_ops_equivalent(table, ops)

    def test_uncached_run_crosses_control_rewrites(self):
        """Forty executed queries take every FeRAM shard past its
        control-row rewrite period (32 TBA reads), so the service's
        running control counters must stay in step with the engines'
        across mutations too."""
        table = table_for(9)
        ops = [("query", query) for query in
               ("a & b", "maj(a, b, c)", "a ^ ~c", "(a | b) & ~c")] * 10
        ops.insert(20, ("update", "b", table["c"]))
        assert_ops_equivalent(table, ops, cache_size=0)

    def test_alternating_writers_one_column(self):
        table = table_for(3)
        rng = np.random.default_rng(4)
        ops = []
        for offset in range(0, N_BITS - 64, 64):
            patch = (rng.random(64) < 0.5).astype(np.uint8)
            ops.append(("write", "b", offset, patch))
            ops.append(("query", "a ^ b"))
        assert_ops_equivalent(table, ops)

    def test_mixed_ddl_dml_schedule(self):
        table = table_for(5)
        rng = np.random.default_rng(6)
        new_col = (rng.random(N_BITS) < 0.3).astype(np.uint8)
        appended = {"a": np.ones(64, dtype=np.uint8)}
        assert_ops_equivalent(table, [
            ("query", "maj(a, b, c)"),
            ("create", "d", new_col),
            ("query", "maj(a, b, c)"),       # must still be a hit
            ("query", "d & a"),
            ("update", "d", 1 - new_col),
            ("query", "d & a"),
            ("drop", "b"),
            ("append", appended),
            ("query", "a & ~c"),
        ], capacity=N_BITS + 64)


@st.composite
def op_scripts(draw):
    """A serialized script of queries and mutations over 3 columns."""
    names = ("a", "b", "c")
    queries = ("a & b", "a ^ b", "b | ~c", "maj(a, b, c)",
               "(a & b) | (b & c)", "a & ~b")
    n_ops = draw(st.integers(2, 10))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(
            ["query", "query", "query", "update", "write"]))
        if kind == "query":
            ops.append(("query", draw(st.sampled_from(queries))))
        elif kind == "update":
            seed = draw(st.integers(0, 2 ** 16))
            bits = (np.random.default_rng(seed).random(N_BITS)
                    < 0.5).astype(np.uint8)
            ops.append(("update", draw(st.sampled_from(names)), bits))
        else:
            offset = draw(st.integers(0, N_BITS - 1))
            length = draw(st.integers(1, N_BITS - offset))
            seed = draw(st.integers(0, 2 ** 16))
            bits = (np.random.default_rng(seed).random(length)
                    < 0.5).astype(np.uint8)
            ops.append(("write", draw(st.sampled_from(names)),
                        offset, bits))
    return ops


class TestPropertyInterleavings:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), ops=op_scripts())
    def test_random_scripts_differentially_exact(self, seed, ops):
        assert_ops_equivalent(table_for(seed), ops)


@pytest.fixture(params=[1, 2], ids=["workers1", "workers2"])
def inplace_service(request):
    """A vector service whose plans run in-process (1 worker) or are
    scattered to shard workers (2)."""
    svc = BitwiseService(n_bits=RACE_BITS, n_shards=4,
                         workers=request.param)
    svc._parallel_min_work = 0  # scatter even this small table
    yield svc
    svc.close()


class TestInPlaceWrites:
    def test_batch_racing_write_slice_is_never_torn(self,
                                                    inplace_service):
        """A writer flips column ``a`` between two values with
        full-width ``write_slice``s while a reader runs ``[a, ..., ~a]``
        batches: every batch must see exactly one version, across all
        shards and all its queries."""
        svc = inplace_service
        table = table_for(7, n_bits=RACE_BITS)
        for name, bits in table.items():
            svc.create_column(name, bits)
        versions = [table["a"], 1 - table["a"]]
        # filler plans widen the window between reading a and ~a
        batch = ["a", "maj(a, b, c)", "b ^ c", "(a | b) & ~c", "~a"]
        stop = threading.Event()
        flips: list[int] = []
        errors: list[BaseException] = []

        def writer():
            try:
                while not stop.is_set():
                    flips.append(len(flips))
                    svc.write_slice("a", 0, versions[len(flips) % 2])
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-batch
        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(30):
                results = svc.execute(batch, use_cache=False)
                plain, inverted = results[0], results[-1]
                assert plain.count + inverted.count == RACE_BITS
                assert any(np.array_equal(plain.bits, version)
                           for version in versions)
                assert np.array_equal(inverted.bits, 1 - plain.bits)
        finally:
            stop.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not errors, errors
        assert len(flips) > 1  # the writer really ran alongside

    def test_deferred_bits_keep_pre_write_value(self, inplace_service):
        """Results read through deferred ``.bits`` after a later
        in-place ``write_slice`` to their column still return the
        value they were computed from — including a bare column."""
        svc = inplace_service
        table = table_for(8, n_bits=RACE_BITS)
        for name, bits in table.items():
            svc.create_column(name, bits)
        bare, both = svc.execute(["a", "a & b"])
        svc.write_slice("a", 64, 1 - table["a"][64:192])
        assert np.array_equal(bare.bits, table["a"])
        assert np.array_equal(both.bits, table["a"] & table["b"])
        after = svc.query("a")
        assert not after.cache_hit
        expected = table["a"].copy()
        expected[64:192] ^= 1
        assert np.array_equal(after.bits, expected)


class _TenantClient(threading.Thread):
    """One tenant's closed-loop client: runs its schedule through the
    async server and records every query count."""

    def __init__(self, port: int, tenant: str, schedule):
        super().__init__(daemon=True)
        self.port, self.tenant, self.schedule = port, tenant, schedule
        self.counts: list[int] = []
        self.error = None

    def run(self):
        try:
            sock = socket.create_connection(("127.0.0.1", self.port),
                                            timeout=30)
            stream = sock.makefile("rw")

            def call(request):
                stream.write(json.dumps(request) + "\n")
                stream.flush()
                response = json.loads(stream.readline())
                assert response.get("ok"), response
                return response

            call({"op": "hello", "tenant": self.tenant})
            for op in self.schedule:
                if op[0] == "create":
                    call({"op": "create_column", "name": op[1],
                          "bits": [int(bit) for bit in op[2]]})
                elif op[0] == "update":
                    call({"op": "update_column", "name": op[1],
                          "bits": [int(bit) for bit in op[2]]})
                elif op[0] == "write":
                    call({"op": "write_slice", "name": op[1],
                          "offset": op[2],
                          "bits": [int(bit) for bit in op[3]]})
                elif op[0] == "query":
                    self.counts.append(call({"op": "query",
                                             "expr": op[1]})["count"])
            sock.close()
        except Exception as exc:  # surfaced by the main thread
            self.error = exc


def tenant_schedule(seed: int):
    """A deterministic per-tenant schedule of creates/queries/writes."""
    rng = np.random.default_rng(seed)
    bits = lambda: (rng.random(N_BITS) < 0.5).astype(np.uint8)
    schedule = [("create", "x", bits()), ("create", "y", bits())]
    for _ in range(6):
        roll = rng.random()
        if roll < 0.4:
            schedule.append(("query", "x & y"))
        elif roll < 0.6:
            schedule.append(("query", "x ^ y"))
        elif roll < 0.8:
            schedule.append(("update", "x", bits()))
        else:
            offset = int(rng.integers(0, N_BITS - 64))
            schedule.append(("write", "y", offset,
                             bits()[:64]))
    schedule.append(("query", "x | y"))
    return schedule


class TestAsyncSoak:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 10))
    def test_concurrent_tenants_match_serial_reference(self, seed):
        """Differential exactness under genuinely concurrent
        interleaved updates: every tenant's async result stream equals
        a serial engine replay of that tenant's schedule."""
        n_tenants = 4
        schedules = {f"t{i}": tenant_schedule(seed * 101 + i)
                     for i in range(n_tenants)}

        # Serial ground truth: one engine replay per tenant runs that
        # tenant's schedule in isolation.
        expected: dict[str, list[int]] = {}
        for tenant, schedule in schedules.items():
            ref = EngineReplay(n_bits=N_BITS, n_shards=3)
            results = [apply_op(ref, op) for op in schedule]
            expected[tenant] = [result.count for op, result
                                in zip(schedule, results)
                                if op[0] == "query"]

        service = BitwiseService(n_bits=N_BITS, n_shards=3)
        server = serve_tcp(service, 0, batch_window_s=0.001)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            clients = [_TenantClient(server.server_address[1],
                                     tenant, schedule)
                       for tenant, schedule in schedules.items()]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=60)
                assert not client.is_alive(), "client hung"
            for client in clients:
                assert client.error is None, client.error
                assert client.counts == expected[client.tenant], \
                    f"tenant {client.tenant} diverged"
        finally:
            server.shutdown()
            server.server_close()
            service.close()
