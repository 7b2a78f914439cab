"""Durability layer: WAL framing, snapshots, fault injection, crash
recovery, scheduler degradation and the retrying client."""

from __future__ import annotations

import json
import socket
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import (
    RetriesExhausted,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from repro.errors import ProtocolError, QueryError
from repro.service import (
    AdmissionError,
    BitwiseService,
    DurabilityManager,
    FaultInjector,
    InjectedFault,
    RequestScheduler,
    ShuttingDownError,
    serve_tcp,
)
from repro.service import wire
from repro.service.durability import (
    WAL_FILE_MAGIC,
    WriteAheadLog,
    read_snapshot,
    read_wal,
    recover_service,
    stats_from_dict,
    stats_to_dict,
    write_snapshot,
)
from tests.support.durability_state import (
    assert_recovered_equal,
    durable_state,
)

N_BITS = 256

pytestmark = pytest.mark.timeout(60)


def make_service(**kwargs):
    kwargs.setdefault("n_bits", N_BITS)
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("capacity", 4 * N_BITS)
    return BitwiseService("feram-2tnc", **kwargs)


def attach(service, data_dir, *, snapshot_every=None, sync="none",
           injector=None) -> DurabilityManager:
    """Open a durability manager on ``data_dir`` and attach it."""
    manager = DurabilityManager(data_dir, snapshot_every=snapshot_every,
                                sync=sync, injector=injector)
    manager.open(manager.load_base()[0])
    service.attach_durability(manager)
    return manager


@pytest.fixture
def data_dir(tmp_path):
    return tmp_path / "data"


# ----------------------------------------------------------------------
# Stats serialization
# ----------------------------------------------------------------------
def test_stats_roundtrip_is_exact(rng):
    service = make_service()
    try:
        for name in ("a", "b"):
            service.create_column(
                name, (rng.random(N_BITS) < 0.5).astype(np.uint8))
        service.query("a & ~b")
        ledger = service._ledger
        clone = stats_from_dict(
            json.loads(json.dumps(stats_to_dict(ledger))))
        assert clone.energy_j == ledger.energy_j  # repr round-trip
        assert clone.cycles == ledger.cycles
        assert clone.counts == ledger.counts
    finally:
        service.close()


# ----------------------------------------------------------------------
# fault injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_after_and_times_semantics(self):
        injector = FaultInjector()
        injector.arm("batch.exec", after=2, times=2)
        fired = [injector.fires("batch.exec") is not None
                 for _ in range(6)]
        assert fired == [False, False, True, True, False, False]
        assert injector.fired["batch.exec"] == 2

    def test_forever_and_disarm(self):
        injector = FaultInjector().arm("wal.fsync", times=-1)
        for _ in range(5):
            with pytest.raises(InjectedFault):
                injector.check("wal.fsync")
        injector.disarm("wal.fsync")
        injector.check("wal.fsync")  # no longer armed
        assert injector.fired["wal.fsync"] == 5

    def test_unknown_point_rejected(self):
        with pytest.raises(QueryError, match="unknown fault point"):
            FaultInjector().arm("wal.bogus")

    def test_from_spec(self):
        injector = FaultInjector.from_spec(
            "wal.fsync:after=3, batch.delay:param=0.05:times=2")
        assert injector._arms["wal.fsync"].after == 3
        assert injector._arms["batch.delay"].param == 0.05
        assert injector._arms["batch.delay"].times == 2
        assert FaultInjector.from_spec(None) is None
        assert FaultInjector.from_spec("") is None
        with pytest.raises(QueryError, match="unknown fault option"):
            FaultInjector.from_spec("wal.fsync:sometimes=1")


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_read_roundtrip(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, sync="none")
        payload = (rng.random(96) < 0.5).astype(np.uint8)
        wal.append({"kind": "update", "name": "a"}, payload)
        wal.append({"kind": "drop", "name": "b"}, None)
        wal.close()
        records, valid, torn = read_wal(path)
        assert not torn and valid == path.stat().st_size
        assert [meta["kind"] for meta, _ in records] == \
            ["update", "drop"]
        assert np.array_equal(records[0][1], payload)
        assert records[1][1] is None

    def test_torn_tail_is_discarded_and_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, sync="none")
        for index in range(3):
            wal.append({"kind": "drop", "index": index})
        wal.close()
        whole = path.read_bytes()
        path.write_bytes(whole + b"\x40\x00\x00\x00partial")
        records, valid, torn = read_wal(path)
        assert torn and len(records) == 3 and valid == len(whole)
        # Reopening truncates the torn bytes away.
        WriteAheadLog(path, sync="none").close()
        assert path.read_bytes() == whole

    def test_corrupt_crc_invalidates_the_tail_record(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, sync="none")
        for index in range(3):
            wal.append({"kind": "drop", "index": index})
        wal.close()
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        records, _, torn = read_wal(path)
        assert torn and [m["index"] for m, _ in records] == [0, 1]

    def test_foreign_file_treated_as_all_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"this is not a WAL")
        records, valid, torn = read_wal(path)
        assert records == [] and valid == 0 and torn
        wal = WriteAheadLog(path, sync="none")  # reinitializes
        wal.append({"kind": "drop"})
        wal.close()
        assert path.read_bytes().startswith(WAL_FILE_MAGIC)
        assert len(read_wal(path)[0]) == 1

    def test_missing_file_is_an_empty_log(self, tmp_path):
        assert read_wal(tmp_path / "absent.log") == ([], 0, False)

    def test_injected_torn_append_leaves_partial_record(self, tmp_path):
        path = tmp_path / "wal.log"
        injector = FaultInjector().arm("wal.torn", after=1)
        wal = WriteAheadLog(path, sync="none", injector=injector)
        wal.append({"kind": "drop", "index": 0})
        with pytest.raises(InjectedFault) as info:
            wal.append({"kind": "drop", "index": 1})
        assert info.value.crash
        wal.close()
        records, _, torn = read_wal(path)
        assert torn and len(records) == 1

    def test_clean_fault_rolls_the_log_back(self, tmp_path):
        """A failed fsync rejects the op; its record must not survive
        for replay, so the manager truncates back to the last commit."""
        injector = FaultInjector().arm("wal.fsync", after=1)
        manager = DurabilityManager(tmp_path, sync="always",
                                    injector=injector)
        manager.open(0)
        manager.log({"kind": "drop", "index": 0})
        with pytest.raises(InjectedFault) as info:
            manager.log({"kind": "drop", "index": 1})
        assert not info.value.crash
        manager.log({"kind": "drop", "index": 2})
        manager.close()
        records, _, torn = read_wal(manager.wal_path(0))
        assert not torn
        assert [m["index"] for m, _ in records] == [0, 2]


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_write_read_roundtrip(self, tmp_path, rng):
        path = tmp_path / "snap-00000001.snap"
        columns = {"a": (rng.random(N_BITS) < 0.5).astype(np.uint8),
                   "b": np.ones(N_BITS, dtype=np.uint8)}
        meta = {"n_bits": N_BITS, "rows_used": 2}
        write_snapshot(path, meta, columns)
        got_meta, got_columns = read_snapshot(path)
        assert got_meta == meta
        assert set(got_columns) == {"a", "b"}
        for name in columns:
            assert np.array_equal(got_columns[name], columns[name])

    def test_corrupt_body_raises(self, tmp_path):
        path = tmp_path / "snap-00000001.snap"
        write_snapshot(path, {"n_bits": 8}, {})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ProtocolError, match="corrupt"):
            read_snapshot(path)

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "snap-00000001.snap"
        write_snapshot(path, {"n_bits": 8}, {})
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ProtocolError):
            read_snapshot(path)

    def test_injected_partial_write_never_lands(self, tmp_path):
        """The tmp-write + rename protocol: a crash mid-write leaves
        only the temp file, never a partial file at the final name."""
        injector = FaultInjector().arm("snapshot.write")
        path = tmp_path / "snap-00000001.snap"
        with pytest.raises(InjectedFault):
            write_snapshot(path, {"n_bits": 8}, {},
                           injector=injector)
        assert not path.exists()


# ----------------------------------------------------------------------
# generations, rotation, checkpoints
# ----------------------------------------------------------------------
class TestGenerations:
    def test_fresh_directory_is_generation_zero(self, data_dir):
        manager = DurabilityManager(data_dir, sync="none")
        assert manager.load_base() == (0, None, {}, [], False)
        assert manager.generations() == []

    def test_checkpoint_rotates_and_retires(self, data_dir, rng):
        service = make_service()
        manager = attach(service, data_dir)
        try:
            service.create_column(
                "a", (rng.random(N_BITS) < 0.5).astype(np.uint8))
            assert service.checkpoint()["generation"] == 1
            service.update_column(
                "a", np.zeros(N_BITS, dtype=np.uint8))
            assert service.checkpoint()["generation"] == 2
            service.write_slice("a", 0, np.ones(7, dtype=np.uint8))
            assert service.checkpoint()["generation"] == 3
            # Only the newest snapshot and its fallback survive.
            assert manager.generations() == [2, 3]
            assert not manager.snap_path(1).exists()
            assert not manager.wal_path(0).exists()
        finally:
            service.close()

    def test_corrupt_newest_snapshot_falls_back(self, data_dir, rng):
        bits = (rng.random(N_BITS) < 0.5).astype(np.uint8)
        service = make_service()
        attach(service, data_dir)
        service.create_column("a", bits)
        service.checkpoint()                        # snap-1
        service.update_column("a", 1 - bits)
        service.checkpoint()                        # snap-2
        expected, _ = durable_state(service)
        service.close()
        # Corrupt the newest snapshot on disk: recovery must reach
        # the same state from snap-1 plus wal-1's replay.
        blob = bytearray(
            DurabilityManager(data_dir, sync="none")
            .snap_path(2).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        DurabilityManager(data_dir, sync="none") \
            .snap_path(2).write_bytes(bytes(blob))
        recovered = recover_service(data_dir, sync="none")
        try:
            assert recovered.durability.last_recovery["generation"] == 1
            assert np.array_equal(recovered.column_bits("a"), 1 - bits)
            got, _ = durable_state(recovered)
            assert got["rows_used"] == expected["rows_used"]
        finally:
            recovered.close()

    def test_auto_snapshot_after_n_barriers(self, data_dir, rng):
        service = make_service()
        manager = attach(service, data_dir, snapshot_every=3)
        try:
            service.create_column(
                "a", (rng.random(N_BITS) < 0.5).astype(np.uint8))
            service.create_column(
                "b", (rng.random(N_BITS) < 0.5).astype(np.uint8))
            assert manager.generation == 0
            service.update_column(
                "a", np.zeros(N_BITS, dtype=np.uint8))  # 3rd barrier
            assert manager.generation == 1
            assert manager.snapshots_written == 1
            assert manager.mutations_since_snapshot == 0
        finally:
            service.close()


# ----------------------------------------------------------------------
# recovery equivalence
# ----------------------------------------------------------------------
def exercise(service, rng) -> None:
    """A representative multi-tenant workload: quotas, mutations of
    every kind, cached + uncached queries, and a program run."""
    service.register_tenant("acme", quota_energy_nj=1e12,
                            max_pending=8)
    service.register_tenant("globex", quota_bits=64 * N_BITS)
    for name in ("a", "b", "c"):
        service.create_column(
            name, (rng.random(N_BITS) < 0.4).astype(np.uint8))
    service.create_column(
        "a", (rng.random(N_BITS) < 0.6).astype(np.uint8),
        tenant="acme")
    service.create_column(
        "k", (rng.random(N_BITS) < 0.2).astype(np.uint8),
        tenant="globex")
    service.query("a & b")
    service.query("a & b")                    # cache hit: logs nothing
    service.execute(["a ^ c", "~b"])
    service.query("a", tenant="acme")
    service.update_column("b", (rng.random(N_BITS) < 0.5)
                          .astype(np.uint8))
    service.write_slice("a", 32, np.ones(48, dtype=np.uint8),
                        tenant="acme")
    service.append_rows({"a": np.ones(64, dtype=np.uint8)}, 64)
    service.query("a | b")                    # miss: b was mutated
    from repro.arch.program import parse_program

    service.run_program(parse_program("t = a & c\nout = t ^ b"))
    service.drop_column("c")


class TestRecovery:
    def test_full_recovery_is_equivalent(self, data_dir, rng):
        service = make_service()
        attach(service, data_dir)
        exercise(service, rng)
        service.close()

        recovered = recover_service(data_dir, sync="none")
        try:
            info = recovered.durability.last_recovery
            assert info["generation"] == 0 and not info["snapshot"]
            assert info["records_replayed"] > 0
            assert not info["torn_tail_discarded"]
            assert_recovered_equal(service, recovered)
            # The recovered service keeps serving and keeps logging.
            before = recovered.durability.stats()["wal_records"]
            recovered.query("a ^ b")
            recovered.update_column(
                "b", np.zeros(N_BITS + 64, dtype=np.uint8))
            assert recovered.durability.stats()["wal_records"] > before
        finally:
            recovered.close()

    def test_recovery_through_snapshots(self, data_dir, rng):
        service = make_service()
        attach(service, data_dir, snapshot_every=4)
        exercise(service, rng)
        assert service.durability.generation >= 1
        service.close()
        recovered = recover_service(data_dir, sync="none",
                                    snapshot_every=4)
        try:
            assert recovered.durability.last_recovery["snapshot"]
            assert_recovered_equal(service, recovered)
        finally:
            recovered.close()

    def test_recover_then_mutate_then_recover_again(self, data_dir,
                                                    rng):
        service = make_service()
        attach(service, data_dir)
        exercise(service, rng)
        service.close()
        first = recover_service(data_dir, sync="none")
        first.update_column("a", np.zeros(N_BITS + 64,
                                          dtype=np.uint8))
        first.query("a | b")
        first.close()
        second = recover_service(data_dir, sync="none")
        try:
            assert_recovered_equal(first, second)
            assert int(second.column_bits("a").sum()) == 0
        finally:
            second.close()

    def test_snapshot_geometry_beats_cli_defaults(self, data_dir, rng):
        service = make_service(n_shards=3, capacity=2 * N_BITS)
        attach(service, data_dir)
        service.create_column(
            "a", (rng.random(N_BITS) < 0.5).astype(np.uint8))
        service.checkpoint()
        service.close()
        recovered = recover_service(data_dir, sync="none",
                                    n_bits=8, n_shards=1, capacity=64)
        try:
            assert recovered.n_bits == N_BITS
            assert recovered.n_shards == 3
            assert recovered.capacity == 2 * N_BITS
        finally:
            recovered.close()

    def test_fresh_directory_requires_geometry(self, data_dir):
        with pytest.raises(QueryError, match="n_bits"):
            recover_service(data_dir, sync="none")

    def test_durability_requires_functional_mode(self, data_dir):
        service = BitwiseService("feram-2tnc", n_bits=N_BITS,
                                 n_shards=2, functional=False)
        try:
            with pytest.raises(QueryError, match="functional"):
                attach(service, data_dir)
        finally:
            service.close()

    def test_stats_surface_durability(self, data_dir, rng):
        service = make_service()
        assert service.stats()["durability"] is None
        attach(service, data_dir, snapshot_every=100, sync="none")
        try:
            service.create_column(
                "a", (rng.random(N_BITS) < 0.5).astype(np.uint8))
            report = service.stats()["durability"]
            assert report["generation"] == 0
            assert report["wal_records"] == 2  # geometry + create
            assert report["snapshot_every"] == 100
        finally:
            service.close()


# ----------------------------------------------------------------------
# crash points: torn WAL tails at arbitrary records
# ----------------------------------------------------------------------
def apply_script(service, ops, *, stop_on_fault: bool = False) -> int:
    """Run a mutation script; returns how many ops fully applied."""
    applied = 0
    for op in ops:
        kind = op[0]
        try:
            if kind == "create":
                _, name, seed, width = op
                service.create_column(
                    name, (np.random.default_rng(seed)
                           .random(width) < 0.5).astype(np.uint8))
            elif kind == "drop":
                service.drop_column(op[1])
            elif kind == "update":
                _, name, seed, width = op
                service.update_column(
                    name, (np.random.default_rng(seed)
                           .random(width) < 0.5).astype(np.uint8))
            elif kind == "write":
                _, name, offset, length, seed = op
                service.write_slice(
                    name, offset,
                    (np.random.default_rng(seed)
                     .random(length) < 0.5).astype(np.uint8))
            elif kind == "append":
                _, n, seed, name = op
                service.append_rows(
                    {name: (np.random.default_rng(seed)
                            .random(n) < 0.5).astype(np.uint8)}, n)
            else:
                raise AssertionError(kind)
        except InjectedFault:
            if not stop_on_fault:
                raise
            return applied
        applied += 1
    return applied


@st.composite
def crash_scripts(draw):
    """(ops, crash_index): a mutation script and where the WAL tears."""
    width = 128
    columns = ["c0", "c1"]
    next_id = 2
    ops = []
    for _ in range(draw(st.integers(3, 9))):
        kinds = ["update", "write", "append", "create"]
        if len(columns) > 1:
            kinds.append("drop")
        kind = draw(st.sampled_from(kinds))
        seed = draw(st.integers(0, 2**16))
        if kind == "create":
            name = f"c{next_id}"
            next_id += 1
            columns.append(name)
            ops.append(("create", name, seed, width))
        elif kind == "drop":
            name = draw(st.sampled_from(columns))
            columns.remove(name)
            ops.append(("drop", name))
        elif kind == "update":
            ops.append(("update", draw(st.sampled_from(columns)),
                        seed, width))
        elif kind == "write":
            offset = draw(st.integers(0, width - 8))
            length = draw(st.integers(1, width - offset))
            ops.append(("write", draw(st.sampled_from(columns)),
                        offset, length, seed))
        else:
            n = draw(st.integers(1, 16))
            ops.append(("append", n, seed,
                        draw(st.sampled_from(columns))))
            width += n
    return ops, draw(st.integers(0, len(ops)))


class TestCrashPoints:
    @settings(max_examples=12, deadline=None)
    @given(crash_scripts())
    def test_torn_tail_recovers_the_committed_prefix(self, script):
        """For any mutation script and any crash record index, the
        recovered state equals a reference service that ran exactly
        the ops whose WAL records committed."""
        ops, crash_at = script
        setup = [("create", "c0", 1, 128), ("create", "c1", 2, 128)]
        # +1 for the geometry bootstrap record logged at attach.
        injector = FaultInjector().arm(
            "wal.torn", after=1 + len(setup) + crash_at)
        with tempfile.TemporaryDirectory() as tmp:
            live = make_service(n_bits=128, capacity=1024)
            attach(live, tmp, injector=injector)
            apply_script(live, setup)
            applied = apply_script(live, ops, stop_on_fault=True)
            assert applied == min(crash_at, len(ops))
            live.close()

            recovered = recover_service(tmp, sync="none")
            reference = make_service(n_bits=128, capacity=1024)
            try:
                apply_script(reference, setup)
                apply_script(reference, ops[:applied])
                assert_recovered_equal(reference, recovered)
            finally:
                recovered.close()
                reference.close()

    def test_crash_during_a_charges_record_drops_that_batch(
            self, data_dir, rng):
        """If the process dies while appending a query's accounting
        record, recovery lands on the state without that batch — the
        committed-prefix contract, not a half-applied charge."""
        bits = (rng.random(N_BITS) < 0.5).astype(np.uint8)
        injector = FaultInjector()
        service = make_service()
        attach(service, data_dir, injector=injector)
        service.create_column("a", bits)
        service.create_column("b", 1 - bits)
        injector.arm("wal.torn")          # next append: the charges
        with pytest.raises(InjectedFault):
            service.query("a & b")
        service.close()

        recovered = recover_service(data_dir, sync="none")
        reference = make_service()
        try:
            reference.create_column("a", bits)
            reference.create_column("b", 1 - bits)
            assert_recovered_equal(reference, recovered)
        finally:
            recovered.close()
            reference.close()

    def test_clean_wal_failure_rejects_without_applying(
            self, data_dir, rng):
        """Graceful degradation: a failed (non-crash) WAL append
        rejects the mutation, leaves memory untouched, and the service
        keeps serving."""
        bits = (rng.random(N_BITS) < 0.5).astype(np.uint8)
        injector = FaultInjector()
        service = make_service()
        attach(service, data_dir, sync="always", injector=injector)
        try:
            service.create_column("a", bits)
            injector.arm("wal.fsync")
            with pytest.raises(InjectedFault):
                service.update_column(
                    "a", np.zeros(N_BITS, dtype=np.uint8))
            assert np.array_equal(service.column_bits("a"), bits)
            assert service.mutations_applied == 0
            service.update_column("a", 1 - bits)   # recovered
            assert np.array_equal(service.column_bits("a"), 1 - bits)
        finally:
            service.close()


# ----------------------------------------------------------------------
# scheduler: timeouts, typed rejections, drain
# ----------------------------------------------------------------------
class TestSchedulerFaults:
    @pytest.fixture
    def service(self, rng):
        svc = make_service()
        for name in ("a", "b"):
            svc.create_column(
                name, (rng.random(N_BITS) < 0.5).astype(np.uint8))
        yield svc
        svc.close()

    def test_queue_full_rejection_carries_retry_hint(self, service):
        import asyncio

        async def scenario():
            scheduler = RequestScheduler(service, window_s=0.2,
                                         max_pending=1)
            scheduler.start()
            try:
                task = asyncio.ensure_future(
                    scheduler.submit_query(None, "a & b"))
                await asyncio.sleep(0)
                with pytest.raises(AdmissionError) as info:
                    await scheduler.submit_query(None, "a | b")
                await task
                return info.value.retry_after_ms
            finally:
                await scheduler.stop()

        hint = asyncio.run(scenario())
        assert hint is not None and hint > 0

    def test_energy_rejection_carries_retry_hint(self, service):
        import asyncio

        from repro.service.scheduler import ENERGY_RETRY_AFTER_MS

        service.register_tenant("capped", quota_energy_nj=0.0)

        async def scenario():
            scheduler = RequestScheduler(service, window_s=0.01)
            scheduler.start()
            try:
                with pytest.raises(AdmissionError) as info:
                    await scheduler.submit_query("capped", "a & b")
                return info.value.retry_after_ms
            finally:
                await scheduler.stop()

        assert asyncio.run(scenario()) == ENERGY_RETRY_AFTER_MS

    def test_request_timeout_degrades_gracefully(self, service):
        import asyncio

        injector = FaultInjector().arm("batch.delay", param=0.5)

        async def scenario():
            scheduler = RequestScheduler(service, window_s=0.01,
                                         request_timeout_s=0.05,
                                         injector=injector)
            scheduler.start()
            try:
                with pytest.raises(QueryError, match="timed out"):
                    await scheduler.submit_query(None, "a & b")
                # The next round is healthy again.
                result = await scheduler.submit_query(None, "a | b")
                return result, dict(scheduler.metrics)
            finally:
                await scheduler.stop()

        result, metrics = asyncio.run(scenario())
        assert result.count >= 0
        assert metrics["timeouts"] == 1

    def test_injected_batch_fault_falls_back_per_item(self, service):
        import asyncio

        injector = FaultInjector().arm("batch.exec")

        async def scenario():
            scheduler = RequestScheduler(service, window_s=0.01,
                                         injector=injector)
            scheduler.start()
            try:
                return await scheduler.submit_query(None, "a & b")
            finally:
                await scheduler.stop()

        result = asyncio.run(scenario())
        assert result.count >= 0
        assert injector.fired["batch.exec"] == 1

    def test_mutation_round_group_commits_one_fsync(
            self, service, data_dir, rng):
        """Barriers queued into the same scheduler round share a
        single WAL fsync (group commit), yet every record lands and
        replays."""
        import asyncio

        manager = attach(service, data_dir, sync="batch")
        # Logged post-attach, so recovery can rebuild it from the WAL
        # alone (the fixture's a/b predate the log).
        service.create_column("g", np.zeros(N_BITS, dtype=np.uint8))
        bits = (rng.random(64) < 0.5).astype(np.uint8)

        async def scenario():
            scheduler = RequestScheduler(service, window_s=0.05)
            scheduler.start()
            try:
                before = manager.stats()["wal_fsyncs"]
                tasks = [asyncio.ensure_future(
                    scheduler.submit_exclusive(
                        None,
                        lambda k=k: service.write_slice(
                            "g", 64 * k, bits)))
                    for k in range(4)]
                await asyncio.gather(*tasks)
                after = manager.stats()["wal_fsyncs"]
                return after - before, dict(scheduler.metrics)
            finally:
                await scheduler.stop()

        fsyncs, metrics = asyncio.run(scenario())
        assert fsyncs == 1
        assert metrics["exclusives"] == 4
        assert metrics["wal_group_commits"] == 1
        assert service.mutations_applied == 4
        service.close()
        recovered = recover_service(data_dir, sync="none")
        try:
            assert recovered.mutations_applied == 4
            page = recovered.read_bits_array("g", 64 * 3, 64)
            assert np.array_equal(page["bits"], bits)
        finally:
            recovered.close()

    def test_group_fsync_failure_withholds_every_ack(
            self, service, data_dir, rng):
        """A failed group fsync means nothing in the round is durable
        — every op in it settles with the error, none is acked."""
        import asyncio

        injector = FaultInjector().arm("wal.fsync")
        attach(service, data_dir, sync="batch", injector=injector)
        bits = (rng.random(64) < 0.5).astype(np.uint8)

        async def scenario():
            scheduler = RequestScheduler(service, window_s=0.05,
                                         injector=injector)
            scheduler.start()
            try:
                tasks = [asyncio.ensure_future(
                    scheduler.submit_exclusive(
                        None,
                        lambda k=k: service.write_slice(
                            "a", 64 * k, bits)))
                    for k in range(2)]
                results = await asyncio.gather(
                    *tasks, return_exceptions=True)
                # The scheduler survives: the next round is healthy.
                healthy = await scheduler.submit_exclusive(
                    None, lambda: service.write_slice("b", 0, bits))
                return results, healthy
            finally:
                await scheduler.stop()

        results, healthy = asyncio.run(scenario())
        assert all(isinstance(r, InjectedFault) for r in results)
        assert healthy.rows_written >= 0

    def test_drain_rejects_new_work_then_settles(self, service):
        import asyncio

        async def scenario():
            scheduler = RequestScheduler(service, window_s=0.02)
            scheduler.start()
            try:
                task = asyncio.ensure_future(
                    scheduler.submit_query(None, "a & b"))
                await asyncio.sleep(0)
                scheduler.begin_drain()
                with pytest.raises(ShuttingDownError):
                    await scheduler.submit_query(None, "a | b")
                assert await scheduler.drain(timeout_s=5.0)
                result = await task
                return result, dict(scheduler.metrics)
            finally:
                await scheduler.stop()

        result, metrics = asyncio.run(scenario())
        assert result.count >= 0
        assert metrics["drain_rejections"] == 1


# ----------------------------------------------------------------------
# the wire: typed rejections and graceful shutdown
# ----------------------------------------------------------------------
class _Line:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=10)
        self.stream = self.sock.makefile("rw")

    def call(self, request: dict) -> dict:
        self.stream.write(json.dumps(request) + "\n")
        self.stream.flush()
        return json.loads(self.stream.readline())

    def close(self):
        self.sock.close()


def start_server(service, **kwargs):
    server = serve_tcp(service, 0, batch_window_s=0.002, **kwargs)
    thread = threading.Thread(target=server.serve_forever,
                              daemon=True)
    thread.start()
    return server, server.server_address[1]


class TestWireFaults:
    @pytest.fixture
    def service(self, rng):
        svc = make_service()
        svc.create_column(
            "a", (rng.random(N_BITS) < 0.5).astype(np.uint8))
        svc.register_tenant("capped", quota_energy_nj=0.0)
        svc.create_column("a", np.ones(N_BITS, dtype=np.uint8),
                          tenant="capped")
        yield svc
        svc.close()

    def test_admission_rejection_on_the_json_wire(self, service):
        server, port = start_server(service)
        client = _Line(port)
        try:
            assert client.call({"op": "hello",
                                "tenant": "capped"})["ok"]
            response = client.call({"op": "query", "expr": "a"})
            assert not response["ok"]
            assert response["code"] == "admission"
            assert response["retry_after_ms"] == 1000.0
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_admission_rejection_on_the_binary_wire(self, service):
        server, port = start_server(service)
        sock = socket.create_connection(("127.0.0.1", port),
                                        timeout=10)
        stream = sock.makefile("rwb")
        try:
            hello = {"op": "hello", "tenant": "capped",
                     "wire": "binary"}
            stream.write((json.dumps(hello) + "\n").encode())
            stream.flush()
            assert json.loads(stream.readline())["ok"]
            stream.write(wire.encode_frame(
                wire.KIND_REQUEST, {"op": "query", "expr": "a"}))
            stream.flush()
            header = wire.decode_header(
                stream.read(wire.HEADER_SIZE))
            response, _ = wire.decode_frame(
                header, stream.read(header.meta_len),
                stream.read(header.payload_bytes))
            assert not response["ok"]
            assert response["code"] == "admission"
            assert response["retry_after_ms"] == 1000.0
        finally:
            sock.close()
            server.shutdown()
            server.server_close()

    def test_graceful_shutdown_notifies_connections(self, service):
        server, port = start_server(service)
        client = _Line(port)
        try:
            assert client.call({"op": "query", "expr": "a"})["ok"]
            server.shutdown()
            server.server_close()
            goodbye = json.loads(client.stream.readline())
            assert not goodbye["ok"]
            assert goodbye["code"] == "shutting_down"
            assert client.stream.readline() == ""   # then EOF
        finally:
            client.close()

    def test_shutdown_flushes_a_final_snapshot(self, data_dir, rng):
        service = make_service()
        attach(service, data_dir, sync="none")
        server, port = start_server(service)
        client = _Line(port)
        bits = (rng.random(N_BITS) < 0.5).astype(np.uint8)
        try:
            assert client.call({
                "op": "create_column", "name": "w",
                "bits": bits.astype(int).tolist()})["ok"]
        finally:
            client.close()
            server.shutdown()
            server.server_close()
        expected, _ = durable_state(service)
        service.close()
        recovered = recover_service(data_dir, sync="none")
        try:
            info = recovered.durability.last_recovery
            assert info["snapshot"]          # the shutdown checkpoint
            assert info["records_replayed"] == 0
            assert np.array_equal(recovered.column_bits("w"), bits)
        finally:
            recovered.close()


# ----------------------------------------------------------------------
# retrying client
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_hint_overrides_computed_backoff(self):
        policy = RetryPolicy(jitter=0.0)
        assert policy.delay_s(0) == 0.010
        assert policy.delay_s(3) == 0.080
        assert policy.delay_s(0, hint_ms=500.0) == 0.5
        capped = RetryPolicy(jitter=0.0, max_ms=100.0)
        assert capped.delay_s(10) == 0.1

    def test_seeded_jitter_is_deterministic(self):
        first = [RetryPolicy(seed=7).delay_s(i) for i in range(4)]
        second = [RetryPolicy(seed=7).delay_s(i) for i in range(4)]
        assert first == second
        assert first != [RetryPolicy(jitter=0.0).delay_s(i)
                         for i in range(4)]


class TestServiceClient:
    @pytest.fixture
    def served(self, rng):
        svc = make_service()
        svc.create_column(
            "a", (rng.random(N_BITS) < 0.5).astype(np.uint8))
        svc.register_tenant("capped", quota_energy_nj=0.0)
        svc.create_column("a", np.ones(N_BITS, dtype=np.uint8),
                          tenant="capped")
        server, port = start_server(svc)
        yield svc, port
        server.shutdown()
        server.server_close()
        svc.close()

    def test_roundtrip_and_nonretryable_errors(self, served):
        service, port = served
        with ServiceClient("127.0.0.1", port) as client:
            result = client.query("a")
            assert result["count"] == \
                int(service.column_bits("a").sum())
            assert len(client.batch(["a", "~a"])) == 2
            with pytest.raises(ServiceError):
                client.query("zzz")
            assert client.metrics["retries"] == 0

    def test_admission_backoff_honors_the_server_hint(self, served):
        _, port = served
        sleeps: list[float] = []
        client = ServiceClient(
            "127.0.0.1", port, tenant="capped",
            policy=RetryPolicy(max_attempts=3, jitter=0.0),
            sleep=sleeps.append)
        with client:
            with pytest.raises(RetriesExhausted) as info:
                client.query("a")
        assert info.value.last_error.code == "admission"
        assert sleeps == [1.0, 1.0]         # the 1000 ms server hint
        assert client.metrics["retries"] == 2
        assert client.metrics["backoff_s"] == 2.0

    def test_binary_wire_bulk_ops(self, served, rng):
        _, port = served
        payload = (rng.random(N_BITS) < 0.5).astype(np.uint8)
        with ServiceClient("127.0.0.1", port,
                           wire="binary") as client:
            assert client.hello is None
            client.create_column("bw", payload)
            assert client.hello["wire"] == "binary"
            page = client.bits("bw", 0, N_BITS)
            assert np.array_equal(page["bits"], payload)
            client.append_rows({"bw": np.ones(32, dtype=np.uint8)})
            assert client.query("bw")["count"] == \
                int(payload.sum()) + 32

    def test_reconnects_through_dropped_connections(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        port = listener.getsockname()[1]
        responses = [{"ok": False, "code": "shutting_down",
                      "error": "server shutting down"},
                     {"ok": True, "count": 5}]

        def serve():
            # Each connection: hello, then ONE request, then close —
            # so every extra request forces a client reconnect.
            for response in responses:
                conn, _ = listener.accept()
                stream = conn.makefile("rwb")
                assert stream.readline()       # hello
                stream.write(json.dumps(
                    {"ok": True, "tenant": None}).encode() + b"\n")
                stream.flush()
                assert stream.readline()       # the request
                stream.write(json.dumps(response).encode() + b"\n")
                stream.flush()
                conn.close()
            listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        sleeps: list[float] = []
        client = ServiceClient(
            "127.0.0.1", port,
            policy=RetryPolicy(max_attempts=4, jitter=0.0),
            sleep=sleeps.append)
        with client:
            response = client.call({"op": "query", "expr": "a"})
        thread.join(timeout=10)
        assert response["count"] == 5
        # shutting_down forced a disconnect; the retry reconnected.
        assert client.metrics["reconnects"] == 1
        assert client.metrics["retries"] == 1
        assert len(sleeps) == 1
