"""Multi-process shard workers over the shared-memory column store.

The contract under test, end to end:

* the process-pool executor tier is **bit- and Stats-exact** against
  the reference replay and the plain-numpy shadow on both
  technologies, across worker counts, including full mutation/query
  op scripts;
* a worker killed with ``kill -9`` mid-stream is detected, respawned
  and its job replayed with identical results (column segments are
  read-only to workers, so replay is safe); a failure that survives
  the replay, and a child that dies in the spawn bootstrap, raise
  typed errors carrying the cause;
* a worker runs a row block wider than one tile exactly;
* shared-memory hygiene: every ``/dev/shm`` segment this stack
  creates (``repb*``) is unlinked by ``close()`` — asserted by an
  autouse fixture around *every* test in this module — and by process
  exit when ``close()`` never runs.
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.errors import QueryError, WorkerError
from repro.service import BitwiseService
from repro.service.columnstore import ColumnStore
from repro.service.shard_workers import WorkerPool
from tests.support.differential import (
    assert_ops_equivalent,
    assert_program_equivalent,
)

N_BITS = 4096

pytestmark = pytest.mark.timeout(120)


def _repb_segments() -> set[str]:
    return {os.path.basename(p)
            for p in glob.glob("/dev/shm/repb*")}


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Every test must unlink what it links: no new ``/dev/shm/repb*``
    entries may survive the test body."""
    before = _repb_segments()
    yield
    leaked = sorted(_repb_segments() - before)
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def _table(rng, names="abc", n_bits=N_BITS):
    return {name: rng.integers(0, 2, n_bits, dtype=np.uint8)
            for name in names}


def _service(*, workers=1, n_shards=4, n_bits=N_BITS, **kwargs):
    svc = BitwiseService("feram-2tnc", n_bits=n_bits,
                         n_shards=n_shards, workers=workers,
                         capacity=2 * n_bits, **kwargs)
    svc._parallel_min_work = 0  # engage the pool on tiny tables
    return svc


# ----------------------------------------------------------------------
# shared-memory ColumnStore: storage semantics
# ----------------------------------------------------------------------
class TestSharedColumnStore:
    def test_matches_heap_store(self, rng):
        base = ColumnStore(N_BITS, 4)
        shared = ColumnStore(N_BITS, 4, shared=True)
        try:
            bits = rng.integers(0, 2, N_BITS, dtype=np.uint8)
            base.add("a", bits)
            shared.add("a", bits)
            assert np.array_equal(shared.matrix("a"), base.matrix("a"))
            assert shared.generations["a"] == 1

            new = rng.integers(0, 2, N_BITS, dtype=np.uint8)
            base.write("a", 0, new)
            shared.write("a", 0, new)
            assert np.array_equal(shared.matrix("a"), base.matrix("a"))
            assert shared.generations["a"] == base.generations["a"] == 2

            segname = shared.segment_name("a")
            assert segname.startswith("repb")
            assert shared.drop("a") == segname
            assert base.drop("a") is None
            # unlinked from /dev/shm immediately...
            assert segname not in _repb_segments()
        finally:
            shared.close()

    @pytest.mark.parametrize("shared", [False, True])
    def test_write_is_in_place_not_rebind(self, rng, shared):
        store = ColumnStore(N_BITS, 4, shared=shared)
        try:
            store.add("a", rng.integers(0, 2, N_BITS, dtype=np.uint8))
            view = store.matrix("a")
            store.write("a", 0,
                        rng.integers(0, 2, N_BITS, dtype=np.uint8))
            assert store.matrix("a") is view
        finally:
            store.close()

    def test_close_is_idempotent_and_unlinks_everything(self, rng):
        shared = ColumnStore(N_BITS, 4, shared=True)
        shared.add("a", rng.integers(0, 2, N_BITS, dtype=np.uint8))
        prefix = shared._arena.prefix
        mine = {s for s in _repb_segments() if s.startswith(prefix)}
        assert len(mine) == 2  # column + mask segments while open
        shared.close()
        shared.close()
        assert not {s for s in _repb_segments() if s.startswith(prefix)}


# ----------------------------------------------------------------------
# differential: process pool vs reference replay vs numpy truth
# ----------------------------------------------------------------------
class TestProcessPoolDifferential:
    @pytest.mark.parametrize("technology", ["feram-2tnc", "dram"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_program_bit_and_stats_exact(self, rng, technology,
                                         workers):
        from repro.arch.program import Program

        table = _table(rng, "abcd")
        program = Program([
            ("t", "a & ~b"),
            ("u", "t ^ (c | d)"),
            ("v", "maj(t, u, a)"),
        ], outputs=("u", "v"))
        assert_program_equivalent(
            program, table, technology=technology, n_shards=4,
            workers=workers, parallel_min_work=0)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_ops_script_exact_across_worker_counts(self, rng, workers):
        table = _table(rng, "ab", 1024)
        ops = [
            ("query", "a & b"),
            ("update", "a", rng.integers(0, 2, 1024, dtype=np.uint8)),
            ("query", "a ^ b"),
            ("create", "c", rng.integers(0, 2, 1024, dtype=np.uint8)),
            ("query", "maj(a, b, c)"),
            ("write", "b", 100, rng.integers(0, 2, 300,
                                             dtype=np.uint8)),
            ("query", "a | ~b"),
            ("drop", "c"),
            ("query", "a & b"),
            ("append", {"a": np.ones(64, dtype=np.uint8)}),
            ("query", "a | b"),
        ]
        assert_ops_equivalent(
            table, ops, n_shards=4, workers=workers,
            parallel_min_work=0 if workers else None,
            capacity=1024 + 64)


# ----------------------------------------------------------------------
# worker crash recovery
# ----------------------------------------------------------------------
class TestWorkerCrash:
    def test_kill9_respawns_and_replays_bit_exact(self, rng):
        svc = _service(workers=2)
        try:
            for name, bits in _table(rng).items():
                svc.create_column(name, bits)
            first = svc.query("a & (b | ~c)", use_cache=False)
            pool = svc._worker_pool
            assert pool is not None and pool.stats()["started"]

            victim = pool._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()

            second = svc.query("a & (b | ~c)", use_cache=False)
            assert second.count == first.count
            assert np.array_equal(second.bits, first.bits)
            assert pool.stats()["respawns"] == 1
            # the replacement is a different process, fully re-shipped
            assert pool._workers[0].process.pid != victim.pid
        finally:
            svc.close()

    def test_pool_survives_repeated_kills(self, rng):
        svc = _service(workers=2)
        try:
            bits = _table(rng)
            for name, values in bits.items():
                svc.create_column(name, values)
            truth = int(np.sum(bits["a"] & bits["b"]))
            for round_no in range(3):
                result = svc.query("a & b", use_cache=False)
                assert result.count == truth, f"round {round_no}"
                victim = svc._worker_pool._workers[
                    round_no % 2].process
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10.0)
            assert svc.query("a & b", use_cache=False).count == truth
            assert svc._worker_pool.stats()["respawns"] == 3
        finally:
            svc.close()


    def test_failure_after_respawn_carries_the_signal(self, rng,
                                                      monkeypatch):
        """A worker that dies again after its respawn raises a typed
        error naming the signal, not a bare 'unresponsive'."""
        respawn = WorkerPool._respawn

        def respawn_and_kill(pool, index):
            respawn(pool, index)
            victim = pool._workers[index].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)

        svc = _service(workers=2)
        try:
            for name, bits in _table(rng).items():
                svc.create_column(name, bits)
            svc.query("a & b", use_cache=False)
            monkeypatch.setattr(WorkerPool, "_respawn", respawn_and_kill)
            victim = svc._worker_pool._workers[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            with pytest.raises(WorkerError) as info:
                svc.query("a | b", use_cache=False)
            error = info.value
            assert isinstance(error, QueryError)
            assert error.worker == 1
            assert error.exitcode == -signal.SIGKILL
            assert error.signal == signal.SIGKILL
            assert "SIGKILL" in str(error)
        finally:
            svc.close()

    def test_job_failure_carries_the_worker_exception(self, rng):
        """A job the worker cannot run raises a typed error with the
        worker's exception text, remembered for later failures."""
        from repro.arch.expr import compile_expr
        from repro.arch.program import vector_payload

        store = ColumnStore(1024, 4, shared=True)
        pool = WorkerPool(store.shape, workers=2)
        try:
            store.add("a", rng.integers(0, 2, 1024, dtype=np.uint8))
            key, spec = vector_payload(compile_expr("a & zz"))
            with pytest.raises(WorkerError) as info:
                pool.execute(key, spec, {"a": store.segment_name("a")},
                             None, [None])
            assert "zz" in info.value.last_error
            assert "zz" in str(info.value)
            assert "zz" in pool._workers[0].last_error
        finally:
            pool.close()
            store.close()


# ----------------------------------------------------------------------
# spawn bootstrap failures
# ----------------------------------------------------------------------
class TestSpawnFailure:
    def test_unguarded_main_script_fails_fast(self, tmp_path):
        """A main script without the ``__main__`` guard makes every
        spawned child re-run it and die while bootstrapping; the first
        such death raises at once, naming the guard."""
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent("""
            import time
            import numpy as np
            from repro.errors import WorkerSpawnError
            from repro.service import BitwiseService

            svc = BitwiseService(n_bits=4096, workers=2)
            svc._parallel_min_work = 0  # scatter to the workers
            svc.create_column("a", np.ones(4096, dtype=np.uint8))
            start = time.perf_counter()
            try:
                svc.query("a")
            except WorkerSpawnError as exc:
                print("respawns", svc._worker_pool.respawns)
                print("seconds", time.perf_counter() - start)
                print("error", exc)
            finally:
                svc.close()
        """))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True,
                              timeout=90)
        assert done.returncode == 0, done.stderr
        lines = dict(line.split(" ", 1)
                     for line in done.stdout.splitlines()
                     if line.split(" ", 1)[0] in
                     ("respawns", "seconds", "error"))
        assert "error" in lines, (done.stdout, done.stderr)
        assert 'if __name__ == "__main__":' in lines["error"]
        assert str(script) in lines["error"]
        assert lines["respawns"] == "0"
        # at once: well inside the 60 s reply timeout
        assert float(lines["seconds"]) < 30.0


# ----------------------------------------------------------------------
# tiled execution in the workers
# ----------------------------------------------------------------------
class TestTiledWorkers:
    def test_row_block_wider_than_a_tile(self):
        """The BNN layer's schedule needs enough scratch slots that a
        1Mi-lane shard row spans several tiles inside each worker;
        outputs and counts still match the workload's numpy model."""
        from repro.workloads.bnn import BnnInference
        from repro.workloads.programs import generate_inputs

        workload = BnnInference(1 << 20).as_program(seed=2)
        inputs = generate_inputs(workload, seed=2)
        n_lanes = workload.n_lanes
        svc = _service(workers=2, n_bits=n_lanes)
        try:
            for name, bits in inputs.items():
                svc.create_column(name, bits)
            cprog = svc.compile_program(workload.program)
            schedule = cprog.vector_program(fused=True).schedule()
            row_words = svc._store.shape[1]
            assert schedule.tile_words < row_words
            result = svc.run_program(cprog)
            assert svc._worker_pool.stats()["jobs"] >= 2
            expected = workload.reference(inputs)
            for name, bits in expected.items():
                assert np.array_equal(result.outputs[name], bits), name
                assert result.counts[name] == int(bits.sum()), name
        finally:
            svc.close()


# ----------------------------------------------------------------------
# segment hygiene across the full service stack
# ----------------------------------------------------------------------
class TestSegmentHygiene:
    def test_service_close_unlinks_all_segments(self, rng):
        before = _repb_segments()
        svc = _service(workers=2)
        for name, bits in _table(rng).items():
            svc.create_column(name, bits)
        svc.query("a ^ b", use_cache=False)  # spin up the pool
        during = _repb_segments() - before
        assert during, "expected live store/out segments"
        svc.close()
        assert not (_repb_segments() - before)

    def test_drop_forgets_segment_in_workers(self, rng):
        svc = _service(workers=2)
        try:
            for name, bits in _table(rng).items():
                svc.create_column(name, bits)
            svc.query("a & c", use_cache=False)
            segname = svc._store.segment_name("c")
            svc.drop_column("c")
            assert segname not in _repb_segments()
            # remaining columns still fully queryable after the drop
            result = svc.query("a & b", use_cache=False)
            assert result.count >= 0
        finally:
            svc.close()

    def test_exit_without_close_unlinks_segments(self, tmp_path):
        """A process that exits without ``close()`` must unlink its
        segments itself — not leave them for the resource tracker to
        reap (and warn about) after the fact."""
        child = tmp_path / "child.py"
        child.write_text(textwrap.dedent("""
            import glob, os
            import numpy as np
            from repro.service import BitwiseService

            if __name__ == "__main__":
                svc = BitwiseService(n_bits=4096, workers=2)
                svc._parallel_min_work = 0  # scatter to the workers
                rng = np.random.default_rng(0)
                for name in "ab":
                    svc.create_column(
                        name, rng.integers(0, 2, 4096, dtype=np.uint8))
                assert svc.query("a & b").count > 0
                mine = glob.glob(f"/dev/shm/repb{os.getpid()}*")
                print(len(mine), svc.stats()["executor"]["mode"])
        """))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        done = subprocess.run([sys.executable, str(child)], env=env,
                              capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        live, mode = done.stdout.split()
        # store columns + mask, plus the pool's output segment
        assert int(live) == 4 and mode == "process"
        assert "leaked shared_memory" not in done.stderr
        # the autouse fixture asserts no repb* entry survived the child


# ----------------------------------------------------------------------
# worker pool plumbing
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_blocks_partition_all_rows(self):
        pool = WorkerPool((8, 16), workers=3)
        try:
            assert pool.blocks[0][0] == 0
            assert pool.blocks[-1][1] == 8
            for (_, hi), (lo, _) in zip(pool.blocks, pool.blocks[1:]):
                assert hi == lo
        finally:
            pool.close()

    def test_worker_count_clamped_to_rows(self):
        pool = WorkerPool((2, 16), workers=8)
        try:
            assert pool.n_workers == 2
        finally:
            pool.close()

    def test_plan_specs_ship_once_per_worker(self, rng):
        svc = _service(workers=2)
        try:
            for name, bits in _table(rng).items():
                svc.create_column(name, bits)
            for _ in range(3):
                svc.query("a & b", use_cache=False)
            stats = svc._worker_pool.stats()
            assert stats["jobs"] >= 6
            # one spec per worker, not one per job
            assert stats["plans_shipped"] == 2
        finally:
            svc.close()

    def test_stale_replies_never_attributed_to_next_job(self, rng):
        """A round that raises before draining every worker leaves
        replies in the pipes; the job-id echo must stop the next
        ``execute`` from consuming them as its own results."""
        from repro.arch.expr import compile_expr
        from repro.arch.program import vector_payload

        store = ColumnStore(1024, 4, shared=True)
        pool = WorkerPool(store.shape, workers=2)
        try:
            a = rng.integers(0, 2, 1024, dtype=np.uint8)
            b = rng.integers(0, 2, 1024, dtype=np.uint8)
            store.add("a", a)
            store.add("b", b)
            colspec = {"a": store.segment_name("a"),
                       "b": store.segment_name("b")}
            key_and, spec_and = vector_payload(compile_expr("a & b"))
            key_or, spec_or = vector_payload(compile_expr("a | b"))
            truth_and = int(np.sum(a & b))
            assert truth_and != int(np.sum(a | b))

            counts, _ = pool.execute(key_and, spec_and, colspec,
                                     None, [None])[None]
            assert int(counts.sum()) == truth_and

            # Simulate the failed round: dispatch a different plan to
            # every worker with a stale job id and never drain the
            # ("ok", stale_id, or_counts) replies.
            outs = [(None, pool._out_views[0][0])]
            for index, state in enumerate(pool._workers):
                state.conn.send(("exec", {
                    "id": 0, "plan": key_or, "spec": spec_or,
                    "cols": colspec, "mask": None,
                    "rows": pool.blocks[index], "outs": outs,
                    "gens": {}}))

            counts, matrix = pool.execute(key_and, spec_and, colspec,
                                          None, [None])[None]
            assert int(counts.sum()) == truth_and
            assert np.array_equal(
                matrix, store._pack((a & b).astype(np.uint8)))
        finally:
            pool.close()
            store.close()

    def test_plan_eviction_recovers_via_spec_reship(self, rng):
        """A worker that evicts a shipped plan from its bytecode
        cache replies ``need-spec``; the coordinator re-ships and the
        job succeeds — no permanent 'plan never shipped' failure."""
        from repro.arch.expr import compile_expr
        from repro.arch.program import vector_payload

        store = ColumnStore(1024, 4, shared=True)
        pool = WorkerPool(store.shape, workers=2)
        try:
            a = rng.integers(0, 2, 1024, dtype=np.uint8)
            b = rng.integers(0, 2, 1024, dtype=np.uint8)
            store.add("a", a)
            store.add("b", b)
            colspec = {"a": store.segment_name("a"),
                       "b": store.segment_name("b")}
            key_and, spec_and = vector_payload(compile_expr("a & b"))
            _, spec_or = vector_payload(compile_expr("a | b"))
            truth_and = int(np.sum(a & b))

            counts, _ = pool.execute(key_and, spec_and, colspec,
                                     None, [None])[None]
            assert int(counts.sum()) == truth_and

            # Push 256 more distinct plan ids through every worker so
            # the 256-entry worker cache evicts ``key_and``.
            for i in range(256):
                pool.execute(f"filler-{i}", spec_or, colspec, None,
                             [None])

            shipped_before = pool.plans_shipped
            counts, _ = pool.execute(key_and, spec_and, colspec,
                                     None, [None])[None]
            assert int(counts.sum()) == truth_and
            # recovered by re-shipping the spec, not by respawning
            assert pool.plans_shipped > shipped_before
            assert pool.respawns == 0
        finally:
            pool.close()
            store.close()
