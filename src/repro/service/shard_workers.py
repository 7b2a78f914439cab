"""Multi-process shard workers over a shared-memory column store.

With ``workers > 1`` the service's :class:`~repro.service.columnstore.
ColumnStore` allocates every packed ``(n_shards, words)`` uint64 matrix
in a named shared-memory segment, so scattering a query ships **no
column data** — only segment names.  :class:`WorkerPool` is the
scatter/gather coordinator over pinned worker processes (spawn
context; the coordinator has threads, fork is unsafe).  Each worker
owns a fixed contiguous block of matrix rows (= shards).  A job ships
only ``(plan id, bytecode spec on first sight, column segment names,
row span, output segment names)``; the worker runs the fused
:class:`~repro.arch.expr.VectorProgram` over its row block in the same
tiled pass as the coordinator, writing each output tile straight into
its shared output segment and counting it while it is in cache, and
returns only per-shard popcounts over the pipe.  Plan compilation,
caches, Stats accounting, durability and tenancy never leave the
coordinator.

Workers never write column segments, and the service runs every
scatter under its table read lock while ``ColumnStore.write`` stores
changed words in place under the write side — so a worker that dies
mid-batch (crash, ``kill -9``) or hangs past the timeout is respawned
and its job replayed bit-exactly.  A failure that survives the replay
raises :class:`~repro.errors.WorkerError` with the cause: the exit
code or signal and the worker's last exception text.  A worker greets
the coordinator once it is running; one that dies before that raises
:class:`~repro.errors.WorkerSpawnError` at once, naming the missing
``if __name__ == "__main__":`` guard when the spawned child had to
re-import an unguarded main script.

Shared-memory lifecycle: the coordinator exclusively creates and
unlinks segments (:class:`~repro.service.columnstore.SegmentArena`,
which also unlinks them if the process exits without ``close()``).
Workers only ever attach (never unlink, never unregister — the
resource tracker is shared with the coordinator), so a dying worker
can never take pages the coordinator still serves.  A dropped column's
segment is unlinked under the table write lock (after every in-flight
batch that could have bound it) and its name sent to
:meth:`WorkerPool.forget`, so workers release their mapping too.
"""

from __future__ import annotations

import ast
import itertools
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.errors import QueryError, WorkerError, WorkerSpawnError
from repro.service.columnstore import SegmentArena, close_quietly

__all__ = ["WorkerPool"]


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _attach(cache: dict, name: str,
            shape: tuple[int, int]) -> np.ndarray:
    entry = cache.get(name)
    if entry is None:
        # Attaching re-registers the name with the resource tracker
        # shared with the coordinator (spawn children inherit its fd);
        # the registration is a set-add, so it is idempotent and the
        # coordinator's unlink still unregisters exactly once.  A
        # worker must never unregister: it would erase the
        # coordinator's entry in the shared tracker.
        shm = shared_memory.SharedMemory(name=name)
        view = np.ndarray(shape, dtype=np.uint64, buffer=shm.buf)
        cache[name] = entry = (shm, view)
    return entry[1]


def _worker_main(conn, shape) -> None:
    """Shard-worker entry: greet the coordinator, serve jobs, and
    report any exception that ends the process."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        conn.send(("ready", os.getpid()))
        _serve(conn, tuple(shape))
    except BaseException as exc:
        try:
            conn.send(("fatal", repr(exc)))
        except (BrokenPipeError, OSError):
            pass
        raise


def _serve(conn, shape: tuple[int, int]) -> None:
    """Job loop: attach segments lazily, cache rebuilt bytecode by
    plan id, run row blocks, answer with popcounts."""
    from repro.arch.expr import VectorProgram

    segments: dict[str, tuple] = {}
    programs: dict[str, VectorProgram] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "ping":
            conn.send(("pong",))
            continue
        if kind == "forget":
            entry = segments.pop(message[1], None)
            if entry is not None:
                close_quietly(entry[0])
            continue
        # ("exec", job) — every reply echoes the job id so the
        # coordinator can discard stale replies left in the pipe by a
        # round that raised before draining every worker.
        job = message[1]
        job_id = job["id"]
        try:
            program = programs.get(job["plan"])
            if program is None:
                if job["spec"] is None:
                    # The plan was evicted from this cache after the
                    # coordinator shipped it; ask for a re-ship rather
                    # than failing the job permanently.
                    conn.send(("need-spec", job_id))
                    continue
                if len(programs) >= 256:
                    programs.clear()
                program = VectorProgram.from_spec(job["spec"])
                programs[job["plan"]] = program
            lo, hi = job["rows"]

            def block(segment: str) -> np.ndarray:
                return _attach(segments, segment, shape)[lo:hi]

            counts: dict = {}
            program.run_outputs(
                {logical: block(seg) for logical, seg in job["cols"].items()},
                shape=(hi - lo, shape[1]),
                out={key: block(seg) for key, seg in job["outs"]},
                mask=None if job["mask"] is None else block(job["mask"]),
                counts=counts)
            conn.send(("ok", job_id, {key: tally.tolist()
                                      for key, tally in counts.items()}))
        except Exception as exc:  # noqa: BLE001 - report, don't die
            try:
                conn.send(("err", job_id, repr(exc)))
            except (BrokenPipeError, OSError):
                break
    for entry in segments.values():
        close_quietly(entry[0])
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


def _is_main_guard(test: ast.expr) -> bool:
    """``__name__ == "__main__"`` in either operand order."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)):
        return False
    sides = [test.left, test.comparators[0]]
    return (any(isinstance(side, ast.Name) and side.id == "__name__"
                for side in sides)
            and any(isinstance(side, ast.Constant)
                    and side.value == "__main__" for side in sides))


def _unguarded_main() -> str | None:
    """Path of the ``__main__`` script a spawned child re-imports, if
    that script has no top-level ``if __name__ == "__main__":``."""
    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    if (main is None or getattr(main, "__spec__", None) is not None
            or not path or not os.path.exists(path)):
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
    except (OSError, SyntaxError, ValueError):
        return None
    if any(isinstance(node, ast.If) and _is_main_guard(node.test)
           for node in tree.body):
        return None
    return path


class _WorkerState:
    __slots__ = ("process", "conn", "shipped", "last_error")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.shipped: set[str] = set()
        #: last exception text the worker reported
        self.last_error: str | None = None


class WorkerPool:
    """Scatter/gather coordinator over pinned shard-worker processes.

    ``execute`` dispatches one job per worker (its fixed row block),
    collects per-shard popcounts, and copies the shared output
    segments into caller-owned matrices.  Dead or hung workers are
    respawned and their job replayed once — column segments are
    read-only to workers, so replay is bit-exact; a second failure
    raises :class:`~repro.errors.WorkerError` with its cause.
    """

    def __init__(self, shape: tuple[int, int], *, workers: int,
                 timeout_s: float = 60.0) -> None:
        self.shape = tuple(shape)
        rows = self.shape[0]
        n = max(1, min(int(workers), rows))
        bounds = [rows * i // n for i in range(n + 1)]
        #: fixed contiguous row (= shard) block per worker
        self.blocks = [(lo, hi) for lo, hi in
                       zip(bounds, bounds[1:]) if hi > lo]
        self.n_workers = len(self.blocks)
        self.timeout_s = float(timeout_s)
        self._ctx = get_context("spawn")
        self._workers: list[_WorkerState | None] = \
            [None] * self.n_workers
        self._lock = threading.Lock()
        #: shared output matrices, one per program output position
        self._outs = SegmentArena(self.shape, "p")
        self._out_views: list[tuple[str, np.ndarray]] = []
        self._started = False
        self._closed = False
        #: monotonically increasing id echoed in every worker reply;
        #: lets _recv discard stale replies left in a pipe by a round
        #: that raised before draining every worker
        self._job_seq = itertools.count(1)
        #: jobs dispatched / workers respawned / plan specs shipped
        self.jobs = 0
        self.respawns = 0
        self.plans_shipped = 0

    # -- process lifecycle ---------------------------------------------
    @staticmethod
    @contextmanager
    def _spawnable_main():
        """Spawn children re-execute ``__main__`` by file path; a
        parent driven from stdin or a REPL has a fake ``__file__``
        (``<stdin>``) that crashes the child's bootstrap.  Hide such
        a path for the duration of ``process.start()``."""
        main = sys.modules.get("__main__")
        path = getattr(main, "__file__", None)
        hidden = (main is not None
                  and getattr(main, "__spec__", None) is None
                  and path is not None and not os.path.exists(path))
        if hidden:
            del main.__file__
        try:
            yield
        finally:
            if hidden:
                main.__file__ = path

    def _start(self, index: int) -> None:
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child, self.shape),
            name=f"repro-shard-{index}", daemon=True)
        with self._spawnable_main():
            process.start()
        child.close()
        self._workers[index] = _WorkerState(process, parent)

    def _greet(self, index: int) -> None:
        """Wait for a started worker's greeting.

        A child that dies first failed in the spawn bootstrap: raise
        :class:`~repro.errors.WorkerSpawnError` at once rather than
        respawning a process that cannot start."""
        conn = self._workers[index].conn
        try:
            greeted = conn.poll(self.timeout_s) and \
                conn.recv()[0] == "ready"
        except (EOFError, OSError):
            greeted = False
        if not greeted:
            script = _unguarded_main()
            if script is not None:
                raise self._failure(
                    index, f"died while re-importing the main script "
                    f"{script}, which has no "
                    f'`if __name__ == "__main__":` guard; spawned '
                    f"workers re-run an unguarded script from the top, "
                    f"so put the code that uses the service under "
                    f"that guard", spawn=True)
            raise self._failure(index, "died before it started serving",
                                spawn=True)

    def _failure(self, index: int, what: str, *,
                 spawn: bool = False) -> WorkerError:
        """A typed error for worker ``index`` with its cause: the exit
        code or signal (killing it first if it hangs) and the last
        exception text it reported."""
        state = self._workers[index]
        process = state.process
        process.join(timeout=1.0)  # a dead worker is reaped at once
        if process.is_alive():
            cause = f"no reply within {self.timeout_s:g} s"
            process.kill()
            process.join(timeout=5.0)
        elif process.exitcode is not None and process.exitcode < 0:
            try:
                name = signal.Signals(-process.exitcode).name
            except ValueError:
                name = f"signal {-process.exitcode}"
            cause = f"killed by {name}"
        else:
            cause = f"exit code {process.exitcode}"
        message = f"shard worker {index} {what} ({cause}"
        if state.last_error is not None:
            message += f"; last error: {state.last_error}"
        return (WorkerSpawnError if spawn else WorkerError)(
            message + ")", worker=index, exitcode=process.exitcode,
            last_error=state.last_error)

    def _ensure_started(self) -> None:
        if self._closed:
            raise QueryError("worker pool is closed")
        if not self._started:
            try:
                for index in range(self.n_workers):
                    self._start(index)
                for index in range(self.n_workers):
                    self._greet(index)
            except WorkerError:
                self._stop_workers()
                raise
            self._started = True

    def _respawn(self, index: int) -> None:
        state = self._workers[index]
        if state is not None:
            try:
                state.conn.close()
            except OSError:  # pragma: no cover
                pass
            if state.process.is_alive():
                state.process.kill()
            state.process.join(timeout=5.0)
        self.respawns += 1
        self._start(index)
        self._greet(index)

    def _ensure_out_segments(self, count: int) -> None:
        while len(self._out_views) < count:
            self._out_views.append(self._outs.alloc())

    # -- the scatter/gather round --------------------------------------
    def execute(self, plan_key: str, spec: tuple,
                colspec: dict[str, str], mask_seg: str | None,
                out_keys: list, *, gens: dict | None = None) -> dict:
        """Run one program across all workers.

        Returns ``{out_key: (per_shard_counts, matrix)}`` where
        ``matrix`` is a caller-owned copy of the shared output segment.
        """
        with self._lock:
            self._ensure_started()
            self._ensure_out_segments(len(out_keys))
            outs = [(key, self._out_views[i][0])
                    for i, key in enumerate(out_keys)]
            job_id = next(self._job_seq)

            def make_job(index: int) -> dict:
                state = self._workers[index]
                ship = plan_key not in state.shipped
                if ship:
                    state.shipped.add(plan_key)
                    self.plans_shipped += 1
                return {"id": job_id, "plan": plan_key,
                        "spec": spec if ship else None,
                        "cols": colspec, "mask": mask_seg,
                        "rows": self.blocks[index], "outs": outs,
                        "gens": gens or {}}

            for index in range(self.n_workers):
                self._dispatch(index, make_job)
            replies = [self._await(index, make_job, job_id, plan_key)
                       for index in range(self.n_workers)]
            self.jobs += self.n_workers

            rows = self.shape[0]
            counts = {key: np.zeros(rows, dtype=np.int64)
                      for key in out_keys}
            for index, reply in enumerate(replies):
                lo, hi = self.blocks[index]
                for key, block_counts in reply.items():
                    counts[key][lo:hi] = block_counts
            return {key: (counts[key], self._out_views[position][1].copy())
                    for position, key in enumerate(out_keys)}

    def _dispatch(self, index: int, make_job) -> None:
        try:
            self._workers[index].conn.send(("exec", make_job(index)))
        except (BrokenPipeError, OSError):
            self._respawn(index)
            self._send(index, make_job)

    def _send(self, index: int, make_job) -> None:
        try:
            self._workers[index].conn.send(("exec", make_job(index)))
        except (BrokenPipeError, OSError):
            raise self._failure(index, "is unreachable") from None

    def _await(self, index: int, make_job, job_id: int,
               plan_key: str) -> dict:
        reply = self._recv(index, job_id)
        if reply is None:  # dead or hung: respawn and replay once
            first = self._failure(index, "failed")
            self._respawn(index)
            self._send(index, make_job)
            reply = self._recv(index, job_id)
            if reply is None:
                raise self._failure(
                    index, f"failed again after a respawn (first: "
                    f"{first})")
        if reply[0] == "need-spec":
            # The worker evicted this plan from its bytecode cache
            # after we shipped it: forget it was shipped and replay
            # with the spec attached.
            self._workers[index].shipped.discard(plan_key)
            self._send(index, make_job)
            reply = self._recv(index, job_id)
            if reply is None:
                raise self._failure(index, "failed after a spec re-ship")
        if reply[0] != "ok":
            raise WorkerError(f"shard worker {index} failed a job: "
                              f"{reply[2]}", worker=index,
                              last_error=reply[2])
        return reply[2]

    def _recv(self, index: int, job_id: int):
        """Receive the reply tagged ``job_id``.  Replies carrying an
        older id are stale leftovers from a round that raised before
        every worker was drained — discard them so they can never be
        attributed to this job.  Error texts are remembered as the
        worker's last error whatever job they belong to."""
        state = self._workers[index]
        deadline = time.monotonic() + self.timeout_s
        while True:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0 or not state.conn.poll(remaining):
                    return None
                reply = state.conn.recv()
            except (EOFError, OSError):
                return None
            if reply[0] in ("err", "fatal"):
                state.last_error = reply[-1]
            if len(reply) >= 2 and reply[1] == job_id:
                return reply

    # -- maintenance ----------------------------------------------------
    def forget(self, segment_name: str) -> None:
        """Tell live workers to drop a cached segment mapping
        (best-effort; pipe order guarantees it lands before the next
        job)."""
        if not self._started or self._closed:
            return
        with self._lock:
            for state in self._workers:
                if state is None:
                    continue
                try:
                    state.conn.send(("forget", segment_name))
                except (BrokenPipeError, OSError):
                    pass

    def stats(self) -> dict:
        return {"workers": self.n_workers, "jobs": self.jobs,
                "respawns": self.respawns,
                "plans_shipped": self.plans_shipped,
                "started": self._started}

    def _stop_workers(self) -> None:
        for state in self._workers:
            if state is None:
                continue
            try:
                state.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for state in self._workers:
            if state is None:
                continue
            state.process.join(timeout=5.0)
            if state.process.is_alive():  # pragma: no cover
                state.process.kill()
                state.process.join(timeout=5.0)
            try:
                state.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._workers = [None] * self.n_workers

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._stop_workers()
            self._out_views.clear()
            self._outs.close()
