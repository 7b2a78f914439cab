"""Shared machinery of the two served workloads: the ``repro serve``
subprocess, the open-loop phases, the rate ladder and the reply checks.

A workload object supplies the op mix and the shadow model:

* ``name``, ``durable`` (needs a data dir), ``nominal_qps`` and
  ``nominal_share`` (the timed window's share at that rate), ``rungs``,
  ``step_s`` and ``slo_ms`` (the rate ladder);
* ``server_args(data_dir)`` - extra ``repro serve`` arguments;
* ``setup(conns)`` - coroutine: load columns and warm every plan, return
  the deterministic set-up energy probe ``(energy_nj, rows)``;
* ``make_lane(lane, n)`` - the next ``n`` ops for one connection;
* ``on_due(lane, op)`` - called in send order: fill ``op.expect`` from
  the shadow, then apply the op if it mutates;
* ``check(op)`` - compare a reply with ``op.expect``; return an error
  string or None;
* ``sampler(data_dir)`` - an optional coroutine function run during the
  nominal phase; ``finish(server, conns, data_dir, ops, traced=)`` -
  coroutine after the timed window, returning extra metrics.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

from common import (
    SRC,
    WORK,
    CheckFailed,
    children,
    user_cpu_seconds,
    peak_rss_mb,
    pct,
    tail_label,
)
from loadgen import Conn, run_schedule, summarize_latency

HERE = os.path.dirname(os.path.abspath(__file__))
TENANTS = ("a", "b")
WIRES = ("json", "binary")  # tenant a speaks JSON-lines, b speaks REPB


#: servers started and not yet reaped; run_served kills leftovers
_live: set = set()


class Server:
    """One ``repro serve --port 0`` subprocess (optionally traced)."""

    def __init__(self, args: list[str], *, traced: bool, tag: str) -> None:
        os.makedirs(WORK, exist_ok=True)
        self.args = args
        self.traced = traced
        self.log = os.path.join(WORK, f"{tag}.log")
        self.spans_path = os.path.join(WORK, f"{tag}.spans.json")
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.peak_mb = 0.0

    async def start(self, timeout_s: float = 60.0) -> float:
        """Start and wait for the listening line; returns seconds."""
        for path in (self.log, self.spans_path):
            if os.path.exists(path):
                os.remove(path)
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                   self.spans_path]
        else:
            cmd = [sys.executable, "-m", "repro"]
        cmd += ["serve", "--port", "0", *self.args]
        env = dict(os.environ, PYTHONPATH=SRC)
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=log,
                                         stderr=subprocess.STDOUT, env=env)
        _live.add(self)
        marker = "serving bulk-bitwise queries on "
        while time.perf_counter() - start < timeout_s:
            with open(self.log) as handle:
                for line in handle:
                    if line.startswith(marker):
                        self.port = int(line[len(marker):].split()[0]
                                        .rsplit(":", 1)[1])
                        return time.perf_counter() - start
            if self.proc.poll() is not None:
                break
            await asyncio.sleep(0.005)
        self.kill()
        with open(self.log) as handle:
            raise RuntimeError(f"server failed to start:\n{handle.read()}")

    def sample_rss(self) -> float:
        if self.proc is not None and self.proc.poll() is None:
            self.peak_mb = max(self.peak_mb, peak_rss_mb(self.proc.pid))
        return self.peak_mb

    async def dump_spans(self) -> list:
        """Ask a traced server for its spans (SIGUSR1) and load them."""
        from tracing import load_spans
        self.proc.send_signal(signal.SIGUSR1)
        for _ in range(2000):
            if os.path.exists(self.spans_path):
                return load_spans(self.spans_path)
            await asyncio.sleep(0.005)
        raise RuntimeError("traced server wrote no spans")

    def stop(self) -> None:
        """Graceful stop (drain, flush, final snapshot)."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.sample_rss()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        _live.discard(self)

    def kill(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.sample_rss()
        self.proc.kill()
        self.proc.wait(timeout=30)
        _live.discard(self)


async def connect(port: int) -> list[Conn]:
    return [await Conn.open(port, tenant, wire)
            for tenant, wire in zip(TENANTS, WIRES)]


async def close_all(conns: list[Conn]) -> None:
    for conn in conns:
        await conn.close()


class Checker:
    """Counts ops attempted and failed; remembers the first failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def record(self, ops, *, count_refusals: bool) -> None:
        for op in ops:
            self.attempted += 1
            if op.error is None and not op.response.get("ok"):
                op.error = op.response.get("error", "not ok")
                if not count_refusals and \
                        op.response.get("code") == "admission":
                    continue  # refused under overload: an SLO miss only
            elif op.error is None:
                problem = self.workload.check(op)
                if problem is not None:
                    op.error = problem
                    self.wrong += 1
            if op.error is not None:
                self.failed += 1
                if len(self.messages) < 5:
                    self.messages.append(f"{op.name}: {op.error}")

    def raise_if_wrong(self) -> None:
        if self.wrong:
            raise CheckFailed("; ".join(self.messages))


async def run_phase(workload, conns, rate: float, seconds: float,
                    checker: Checker, *, count_refusals: bool = True,
                    sampler=None) -> tuple[list, int, int]:
    """Open loop at ``rate`` for ``seconds``; returns (ops, start, end)."""
    per_lane = max(1, int(rate * seconds / len(conns)))
    lanes = [workload.make_lane(i, per_lane) for i in range(len(conns))]
    task = None
    if sampler is not None:
        task = asyncio.get_running_loop().create_task(sampler())
    # The generator's own collector pauses would read as server latency.
    gc.collect()
    gc.disable()
    try:
        ops, start_ns = await run_schedule(conns, lanes, rate,
                                           workload.on_due)
    finally:
        gc.enable()
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
    end_ns = max(op.done_ns for op in ops)
    checker.record(ops, count_refusals=count_refusals)
    return ops, start_ns, end_ns


async def ladder(workload, conns, rungs: list[float], step_s: float,
                 slo_ms: float, checker: Checker, budget_s: float
                 ) -> tuple[float, list[str]]:
    """Highest rung whose read p99 (from due time, refusals counting as
    misses) meets ``slo_ms`` with no growing backlog, by bisection over
    the fixed ladder.  Returns (rate, log lines)."""
    lo, hi = -1, len(rungs)
    log = []
    deadline = time.perf_counter() + budget_s
    while hi - lo > 1 and time.perf_counter() < deadline:
        mid = (lo + hi) // 2
        rate = rungs[mid]
        ops, start_ns, end_ns = await run_phase(
            workload, conns, rate, step_s, checker, count_refusals=False)
        lat = [(op.done_ns - op.due_ns) / 1e6 if op.error is None
               else float("inf") for op in ops if op.kind == "read"]
        p99 = pct(lat, 99)
        # Backlog: the last reply lands well after the last due time.
        last_due = max(op.due_ns for op in ops)
        backlog_ms = (end_ns - last_due) / 1e6
        ok = p99 <= slo_ms and backlog_ms <= slo_ms
        log.append(f"    rung {rate:8.1f}/s: read p99 {p99:8.2f} ms, "
                   f"tail {backlog_ms:7.2f} ms -> "
                   f"{'meets' if ok else 'misses'} {slo_ms:g} ms")
        if ok:
            lo = mid
        else:
            hi = mid
        await asyncio.sleep(0.2)  # let a missed rung's queue drain
    return (rungs[lo] if lo >= 0 else 0.0), log


def check_read(op) -> str | None:
    """Compare a read's reply with ``op.expect``: the count of a query or
    match, or the bits of a page (a ``"0101"`` string on JSON-lines, an
    array on REPB)."""
    response = op.response
    if op.name in ("query", "match"):
        if response.get("count") != op.expect:
            return f"count {response.get('count')} != {op.expect}"
    elif op.name == "bits":
        got = response.get("bits")
        if isinstance(got, str):
            got = np.frombuffer(got.encode(), np.uint8) - ord("0")
        if got is None or not np.array_equal(np.asarray(got, np.uint8),
                                             op.expect):
            return "bits page differs from the shadow"
    return None


def fresh_dir(tag: str) -> str:
    path = os.path.join(WORK, tag)
    shutil.rmtree(path, ignore_errors=True)
    return path


def rows_per_s(ops, name: str) -> float:
    """Rows one op answers per second of its median latency."""
    chosen = [op for op in ops if op.name == name and op.error is None]
    if not chosen:
        return 0.0
    lat_s = pct([(op.done_ns - op.due_ns) / 1e9 for op in chosen], 50)
    return float(np.mean([op.rows for op in chosen])) / lat_s


# ----------------------------------------------------------------------
# the served-workload run
# ----------------------------------------------------------------------
SETUPS = 3


async def _set_up(workload, *, traced: bool, tag: str):
    """Start a server, load and warm it.  Returns the server, the
    connections, ``(user CPU s, wall s)`` of the set-up, the energy
    probe and the data dir."""
    data_dir = fresh_dir(f"{tag}.data") if workload.durable else None
    server = Server(workload.server_args(data_dir), traced=traced, tag=tag)
    start = time.perf_counter()
    await server.start()
    conns = await connect(server.port)
    energy, rows = await workload.setup(conns)
    wall = time.perf_counter() - start
    pid = server.proc.pid
    cpu = user_cpu_seconds([pid, *children(pid)])
    return server, conns, (cpu, wall), (energy, rows), data_dir


async def run_served(workload, seconds: float, trace: bool,
                     profile: dict) -> dict:
    """Set up, run the timed window, check, and collect metrics."""
    try:
        return await _run(workload, seconds, trace, profile)
    finally:
        for server in list(_live):
            server.kill()


async def _run(workload, seconds: float, trace: bool, profile: dict) -> dict:
    checker = Checker(workload)
    report: list[str] = []
    if trace:
        return await _run_traced(workload, seconds, checker, report,
                                 profile)
    setups, probes = [], []
    for k in range(SETUPS):
        server, conns, setup_s, probe, data_dir = await _set_up(
            workload, traced=False, tag=f"{workload.name}-{k}")
        setups.append(setup_s)
        probes.append(probe)
        if k < SETUPS - 1:
            await close_all(conns)
            server.stop()
    if len(set(probes)) != 1:
        raise CheckFailed(f"set-up energy probe did not repeat: {probes}")
    try:
        nominal_s = seconds * workload.nominal_share
        tree = [server.proc.pid, *children(server.proc.pid)]
        cpu0 = user_cpu_seconds(tree)
        ops, t0, t1 = await run_phase(
            workload, conns, workload.nominal_qps, nominal_s, checker,
            sampler=workload.sampler(data_dir))
        cpu_ms = (user_cpu_seconds(tree) - cpu0) * 1e3 / len(ops)
        lat = summarize_latency(ops)
        rate, ladder_log = await ladder(
            workload, conns, workload.rungs, workload.step_s,
            workload.slo_ms, checker, seconds - nominal_s)
        stats, _ = await conns[0].call({"op": "stats"})
        extra = await workload.finish(server, conns, data_dir, ops)
        server.sample_rss()
    finally:
        await close_all(conns)
        server.stop()
    checker.raise_if_wrong()
    energy, rows = probes[0]
    peak = max(server.peak_mb, extra.pop("_peak_mb", 0.0))
    extra.pop("_recovery_spans", None)
    metrics = {
        "setup_s": float(np.median([cpu for cpu, _ in setups])),
        "peak_rss_mb": peak,
        **{k: lat[k] for k in ("read_p50_ms", "read_p99_ms",
                               "write_p50_ms", "write_p99_ms")},
        "query_rows_per_s": rows_per_s(ops, "query"),
        "match_rows_per_s": rows_per_s(ops, "match"),
        "sim_energy_pj_per_row": energy * 1e3 / rows,
        "user_cpu_ms_per_op": cpu_ms,
        "max_qps_at_slo": rate,
        "error_rate": checker.failed / max(1, checker.attempted),
        **extra,
    }
    report += [
        f"  open loop at {workload.nominal_qps:g} ops/s for {nominal_s:g} s "
        f"over {len(conns)} connections: {lat['read_n']} reads, "
        f"{lat['write_n']} writes (read tail reported as p99, "
        f"{tail_label(lat['read_n'])} has 10 samples beyond it)",
        "  set-ups (user CPU / wall s): " + ", ".join(
            f"{cpu:.3f} / {wall:.3f}" for cpu, wall in setups),
        f"  loadgen lag p99 {lat['lag_p99_ms']:.3f} ms, "
        f"encode {lat['encode_ms']:.4f} ms/op",
        f"  ladder (read p99 limit {workload.slo_ms:g} ms):",
        *ladder_log,
        f"  server: {stats['stats']['cache_hits']} cache hits, "
        f"scheduler {stats['stats']['scheduler']}",
    ]
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed, "report": report}


async def _run_traced(workload, seconds, checker, report,
                      profile) -> dict:
    """Untraced then traced nominal phase; per-layer metrics + overhead."""
    from tracing import layer_metrics
    half = seconds / 2
    e2e = {}
    for traced in (False, True):
        tag = f"{workload.name}-{'traced' if traced else 'plain'}"
        server, conns, _, _, data_dir = await _set_up(
            workload, traced=traced, tag=tag)
        try:
            ops, t0, t1 = await run_phase(
                workload, conns, workload.nominal_qps, half, checker,
                sampler=workload.sampler(data_dir))
            stats, _ = await conns[0].call({"op": "stats"})
            spans = await server.dump_spans() if traced else None
            extra = await workload.finish(server, conns, data_dir, ops,
                                          traced=traced)
        finally:
            await close_all(conns)
            server.stop()
        e2e[traced] = {**summarize_latency(ops), **extra}
    checker.raise_if_wrong()
    sched = stats["stats"]["scheduler"]
    counters = {
        "scheduler.batch_size_mean": sched["batched_queries"]
        / max(1, sched["batches"]),
        "scheduler.rejected": sched["admission_rejections"],
        "workers.jobs": 0, "workers.respawns": 0,
    }
    # Recovery runs in a later server process: append its spans with
    # their parent indices shifted past the first process's spans.
    base = len(spans)
    spans = spans + [(n, a, b, None if p is None else p + base, attrs)
                     for n, a, b, p, attrs in extra.pop("_recovery_spans", [])]
    extra.pop("_peak_mb", None)
    requests = {tenant: [op for op in ops if op.lane == lane]
                for lane, tenant in enumerate(TENANTS)}
    layers, table = layer_metrics(
        spans, (t0, t1), requests=requests,
        e2e_ns=sum(op.service_ns for op in ops), counters=counters,
        memcpy_gbps=profile["memcpy_gbps"])
    lat = e2e[True]
    layers["loadgen.lag_p99_ms"] = lat["lag_p99_ms"]
    layers["loadgen.encode_ms"] = lat["encode_ms"]
    report.append("  per-layer self time (traced run):")
    report += table
    report.append("  tracing overhead (traced minus untraced):")
    for key in ("read_p50_ms", "read_p99_ms", "write_p50_ms",
                "write_p99_ms"):
        report.append(f"    {key:<14} {e2e[False][key]:9.3f} -> "
                      f"{e2e[True][key]:9.3f}  "
                      f"({e2e[True][key] - e2e[False][key]:+.3f})")
    return {"metrics": layers, "attempted": checker.attempted,
            "failed": checker.failed, "report": report}
