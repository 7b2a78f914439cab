"""Span tracing from outside the program under test.

:func:`install` wraps each layer's public entry points (functions by
identity in every loaded ``repro`` module, methods on their classes)
with a recorder that keeps spans in memory.  A span is ``[name,
start_ns, end_ns, parent, attrs]``; the parent is the enclosing span
on the same thread, so a span's self time is its duration minus its
children's.  Coroutine entry points (the scheduler's ``submit_*``)
record an interval only: they interleave on the event loop and have no
same-thread children.

:func:`layer_metrics` turns spans (plus the load generator's own
per-request records, for a served workload) into the per-layer
metrics and the self-time table.  Two definitions worth knowing:
``columnstore.match_ms`` is popcount materialisation inside CAM
``match`` executes (``ColumnStore.match`` itself is not on the service
path: a search lowers to the same expr/kernel pipeline as a query), and
``kernel.gbps`` divides computed bytes moved (from each VectorProgram's
micro-ops and the matrix size, not measured traffic) by kernel self
time; kernels that run inside shard-worker processes are not traced and
count under ``workers``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
import types

import numpy as np

from common import pct

#: bytes each micro-op moves per matrix element word: kernels read
#: their operands and write their destination once per numpy pass
_PASSES = {"and": 3, "xor": 3, "or": 3, "andn": 5, "nor": 5, "nand": 5,
           "xnor": 5, "ornot": 5, "andor": 6, "noror": 8, "maj": 15,
           "maj4": 12, "not": 2, "copy": 2, "const": 1}


def program_bytes(program, shape) -> int:
    """Computed bytes moved by one run of a VectorProgram (from its
    micro-op list and the matrix size; node-cache hits are ignored)."""
    passes = sum(_PASSES.get(op[0], 3) for step in program.steps
                 for op in step[2])
    return passes * int(np.prod(shape)) * 8


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, func, name: str, attrs=None):
        spans = self.spans
        clock = time.perf_counter_ns
        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                record = [name, clock(), 0, None,
                          attrs(args, kwargs, None) if attrs else None]
                try:
                    return await func(*args, **kwargs)
                finally:
                    record[2] = clock()
                    spans.append(record)
            return traced_async

        stack_of = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            record = [name, clock(), 0, stack[-1] if stack else None, None]
            stack.append(record)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                record[2] = clock()
                stack.pop()
                if attrs is not None:
                    record[4] = attrs(args, kwargs, result)
                spans.append(record)
        return traced

    def wrap_method(self, cls, attr: str, name: str, attrs=None) -> None:
        setattr(cls, attr, self._wrapper(cls.__dict__[attr], name, attrs))

    def wrap_function(self, func, name: str, attrs=None) -> None:
        """Rebind every ``repro`` module global that names ``func``."""
        wrapper = self._wrapper(func, name, attrs)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is func:
                    setattr(module, key, wrapper)

    def export(self) -> list[tuple]:
        """Finished spans as ``(name, start, end, parent_index, attrs)``,
        sorted by start."""
        done = sorted((s for s in list(self.spans) if s[2]),
                      key=lambda s: (s[1], -s[2]))
        index = {id(s): i for i, s in enumerate(done)}
        return [(s[0], s[1], s[2],
                 index.get(id(s[3])) if s[3] is not None else None, s[4])
                for s in done]

    def dump(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.export(), handle)
        os.replace(tmp, path)


def _tenant(args, kwargs, result):
    return {"tenant": kwargs.get("tenant")}


def _execute_attrs(args, kwargs, result):
    queries = list(args[1]) if len(args) > 1 else list(kwargs["queries"])
    tenants = kwargs.get("tenants") or [kwargs.get("tenant")] * len(queries)
    hits = sum(bool(r.cache_hit) for r in result) if result else 0
    return {"n": len(queries), "hits": hits,
            "tenants": sorted({str(t) for t in tenants}),
            "match": any("match(" in str(q) for q in queries)}


def _kernel_attrs(args, kwargs, result):
    program, columns = args[0], args[1]
    shape = kwargs.get("shape") or next(iter(columns.values())).shape
    return {"bytes": program_bytes(program, shape)}


def _submit_attrs(args, kwargs, result):
    return {"tenant": str(args[1])}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see module docstring)."""
    import repro.service  # noqa: F401  (loads every service module)
    from repro.arch import commands, expr, primitives, program, writeback
    from repro.service import columnstore, durability, server, wire
    from repro.service.scheduler import RequestScheduler
    from repro.service.service import BitwiseService
    from repro.service.shard_workers import WorkerPool

    for attr in ("submit_query", "submit_batch", "submit_exclusive"):
        tracer.wrap_method(RequestScheduler, attr, "scheduler.submit",
                           _submit_attrs)
    tracer.wrap_method(BitwiseService, "execute", "service.execute",
                       _execute_attrs)
    tracer.wrap_method(BitwiseService, "run_program", "service.program",
                       _tenant)
    for attr in ("write_slice", "update_column", "append_rows"):
        tracer.wrap_method(BitwiseService, attr, "service.mutation", _tenant)
    for attr in ("read_bits", "read_bits_array"):
        tracer.wrap_method(BitwiseService, attr, "service.read_bits",
                           _tenant)
    tracer.wrap_function(expr.compile_expr, "expr.compile")
    tracer.wrap_function(program.compile_program, "expr.compile")
    tracer.wrap_function(primitives.plan_stats, "charge")
    tracer.wrap_method(commands.Stats, "iadd", "charge")
    tracer.wrap_method(commands.Stats, "iadd_scaled", "charge")
    tracer.wrap_method(expr.VectorProgram, "run", "kernel", _kernel_attrs)
    tracer.wrap_method(expr.VectorProgram, "run_outputs", "kernel",
                       _kernel_attrs)
    tracer.wrap_function(columnstore.popcount_words, "columnstore.popcount")
    tracer.wrap_method(columnstore.ColumnStore, "popcounts",
                       "columnstore.popcount")
    tracer.wrap_method(WorkerPool, "execute", "workers.scatter")
    for attr in ("note_write", "note_read"):
        tracer.wrap_method(writeback.ScrubAccountant, attr, "writeback")
    tracer.wrap_method(durability.DurabilityManager, "log", "durability.log")
    tracer.wrap_method(durability.DurabilityManager, "commit_groups",
                       "durability.commit")
    tracer.wrap_method(durability.DurabilityManager, "write_snapshot",
                       "durability.snapshot")
    tracer.wrap_function(durability.recover_service, "durability.replay")
    tracer.wrap_function(wire.decode_frame, "wire.decode")
    tracer.wrap_function(wire.encode_frame, "wire.encode")
    # The JSON-lines wire parses and renders through the server
    # module's ``json`` binding.
    proxy = types.SimpleNamespace(**vars(json))
    proxy.loads = tracer._wrapper(json.loads, "wire.decode")
    proxy.dumps = tracer._wrapper(json.dumps, "wire.encode")
    server.json = proxy


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
#: span name -> layer row of the self-time table
LAYER_OF = {
    "scheduler.submit": "scheduler", "service.execute": "service",
    "service.program": "service", "service.read_bits": "service",
    "service.mutation": "mutation", "expr.compile": "expr",
    "charge": "charge", "kernel": "kernel",
    "columnstore.popcount": "columnstore", "workers.scatter": "workers",
    "writeback": "writeback", "durability.log": "durability",
    "durability.commit": "durability", "durability.snapshot": "durability",
    "durability.replay": "durability", "wire.decode": "wire",
    "wire.encode": "wire",
}

#: why a layer can have no span on a workload
NO_SPAN = {
    "server": "in-process workload: no server, the wire is bypassed",
    "wire": "in-process workload: no wire",
    "scheduler": "in-process workload: the scheduler is bypassed",
    "workers": "workers=1 (default serve config): no shard workers",
    "durability": "no --data-dir: nothing is logged",
}


class SpanSet:
    def __init__(self, spans: list, window: tuple[int, int]) -> None:
        self.spans = spans
        self.window = window
        n = len(spans)
        self.dur = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
        child = np.zeros(n, dtype=np.int64)
        for s, d in zip(spans, self.dur):
            if s[3] is not None:
                child[s[3]] += d
        self.self_ns = self.dur - child
        lo, hi = window
        self.timed = np.array([lo <= s[1] and s[2] <= hi for s in spans],
                              dtype=bool)

    def pick(self, name: str, timed: bool = True) -> np.ndarray:
        mask = np.array([s[0] == name for s in self.spans], dtype=bool)
        if timed and mask.size:
            mask &= self.timed
        return np.nonzero(mask)[0] if mask.size else np.array([], int)

    def ancestor_attr(self, i: int, name: str, key: str):
        parent = self.spans[i][3]
        while parent is not None:
            span = self.spans[parent]
            if span[0] == name and span[4]:
                return span[4].get(key)
            parent = span[3]
        return None


def _pms(ns_values, q: float) -> float:
    """Percentile ``q`` of nanosecond values, in ms (0 if none)."""
    return pct(np.asarray(ns_values) / 1e6, q) if len(ns_values) else 0.0


def layer_metrics(spans: list, window: tuple[int, int], *,
                  requests=None, e2e_ns: int, counters: dict,
                  memcpy_gbps: float, worker_spawn_s: float | None = None,
                  ) -> tuple[dict, list[str]]:
    """Per-layer metrics and the printed self-time table.

    ``requests`` (served workloads): the load generator's ops, each with
    ``sent_ns``/``done_ns``/``service_ns`` and the tenant that sent it.
    ``e2e_ns`` is the traced end-to-end time the table's shares refer
    to (summed per-request service time, or summed op time in-process).
    ``counters`` carries counts read through the public API.
    """
    ss = SpanSet(spans, window)
    m: dict[str, float] = {}
    self_by_layer: dict[str, int] = {}
    calls_by_layer: dict[str, int] = {}
    for i in np.nonzero(ss.timed)[0]:
        layer = LAYER_OF.get(spans[i][0])
        if layer is None or layer == "scheduler":
            continue
        self_by_layer[layer] = self_by_layer.get(layer, 0) \
            + int(ss.self_ns[i])
        calls_by_layer[layer] = calls_by_layer.get(layer, 0) + 1

    # service / expr / charge / kernel / columnstore
    execs = ss.pick("service.execute")
    m["service.execute_ms_p50"] = _pms(ss.dur[execs], 50)
    m["service.self_ms_p50"] = _pms(ss.self_ns[execs], 50)
    n_q = sum(spans[i][4]["n"] for i in execs)
    hits = sum(spans[i][4]["hits"] for i in execs)
    m["service.cache_hit_ratio"] = hits / n_q if n_q else 0.0
    compiles = ss.pick("expr.compile")
    m["expr.compile_ms_p50"] = _pms(ss.dur[compiles], 50)
    m["expr.compiles"] = float(compiles.size)
    charge = ss.pick("charge")
    m["charge.busy_s"] = float(ss.self_ns[charge].sum()) / 1e9
    under_exec = [i for i in charge
                  if ss.ancestor_attr(i, "service.execute", "n") is not None]
    exec_total = float(ss.dur[execs].sum())
    m["charge.share_of_execute"] = (float(ss.self_ns[under_exec].sum())
                                    / exec_total if exec_total else 0.0)
    kernel = ss.pick("kernel")
    kernel_ns = float(ss.self_ns[kernel].sum())
    kernel_bytes = sum(spans[i][4]["bytes"] for i in kernel)
    m["kernel.busy_s"] = kernel_ns / 1e9
    m["kernel.gbps"] = kernel_bytes / kernel_ns if kernel_ns else 0.0
    m["kernel.roofline_frac"] = m["kernel.gbps"] / memcpy_gbps
    pops = ss.pick("columnstore.popcount")
    in_match = np.array([bool(ss.ancestor_attr(i, "service.execute",
                                               "match")) for i in pops],
                        dtype=bool)
    pop_self = ss.self_ns[pops]
    m["columnstore.popcount_ms"] = float(pop_self[~in_match].mean()) / 1e6 \
        if (~in_match).any() else 0.0
    m["columnstore.match_ms"] = float(pop_self[in_match].mean()) / 1e6 \
        if in_match.any() else 0.0

    # workers
    scatter = ss.pick("workers.scatter")
    m["workers.scatter_ms_p50"] = _pms(ss.dur[scatter], 50)
    m["workers.jobs"] = float(counters.get("workers.jobs", 0))
    m["workers.respawns"] = float(counters.get("workers.respawns", 0))
    m["workers.spawn_s"] = float(worker_spawn_s or 0.0)

    # mutation + writeback
    muts = ss.pick("service.mutation")
    m["service.mutation_ms_p50"] = _pms(ss.dur[muts], 50)
    wb = ss.pick("writeback")
    m["writeback.ms"] = (float(ss.self_ns[wb].sum()) / 1e6 / muts.size
                         if muts.size else 0.0)

    # durability
    logs = ss.pick("durability.log")
    commits = ss.pick("durability.commit")
    snaps = ss.pick("durability.snapshot")
    replay = ss.pick("durability.replay", timed=False)
    m["durability.log_ms_p50"] = _pms(ss.dur[logs], 50)
    m["durability.commit_ms_p99"] = _pms(ss.dur[commits], 99)
    barrier_logs = counters.get("durability.barriers", logs.size)
    m["durability.records_per_commit"] = (barrier_logs / commits.size
                                          if commits.size else 0.0)
    m["durability.snapshot_ms"] = _pms(ss.dur[snaps], 50)
    m["durability.snapshots"] = float(snaps.size)
    m["durability.replay_s"] = float(ss.dur[replay].max()) / 1e9 \
        if replay.size else 0.0

    # wire / server / scheduler (served workloads)
    dec, enc = ss.pick("wire.decode"), ss.pick("wire.encode")
    m["wire.decode_ms_p50"] = _pms(ss.dur[dec], 50)
    m["wire.encode_ms_p50"] = _pms(ss.dur[enc], 50)
    server_self, waits = [], []
    wait_total = 0
    if requests:
        waits, server_self, wait_total = _match_requests(ss, requests)
    m["server.self_ms_p50"] = pct(server_self, 50) if server_self else 0.0
    m["scheduler.wait_ms_p50"] = pct(waits, 50) if waits else 0.0
    m["scheduler.wait_ms_p99"] = pct(waits, 99) if waits else 0.0
    m["scheduler.batch_size_mean"] = float(
        counters.get("scheduler.batch_size_mean", 0.0))
    m["scheduler.rejected"] = float(counters.get("scheduler.rejected", 0))

    # self-time table
    if requests:
        wire_ns = self_by_layer.get("wire", 0)
        self_by_layer["server"] = int(sum(server_self) * 1e6) - wire_ns
        # A barrier's group fsync runs on the committer thread while its
        # request waits; it is counted under durability, not twice.
        self_by_layer["scheduler"] = int(wait_total - ss.dur[commits].sum())
    rows = []
    order = ["server", "wire", "scheduler", "service", "expr", "charge",
             "kernel", "columnstore", "workers", "mutation", "writeback",
             "durability"]
    accounted = 0
    for layer in order:
        ns = self_by_layer.get(layer, 0)
        if ns == 0 and layer in NO_SPAN:
            rows.append(f"  {layer:<12} {'-':>10} {'-':>7} {'-':>8}   "
                        f"no span: {NO_SPAN[layer]}")
            continue
        accounted += ns
        share = ns / e2e_ns if e2e_ns else 0.0
        calls = calls_by_layer.get(layer, len(server_self))
        rows.append(f"  {layer:<12} {ns / 1e6:>10.1f} {100 * share:>6.1f}% "
                    f"{calls:>8}")
    coverage = accounted / e2e_ns if e2e_ns else 0.0
    table = [f"  {'layer':<12} {'self_ms':>10} {'share':>7} {'count':>8}",
             *rows,
             f"  self times account for {100 * coverage:.1f}% of "
             f"{e2e_ns / 1e6:.1f} ms traced end-to-end time "
             f"(tolerance: 90-110%"
             f"{'' if 0.9 <= coverage <= 1.1 else ', OUTSIDE'})"]
    m["_coverage"] = coverage
    return m, table


def _match_requests(ss: SpanSet, requests) -> tuple[list, list, int]:
    """Pair each request with its ``scheduler.submit`` span.

    A connection is served one request at a time, so the k-th request a
    tenant sends maps to that tenant's k-th submit span.  The service
    span it waited for is the last one for the same tenant inside the
    submit interval; the rest of the submit interval is scheduler wait.
    """
    submits: dict[str, list[int]] = {}
    for i in ss.pick("scheduler.submit", timed=False):
        submits.setdefault(ss.spans[i][4]["tenant"], []).append(i)
    service_names = ("service.execute", "service.mutation",
                     "service.read_bits", "service.program")
    by_tenant: dict[str, list[int]] = {}
    for i, span in enumerate(ss.spans):
        if span[0] in service_names and span[4]:
            tenants = span[4].get("tenants") or [str(span[4].get("tenant"))]
            for tenant in tenants:
                by_tenant.setdefault(tenant, []).append(i)
    waits, server_self = [], []
    wait_total = 0
    lo, hi = ss.window
    for tenant, ops in requests.items():
        spans_t = submits.get(tenant, [])
        services = by_tenant.get(tenant, [])
        starts = np.array([ss.spans[i][1] for i in services], dtype=np.int64)
        for op, si in zip(ops, spans_t):
            if not (lo <= op.sent_ns and op.done_ns <= hi):
                continue
            s = ss.spans[si]
            sub_ns = s[2] - s[1]
            server_self.append((op.service_ns - sub_ns) / 1e6)
            k = int(np.searchsorted(starts, s[1]))
            best = None
            while k < len(services) and ss.spans[services[k]][1] <= s[2]:
                if ss.spans[services[k]][2] <= s[2]:
                    best = services[k]
                k += 1
            if best is not None:
                wait = sub_ns - int(ss.dur[best])
                waits.append(wait / 1e6)
                wait_total += wait
    return waits, server_self, wait_total


def load_spans(path: str) -> list:
    with open(path) as handle:
        return [tuple(s) for s in json.load(handle)]

