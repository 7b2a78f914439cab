"""``scan_bulk``: big in-process scans on ``BitwiseService(workers=2)``.

16Mi rows x 16 columns plus 16 BNN input planes, driven by one caller
in a closed loop.  Each round runs one ``execute`` of 8 freshly drawn
predicates (the result cache never hits), 4 ternary ``match`` searches
over 8 columns and one 4096-bit ``write_slice``; every third round also
runs a 16Mi-lane BNN layer as one ``run_program``.  The wire and the
scheduler are bypassed, so time goes to the kernels, popcounts, the
shared store and the process tier.  The pool is spawned and every plan
kind is warmed during set-up.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import (
    CheckFailed,
    Shadow,
    Stopwatch,
    children,
    median,
    page,
    peak_rss_mb,
    pct,
    random_key,
    random_predicate,
    render,
    tail_label,
    unpack,
    user_cpu_seconds,
)

N_BITS = 1 << 24
N_COLS = 16
N_FEATURES = 16
N_NEURONS = 4
WORKERS = 2
SETUPS = 3
SAMPLE_BITS = 4096
SAMPLE_LANES = 2048


def bnn_program(weights: np.ndarray):
    """One binary dense layer: per neuron, XNOR with the weight row,
    popcount, and ``>= n_features / 2``."""
    from repro.arch.expr import Col, Not
    from repro.arch.program import ProgramBuilder
    from repro.workloads.programs import (
        emit_greater_equal_const,
        emit_popcount,
    )
    builder = ProgramBuilder()
    outputs = []
    for j in range(weights.shape[0]):
        planes = [Col(f"x{k}") if weights[j, k] else Not(Col(f"x{k}"))
                  for k in range(weights.shape[1])]
        counts = emit_popcount(builder, planes, f"n{j}")
        hit = emit_greater_equal_const(builder, counts,
                                       weights.shape[1] // 2, f"n{j}_ge")
        builder.let(f"neuron{j}", hit)
        outputs.append(f"neuron{j}")
    return builder.build(outputs)


def bnn_reference(planes: list[np.ndarray], weights: np.ndarray,
                  lanes: np.ndarray) -> np.ndarray:
    """Neuron outputs ``(n_neurons, len(lanes))`` at the given lanes."""
    acts = np.stack([(p[lanes // 64] >> (lanes % 64).astype(np.uint64))
                     & np.uint64(1) for p in planes]).astype(np.uint8)
    agree = (acts[None, :, :] == weights[:, :, None]).sum(axis=1)
    return (agree >= weights.shape[1] // 2).astype(np.uint8)


def bnn_counts(planes: list[np.ndarray], weights: np.ndarray) -> list[int]:
    """Full popcount of every neuron output, in 1Mi-lane chunks."""
    totals = np.zeros(weights.shape[0], dtype=np.int64)
    chunk = 1 << 18
    for lo in range(0, N_BITS, chunk):
        acts = np.stack([unpack(p[lo // 64:(lo + chunk) // 64], chunk)
                         for p in planes])
        for j in range(weights.shape[0]):
            agree = (acts == weights[j][:, None]).sum(axis=0, dtype=np.uint8)
            totals[j] += int((agree >= weights.shape[1] // 2).sum())
    return [int(v) for v in totals]


class ScanBulk:
    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        rng = self.rng
        self.cols = [f"c{i}" for i in range(N_COLS)]
        self.planes = [f"x{k}" for k in range(N_FEATURES)]
        self.shadow = Shadow(N_BITS)
        for name in self.cols + self.planes:
            self.shadow.add_words(name, rng.integers(
                0, 1 << 63, N_BITS // 64, dtype=np.uint64)
                | (rng.integers(0, 2, N_BITS // 64, dtype=np.uint64) << 63))
        self.weights = rng.integers(0, 2, (N_NEURONS, N_FEATURES),
                                    dtype=np.uint8)
        self.program = bnn_program(self.weights)
        self.bnn_counts = bnn_counts(
            [self.shadow.cols[p] for p in self.planes], self.weights)
        # The set-up probe's plans are part of the workload, not of the
        # seed, so its energy per row does not drift with the seed.
        self.warm = self.round_ops(np.random.default_rng(N_COLS))
        rng.shuffle(self.warm["preds"])  # probe order drawn from the seed
        self.service = None

    # -- inputs --------------------------------------------------------
    def round_ops(self, rng=None) -> dict:
        rng = rng or self.rng
        preds = [random_predicate(rng, self.cols, 3, full=True)
                 for _ in range(8)]
        matches = []
        for _ in range(4):
            cols = [self.cols[i] for i in
                    sorted(rng.choice(N_COLS, 8, replace=False))]
            matches.append(("match", cols, random_key(rng, 8, 2)))
        col = self.cols[int(rng.integers(N_COLS))]
        offset = int(rng.integers(0, N_BITS - 4096))
        bits = (rng.random(4096) < 0.5).astype(np.uint8)
        return {"preds": preds, "matches": matches,
                "write": (col, offset, bits)}

    # -- program side --------------------------------------------------
    def set_up(self) -> tuple[float, float, float, float]:
        """Build the service, load columns, spawn and warm the pool.

        Returns ``(user CPU s, wall s, warm-up energy J, warm-up rows)``.
        Only the service calls count (unpacking inputs is the
        benchmark's work); the CPU includes the shard workers', whose
        spawn and first jobs happen here.
        """
        from repro.service import BitwiseService
        if self.service is not None:
            self.service.close()
        watch = Stopwatch()
        with watch:
            self.service = BitwiseService(n_bits=N_BITS, workers=WORKERS)
        for name in self.cols + self.planes:
            bits = unpack(self.shadow.cols[name], N_BITS)
            with watch:
                self.service.create_column(name, bits)
        # Warm-up doubles as the energy probe: a fixed op sequence on a
        # fresh service, so its energy repeats exactly for a seed.  Its
        # write stores the bits already there, so the table (and the
        # shadow) leave set-up unchanged.
        col, offset, _ = self.warm["write"]
        same = self.shadow.bits(col, offset, 4096)
        svc = self.service
        with watch:
            svc.write_slice(col, offset, same)
            program = svc.run_program(self.program)
            results = svc.execute([render(p) for p in self.warm["preds"]])
            matches = [svc.match(m[1], m[2]) for m in self.warm["matches"]]
        energy = program.energy_j + sum(r.energy_j
                                        for r in results + matches)
        rows = N_BITS * (1 + len(results) + len(matches))
        cpu = watch.cpu + user_cpu_seconds(children(os.getpid()))
        if program.counts != {f"neuron{j}": c
                              for j, c in enumerate(self.bnn_counts)}:
            raise CheckFailed(f"BNN counts {program.counts} != "
                              f"{self.bnn_counts}")
        for tree, result in zip(self.warm["preds"], results):
            self.check_count(tree, result)
        return cpu, watch.wall, energy, rows

    def check_count(self, tree, result) -> None:
        expect = self.shadow.count(tree)
        if result.count != expect:
            raise CheckFailed(f"{render(tree)}: count {result.count} "
                              f"!= {expect}")

    def check_page(self, tree, result) -> None:
        offset = int(self.rng.integers(0, N_BITS - SAMPLE_BITS))
        got = result.payload.unpack()[offset:offset + SAMPLE_BITS]
        expect = page(self.shadow.eval(tree), offset, SAMPLE_BITS)
        if not np.array_equal(got, expect):
            raise CheckFailed(f"{render(tree)}: bits page at {offset} "
                              f"differs from the shadow")

    def check_bnn(self, program) -> None:
        if program.counts != {f"neuron{j}": c
                              for j, c in enumerate(self.bnn_counts)}:
            raise CheckFailed(f"BNN counts {program.counts} != "
                              f"{self.bnn_counts}")
        lanes = self.rng.choice(N_BITS, SAMPLE_LANES, replace=False)
        j = int(self.rng.integers(N_NEURONS))
        got = program.payloads[f"neuron{j}"].unpack()
        expect = bnn_reference([self.shadow.cols[p] for p in self.planes],
                               self.weights, lanes)[j]
        if not np.array_equal(np.asarray(got)[lanes], expect):
            raise CheckFailed(f"BNN neuron{j} differs at sampled lanes")

    # -- timed loop ----------------------------------------------------
    def timed(self, seconds: float) -> dict:
        svc = self.service
        t_exec, t_match, t_prog, t_write = [], [], [], []
        watch = Stopwatch()  # service calls only, not the checks

        def call(times, fn, *args):
            before = watch.wall
            with watch:
                result = fn(*args)
            times.append(watch.wall - before)
            return result

        workers = children(os.getpid())
        workers_cpu = user_cpu_seconds(workers)
        window_start = time.perf_counter_ns()
        deadline = time.perf_counter() + seconds
        rounds = 0
        while time.perf_counter() < deadline or rounds < 3:
            ops = self.round_ops()
            texts = [render(p) for p in ops["preds"]]
            results = call(t_exec, svc.execute, texts)
            for tree, result in zip(ops["preds"], results):
                self.check_count(tree, result)
            if rounds % 2 == 0:
                pick = int(self.rng.integers(len(texts)))
                self.check_page(ops["preds"][pick], results[pick])
            for match in ops["matches"]:
                result = call(t_match, svc.match, match[1], match[2])
                self.check_count(match, result)
            col, offset, bits = ops["write"]
            call(t_write, svc.write_slice, col, offset, bits)
            self.shadow.write_slice(col, offset, bits)
            if rounds % 3 == 0:
                self.check_bnn(call(t_prog, svc.run_program, self.program))
            rounds += 1
        # The shard workers only run inside service calls.
        cpu = watch.cpu + user_cpu_seconds(workers) - workers_cpu
        reads = t_exec + t_match
        return {
            "rounds": rounds, "window": (window_start,
                                         time.perf_counter_ns()),
            "read_p50_ms": pct(reads, 50) * 1e3,
            "read_p99_ms": pct(reads, 99) * 1e3,
            "write_p50_ms": pct(t_write, 50) * 1e3,
            "write_p99_ms": pct(t_write, 99) * 1e3,
            # rows one op answers per second of its median latency
            "query_rows_per_s": 8 * N_BITS / median(t_exec),
            "match_rows_per_s": N_BITS / median(t_match),
            "program_lanes_per_s": N_BITS / median(t_prog),
            "n_reads": len(reads), "n_writes": len(t_write),
            "n_programs": len(t_prog),
            "user_cpu_ms_per_op": cpu * 1e3 / (len(reads) + len(t_write)
                                             + len(t_prog)),
            "op_s": watch.wall,
            "execute_p50_ms": pct(t_exec, 50) * 1e3,
            "match_p50_ms": pct(t_match, 50) * 1e3,
            "program_p50_ms": pct(t_prog, 50) * 1e3,
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


def run_scan(seed: int, seconds: float, trace: bool, profile: dict) -> dict:
    bench = ScanBulk(seed)
    try:
        if trace:
            return _run_traced(bench, seconds, profile)
        setups = [bench.set_up() for _ in range(SETUPS)]
        probes = {(energy, rows) for _, _, energy, rows in setups}
        if len(probes) != 1:
            raise CheckFailed(f"energy probe did not repeat: {probes}")
        out = bench.timed(seconds)
        rss = peak_rss_mb(os.getpid())
        stats = bench.service.stats()
    finally:
        bench.close()
    energy, rows = probes.pop()
    metrics = {
        "setup_s": median([cpu for cpu, _, _, _ in setups]),
        "peak_rss_mb": rss,
        **{k: out[k] for k in ("read_p50_ms", "read_p99_ms", "write_p50_ms",
                               "write_p99_ms", "query_rows_per_s",
                               "match_rows_per_s", "program_lanes_per_s")},
        "sim_energy_pj_per_row": energy * 1e12 / rows,
        "user_cpu_ms_per_op": out["user_cpu_ms_per_op"],
        "error_rate": 0.0,
    }
    attempted = out["n_reads"] + out["n_writes"] + out["n_programs"]
    report = [
        f"  closed loop, one caller: {out['rounds']} rounds, "
        f"{out['n_reads']} reads, {out['n_writes']} writes, "
        f"{out['n_programs']} BNN programs (read tail reported as p99, "
        f"{tail_label(out['n_reads'])} has 10 samples beyond it)",
        f"  execute(8) p50 {out['execute_p50_ms']:.2f} ms, match p50 "
        f"{out['match_p50_ms']:.2f} ms, BNN p50 "
        f"{out['program_p50_ms']:.2f} ms",
        "  set-ups (user CPU / wall s): " + ", ".join(
            f"{cpu:.3f} / {wall:.3f}" for cpu, wall, _, _ in setups),
        f"  cache hits {stats['cache_hits']}, worker pool "
        f"{stats['executor']['worker_pool']}",
    ]
    return {"metrics": metrics, "attempted": attempted, "failed": 0,
            "report": report}


def _run_traced(bench: ScanBulk, seconds: float, profile: dict) -> dict:
    from tracing import Tracer, install, layer_metrics
    bench.set_up()
    plain = bench.timed(seconds / 2)
    tracer = Tracer()
    install(tracer)
    setup_mark = time.perf_counter_ns()
    bench.set_up()
    traced = bench.timed(seconds / 2)
    stats = bench.service.stats()
    spans = tracer.export()
    pool = stats["executor"]["worker_pool"] or {}
    scatters = [s for s in spans if s[0] == "workers.scatter"]
    lo, hi = traced["window"]
    steady = [s[2] - s[1] for s in scatters if s[1] >= lo]
    first = [s[2] - s[1] for s in scatters if setup_mark <= s[1] < lo]
    spawn_s = (first[0] - median(steady)) / 1e9 if first and steady else 0.0
    counters = {"workers.jobs": pool.get("jobs", 0),
                "workers.respawns": pool.get("respawns", 0)}
    layers, table = layer_metrics(
        spans, traced["window"], e2e_ns=int(traced["op_s"] * 1e9),
        counters=counters, memcpy_gbps=profile["memcpy_gbps"],
        worker_spawn_s=spawn_s)
    layers["loadgen.lag_p99_ms"] = 0.0
    layers["loadgen.encode_ms"] = 0.0
    report = ["  per-layer self time (traced run):", *table,
              "  loadgen: no load generator (one in-process caller)",
              "  tracing overhead (traced minus untraced):"]
    for key in ("read_p50_ms", "read_p99_ms", "write_p50_ms",
                "write_p99_ms", "query_rows_per_s", "match_rows_per_s",
                "program_lanes_per_s"):
        report.append(f"    {key:<20} {plain[key]:14.4g} -> "
                      f"{traced[key]:14.4g}  "
                      f"({100 * (traced[key] / plain[key] - 1):+.1f}%)")
    attempted = sum(r["n_reads"] + r["n_writes"] + r["n_programs"]
                    for r in (plain, traced))
    return {"metrics": layers, "attempted": attempted, "failed": 0,
            "report": report}
