"""Query-service and expression-compiler benchmarks.

Tracks the tentpole claims of the compiler/service layer:

* the compiled Fig. 6 bitmap predicate costs fewer native primitives
  than the naive op chain (6 vs 7 ACPs/row on FeRAM);
* common-subexpression reuse widens the gap on multi-term queries;
* the sharded service sustains batched query throughput with a working
  result cache;
* the columnar executor answers the same queries as the per-shard
  engine replay (``tests/support/replay.py``), bit- and cycle-exactly,
  from whole-matrix numpy kernels (the `service_batch`/`service_scale`
  speedups recorded in ``BENCH_substrate.json``).
"""

import numpy as np

from repro.arch.expr import compile_expr, native_primitives, naive_run, parse
from repro.arch.primitives import make_engine
from repro.service import BitwiseService
from tests.support.replay import EngineReplay

BITMAP_QUERY = "(c0 & c1 & ~c2) | (c3 & c4 & c5)"
CSE_QUERY = "(c0 & c1 & ~c2) | (c0 & c1 & c3) | (c4 & c5)"


def test_bitmap_query_compiled_beats_naive(benchmark):
    """The acceptance number: compiled < naive on the FeRAM engine."""
    plan = benchmark(compile_expr, BITMAP_QUERY, inverting=True)
    assert plan.naive_primitives == 7
    assert plan.primitives == 6
    benchmark.extra_info["bitmap_acp_per_row"] = {
        "naive": plan.naive_primitives, "compiled": plan.primitives}


def test_cse_query_compiled_beats_naive_both_techs(benchmark):
    def compile_both():
        return {inverting: compile_expr(CSE_QUERY, inverting=inverting)
                for inverting in (True, False)}

    plans = benchmark(compile_both)
    for inverting, plan in plans.items():
        assert plan.primitives < plan.naive_primitives, inverting
    benchmark.extra_info["cse_primitives_per_row"] = {
        "feram": {"naive": plans[True].naive_primitives,
                  "compiled": plans[True].primitives},
        "dram": {"naive": plans[False].naive_primitives,
                 "compiled": plans[False].primitives},
    }


def test_compiled_counts_hold_at_row_scale(benchmark):
    """Counting-mode run at 64 rows: per-row counts scale exactly."""
    def measure(run_query):
        # Fresh engine per measurement: a prior run's value-preserving
        # flag re-encodings would otherwise skew the next one's count.
        engine = make_engine("feram-2tnc", functional=False)
        n_bits = engine.spec.row_bits * 64
        columns = {}
        first = None
        for k in range(6):
            columns[f"c{k}"] = engine.allocate(n_bits, group_with=first)
            first = first or columns[f"c{k}"]
        run_query(engine, columns)
        return native_primitives(engine.stats)

    def run():
        plan = compile_expr(BITMAP_QUERY, inverting=True)
        return (measure(plan.run),
                measure(lambda eng, cols:
                        naive_run(parse(BITMAP_QUERY), eng, cols)))

    compiled, naive = benchmark(run)
    assert compiled == 6 * 64
    assert naive == 7 * 64


def test_service_batch_throughput(benchmark):
    rng = np.random.default_rng(0)
    n_bits = 1 << 18
    service = BitwiseService("feram-2tnc", n_bits=n_bits, n_shards=4)
    for name in ("a", "b", "c", "d"):
        service.create_column(
            name, (rng.random(n_bits) < 0.35).astype(np.uint8))
    queries = ["a & ~b", "(a & b & ~c) | (c & d)", "a ^ b ^ c",
               "maj(a, b, c) | ~d", "sel(a, b, c) & d"]

    try:
        results = benchmark(service.execute, queries, use_cache=False)
        assert all(result.count is not None for result in results)
        # Spot-check one result against numpy.
        a = service.column_bits("a")
        b = service.column_bits("b")
        assert results[0].count == int((a & (1 - b)).sum())
    finally:
        service.close()


def test_vector_backend_batch_throughput(benchmark):
    """The columnar executor on the perf-smoke batch shape."""
    rng = np.random.default_rng(0)
    n_bits = 1 << 18
    service = BitwiseService("feram-2tnc", n_bits=n_bits, n_shards=4)
    for name in ("a", "b", "c", "d"):
        service.create_column(
            name, (rng.random(n_bits) < 0.35).astype(np.uint8))
    queries = ["a & ~b", "(a & b & ~c) | (c & d)", "a ^ b ^ c",
               "maj(a, b, c) | ~d", "sel(a, b, c) & d"]
    service.execute(queries, use_cache=False)  # warm plans/programs

    try:
        results = benchmark(service.execute, queries, use_cache=False)
        assert all(result.count is not None for result in results)
        a = service.column_bits("a")
        b = service.column_bits("b")
        assert results[0].count == int((a & (1 - b)).sum())
    finally:
        service.close()


def test_vector_backend_matches_reference_batch(benchmark):
    """Equivalence bench: the service and the engine replay answer the
    same queries; the service must match bit-for-bit and
    cycle-for-cycle."""
    n_bits = 1 << 16
    queries = ["a & ~b", "(a & b & ~c) | (c & d)", "a ^ b ^ c"]

    def both():
        rng_local = np.random.default_rng(2)
        table = {name: (rng_local.random(n_bits) < 0.4).astype(np.uint8)
                 for name in ("a", "b", "c", "d")}
        replay = EngineReplay("feram-2tnc", n_bits=n_bits, n_shards=4)
        with BitwiseService("feram-2tnc", n_bits=n_bits,
                            n_shards=4) as svc:
            for name, bits in table.items():
                replay.create_column(name, bits)
                svc.create_column(name, bits)
            return [(replay.query(query),
                     svc.query(query, use_cache=False))
                    for query in queries]

    for query, (exp, act) in zip(queries, benchmark(both)):
        assert np.array_equal(exp.bits, act.bits), query
        assert exp.cycles == act.cycles, query


def test_service_cache_serves_repeats(benchmark):
    rng = np.random.default_rng(1)
    n_bits = 1 << 16
    service = BitwiseService("feram-2tnc", n_bits=n_bits, n_shards=2)
    for name in ("a", "b"):
        service.create_column(
            name, (rng.random(n_bits) < 0.5).astype(np.uint8))
    service.query("a & b")  # warm

    def repeat():
        return service.query("b & a")  # canonical equivalent

    try:
        result = benchmark(repeat)
        assert result.cache_hit
    finally:
        service.close()
