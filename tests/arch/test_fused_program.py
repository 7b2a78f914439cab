"""Peephole-fused bytecode: exactness, structure, kernel wins, and
process-tier execution.

The fuser may only change *how* a plan executes — never its bits,
popcounts, or analytic Stats.  These tests pin the edge cases the
pass special-cases (single-step programs, every-step-an-output,
constant-only plans, self-cancelling operands) on both technologies,
and the wins themselves: fused plans take strictly fewer steps and
run strictly fewer kernels on real workloads, and the shard-worker
tier is bit- and Stats-identical to the engine replay.
"""

import numpy as np
import pytest

from repro.arch.expr import compile_expr, parse
from repro.arch.program import Program, compile_program
from repro.service import BitwiseService
from repro.service.columnstore import ColumnStore
from tests.arch.test_vector_program import N_BITS, QUERIES, numpy_eval
from tests.support.differential import assert_program_equivalent

EDGE_QUERIES = [
    "a",            # single step (copy)
    "~a",           # single step, no fusible pair
    "a & b",        # single step, output is the only dst
    "0",            # const-only
    "1",            # const-only
    "a ^ a",        # self-cancelling -> constant 0
    "a & ~a",       # andnot(a, a) -> constant 0
    "andnot(a, a)",
    "a | ~a",       # tautology
]


@pytest.fixture
def table(rng):
    return {name: rng.integers(0, 2, N_BITS, dtype=np.uint8)
            for name in "abcd"}


@pytest.fixture
def store(table):
    store = ColumnStore(N_BITS, 3)
    for name, bits in table.items():
        store.add(name, bits)
    return store


class TestFusedExactness:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("inverting", [True, False])
    def test_matches_numpy(self, store, table, query, inverting):
        plan = compile_expr(query, inverting=inverting)
        program = plan.vector_program(fused=True)
        matrix = program.run(store.snapshot(), shape=store.shape)
        expected = numpy_eval(parse(query), table)
        assert np.array_equal(store.unpack(matrix), expected), query
        assert int(store.popcounts(matrix).sum()) == int(expected.sum())

    @pytest.mark.parametrize("query", EDGE_QUERIES)
    @pytest.mark.parametrize("inverting", [True, False])
    def test_edge_queries(self, store, table, query, inverting):
        plan = compile_expr(query, inverting=inverting)
        program = plan.vector_program(fused=True)
        matrix = program.run(store.snapshot(), shape=store.shape)
        expected = numpy_eval(parse(query), table)
        assert np.array_equal(store.unpack(matrix), expected), query

    @pytest.mark.parametrize("query", QUERIES)
    def test_fused_schedule_reruns_exactly(self, store, table, query):
        """The cached schedule is reused run after run, and every run
        returns a fresh output matrix."""
        program = compile_expr(query).vector_program(fused=True)
        first = program.run(store.snapshot(), shape=store.shape)
        second = program.run(store.snapshot(), shape=store.shape)
        assert first is not second
        expected = numpy_eval(parse(query), table)
        for matrix in (first, second):
            assert np.array_equal(store.unpack(matrix), expected), query

    def test_columns_never_written(self, store, table):
        before = {name: store.matrix(name).copy() for name in table}
        for query in QUERIES:
            plan = compile_expr(query, inverting=True)
            plan.vector_program(fused=True).run(store.snapshot(),
                                                shape=store.shape)
        for name, matrix in before.items():
            assert np.array_equal(store.matrix(name), matrix), name


class TestFusedStructure:
    def test_fused_program_cached_separately(self):
        plan = compile_expr("~(a & b) | c")
        fused = plan.vector_program(fused=True)
        assert plan.vector_program(fused=True) is fused
        assert plan.vector_program() is not fused
        assert fused.fused and not plan.vector_program().fused

    def test_unfused_program_not_mutated(self):
        plan = compile_expr("~(a ^ (b | ~c))")
        unfused_steps = list(plan.vector_program().steps)
        plan.vector_program(fused=True)
        assert list(plan.vector_program().steps) == unfused_steps

    def test_fusion_shrinks_multi_step_plans(self):
        # not-after-xor and not-after-nor both collapse.
        for query in ("~(a ^ b)", "(a & b & ~c) | (c & d)"):
            plan = compile_expr(query)
            fused = plan.vector_program(fused=True)
            assert len(fused.steps) < len(plan.vector_program().steps), \
                query

    def test_single_step_program_survives_fusion(self):
        plan = compile_expr("a & b")
        fused = plan.vector_program(fused=True)
        assert len(fused.steps) == len(plan.vector_program().steps)

    @pytest.mark.parametrize("technology", ["feram-2tnc", "dram"])
    def test_all_steps_outputs_program(self, technology, table):
        """Every statement is an output: nothing may fuse across the
        protected dsts, and the results must stay exact."""
        program = Program([
            ("x", parse("a & b")),
            ("y", parse("~x")),
            ("z", parse("x ^ c")),
        ], outputs=("x", "y", "z"))
        cprog = compile_program(program)
        fused = cprog.vector_program(fused=True)
        unfused = cprog.vector_program()
        assert len(fused.steps) == len(unfused.steps)
        assert_program_equivalent(program, table,
                                  technology=technology,
                                  n_shards=2, fused=True)

    def test_attributed_stats_untouched_by_fusion(self, table):
        """The analytic cost model prices the *plan*, not the host
        execution strategy: fusing must not change the attributed
        count/cycles/energy of a query."""
        results = {}
        for fuse in (False, True):
            svc = BitwiseService("feram-2tnc", n_bits=N_BITS,
                                 n_shards=3, fuse=fuse)
            try:
                for name, bits in table.items():
                    svc.create_column(name, bits)
                result = svc.query("~(a ^ (b | ~c))", use_cache=False)
                results[fuse] = (result.count, result.cycles,
                                 result.energy_j,
                                 result.primitives_per_row)
            finally:
                svc.close()
        assert results[True] == results[False]


class TestFusedKernels:
    @pytest.mark.parametrize("workload", ["crc8", "bnn"])
    def test_fused_never_runs_more_kernels(self, workload):
        """On real programs the fused schedule runs no more kernels and
        needs no more scratch slots than the unfused one."""
        from repro.workloads.bnn import BnnInference
        from repro.workloads.crc8 import Crc8

        cls = {"crc8": Crc8, "bnn": BnnInference}[workload]
        cprog = compile_program(cls(1 << 10).as_program(seed=3).program)
        fused = cprog.vector_program(fused=True).schedule()
        unfused = cprog.vector_program().schedule()
        assert len(fused.kernels) <= len(unfused.kernels)
        assert fused.n_scratch <= unfused.n_scratch

    @pytest.mark.parametrize("query", ["a & (b | c)", "~(a | b) & ~c",
                                       "~(a & ~b)"])
    def test_fusion_removes_kernels(self, query):
        """``andor``/``noror``/``ornot`` fusions drop kernels."""
        plan = compile_expr(query)
        fused = plan.vector_program(fused=True).schedule()
        assert len(fused.kernels) < \
            len(plan.vector_program().schedule().kernels), query


class TestParallelExecution:
    @pytest.mark.parametrize("technology", ["feram-2tnc", "dram"])
    def test_parallel_service_backend_equivalent(self, technology,
                                                 table):
        """workers=2 with the size heuristic forced open must be
        indistinguishable from the engine replay — bits, counts,
        per-statement Stats, and the aggregate ledgers."""
        program = Program([
            ("t", parse("a & ~b")),
            ("u", parse("t ^ c")),
            ("v", parse("maj(t, u, d)")),
        ], outputs=("u", "v"))
        assert_program_equivalent(program, table,
                                  technology=technology, n_shards=3,
                                  fused=True, workers=2,
                                  parallel_min_work=0)
