"""Register-machine bytecode: bit-exactness against numpy references,
the tiled executor's memory bound, and batch merges."""

import numpy as np
import pytest

import tracemalloc

from repro.arch.expr import VectorProgram, compile_expr, parse
from repro.errors import QueryError
from repro.service import BitwiseService
from repro.service.columnstore import ColumnStore

N_BITS = 777  # non-multiple of 64: exercises masking/tails
QUERIES = [
    "a",
    "~a",
    "a & b",
    "~(a & b)",
    "a | b",
    "~a & ~b",
    "~a | ~b",
    "a & ~b",
    "a ^ b",
    "~a ^ b",
    "a ^ a",
    "a & ~a",
    "a | ~a",
    "andnot(a, a)",
    "maj(a, b, c)",
    "maj(~a, b, c)",
    "maj(a, a, b)",
    "sel(a, b, c)",
    "sel(~a, b, ~c)",
    "(a & b & ~c) | (c & d)",
    "(a & b & ~c) | (a & b & d) | (c & ~d)",
    "a ^ b ^ c ^ d",
    "xnor(a, b)",
    "nor(a, b, c)",
    "nand(a, b)",
    "~(a ^ (b | ~c))",
    "0",
    "1",
    "a & 1",
    "a & 0",
]


def numpy_eval(expr, table):
    """Bit-level reference evaluation of the raw AST."""
    from repro.arch import expr as e

    if isinstance(expr, e.Col):
        return table[expr.name]
    if isinstance(expr, e.Const):
        return np.full(N_BITS, expr.bit, dtype=np.uint8)
    kids = [numpy_eval(k, table) for k in expr.children()]
    if isinstance(expr, e.Not):
        return 1 - kids[0]
    if isinstance(expr, (e.And, e.Nand)):
        out = kids[0]
        for k in kids[1:]:
            out = out & k
        return 1 - out if isinstance(expr, e.Nand) else out
    if isinstance(expr, (e.Or, e.Nor)):
        out = kids[0]
        for k in kids[1:]:
            out = out | k
        return 1 - out if isinstance(expr, e.Nor) else out
    if isinstance(expr, (e.Xor, e.Xnor)):
        out = kids[0]
        for k in kids[1:]:
            out = out ^ k
        return 1 - out if isinstance(expr, e.Xnor) else out
    if isinstance(expr, e.AndNot):
        return kids[0] & (1 - kids[1])
    if isinstance(expr, e.Maj):
        return ((kids[0].astype(int) + kids[1] + kids[2]) >= 2
                ).astype(np.uint8)
    if isinstance(expr, e.Select):
        return (kids[0] & kids[1]) | ((1 - kids[0]) & kids[2])
    raise AssertionError(type(expr))


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


class TestProgramExactness:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("inverting", [True, False])
    def test_matches_numpy(self, store, table, query, inverting):
        plan = compile_expr(query, inverting=inverting)
        program = plan.vector_program()
        matrix = program.run(store.snapshot(), shape=store.shape)
        expected = numpy_eval(parse(query), table)
        assert np.array_equal(store.unpack(matrix), expected), query
        assert int(store.popcounts(matrix).sum()) == int(expected.sum())

    def test_program_is_cached_on_plan(self):
        plan = compile_expr("a & b")
        assert plan.vector_program() is plan.vector_program()

    def test_constant_program_needs_shape(self):
        plan = compile_expr("1")
        with pytest.raises(QueryError, match="shape"):
            plan.vector_program().run({})

    def test_columns_never_written(self, store, table):
        before = {name: store.matrix(name).copy() for name in table}
        for query in QUERIES:
            plan = compile_expr(query, inverting=True)
            plan.vector_program().run(store.snapshot(),
                                      shape=store.shape)
        for name in table:
            assert np.array_equal(store.matrix(name), before[name]), name


class TestTiledExecution:
    def test_intermediates_never_take_a_full_matrix(self):
        """A deep plan over a table far wider than the L2 budget
        allocates its output plus tile-sized scratch only: the run's
        peak allocation stays below two full matrices, where one
        full-size matrix per intermediate used to be the rule."""
        n_bits = 1 << 24  # 2 MiB per column matrix
        store = ColumnStore(n_bits, 4)
        rng = np.random.default_rng(5)
        for name in "abcdef":
            store.add(name, rng.integers(0, 2, n_bits, dtype=np.uint8))
        plan = compile_expr("maj(a ^ b, c & ~d, e | f) ^ (a & c & e)"
                            " ^ ~(b | d | f)")
        program = plan.vector_program(fused=True)
        program.run(store.snapshot(), shape=store.shape)  # build once
        assert program.schedule().n_scratch >= 3
        matrix_bytes = store.shape[0] * store.shape[1] * 8
        tracemalloc.start()
        try:
            counts = {}
            result = program.run_outputs(store.snapshot(),
                                         shape=store.shape,
                                         counts=counts)[None]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * matrix_bytes, peak
        assert int(counts[None].sum()) == \
            int(store.popcounts(result).sum())

    @pytest.mark.parametrize("query", QUERIES)
    def test_small_tiles_match_numpy(self, store, table, query,
                                     monkeypatch):
        """A budget of a few words forces many tiles per shard row."""
        from repro.arch import expr as expr_module

        monkeypatch.setattr(expr_module, "_TILE_BUDGET", 8 * 8)
        program = compile_expr(query).vector_program(fused=True)
        counts = {}
        matrix = program.run_outputs(store.snapshot(), shape=store.shape,
                                     mask=store.mask,
                                     counts=counts)[None]
        expected = numpy_eval(parse(query), table)
        assert np.array_equal(store.unpack(matrix), expected), query
        assert counts[None].tolist() == store.popcounts(matrix).tolist()

    def test_fused_absorption_stays_exact(self, store, table):
        """``x & (x | d)`` fuses into one ``andor`` that reads ``x``
        twice; reusing ``x``'s dying buffer as the destination would
        overwrite it before its second read."""
        bc = table["b"] & table["c"]
        for query, expected in (
                ("(b & c) & ((b & c) | d)", bc),
                ("(b ^ c) & ((b ^ c) | d)", table["b"] ^ table["c"])):
            for fused in (False, True):
                program = compile_expr(query).vector_program(fused=fused)
                matrix = program.run(store.snapshot(), shape=store.shape)
                assert np.array_equal(store.unpack(matrix), expected), \
                    (query, fused)


class TestMerge:
    def _parts(self, queries, scope=None, colmap=None):
        return [(query, compile_expr(query).vector_program(), colmap or {},
                 scope) for query in queries]

    def test_shared_node_runs_once_per_batch(self, store, table):
        queries = ["(a & b) | c", "(b & a) ^ d", "a & b"]
        merged = VectorProgram.merge(self._parts(queries))
        keys = [step[0] for step in merged.steps]
        assert keys.count("&(c:a,c:b)") == 1
        outputs = merged.run_outputs(store.snapshot(), shape=store.shape)
        ab = table["a"] & table["b"]
        assert np.array_equal(store.unpack(outputs["a & b"]), ab)
        assert np.array_equal(store.unpack(outputs["(a & b) | c"]),
                              ab | table["c"])
        assert np.array_equal(store.unpack(outputs["(b & a) ^ d"]),
                              ab ^ table["d"])

    def test_scopes_never_share(self, store, table):
        """The same node key under two scopes names different data."""
        parts = [("t1", compile_expr("x & y").vector_program(),
                  {"x": "a", "y": "b"}, "t1"),
                 ("t2", compile_expr("x & y").vector_program(),
                  {"x": "c", "y": "d"}, "t2")]
        merged = VectorProgram.merge(parts)
        assert len(merged.steps) == 2
        outputs = merged.run_outputs(store.snapshot(), shape=store.shape)
        assert np.array_equal(store.unpack(outputs["t1"]),
                              table["a"] & table["b"])
        assert np.array_equal(store.unpack(outputs["t2"]),
                              table["c"] & table["d"])

    def test_merge_rejects_multi_output_programs(self):
        from repro.arch.program import Program, compile_program

        cprog = compile_program(Program([("x", parse("a & b"))],
                                        outputs=("x",)))
        with pytest.raises(QueryError, match="single-output"):
            VectorProgram.merge([("p", cprog.vector_program(), {}, None)])

    def test_service_batch_runs_one_merged_pass(self, table,
                                                monkeypatch):
        """An in-process batch enters the kernels once, with the
        shared sub-expression computed once."""
        seen = []
        original = VectorProgram.run_outputs

        def spy(program, columns, **kwargs):
            seen.append(program)
            return original(program, columns, **kwargs)

        monkeypatch.setattr(VectorProgram, "run_outputs", spy)
        with BitwiseService(n_bits=N_BITS, n_shards=3) as svc:
            for name, bits in table.items():
                svc.create_column(name, bits)
            results = svc.execute(["(a & b) | c", "(a & b) ^ d", "c"])
        assert len(seen) == 1
        keys = [step[0] for step in seen[0].steps]
        assert keys.count("&(c:a,c:b)") == 1
        ab = table["a"] & table["b"]
        for result, expected in zip(results, (ab | table["c"],
                                              ab ^ table["d"],
                                              table["c"])):
            assert np.array_equal(result.bits, expected)
            assert result.count == int(expected.sum())
