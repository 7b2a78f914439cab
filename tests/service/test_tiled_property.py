"""Property tests of the cache-blocked executor against a numpy oracle.

The tiled loop (:class:`repro.arch.expr._Schedule`) must be invisible:
for random batches of expressions — with duplicates and shared
sub-expressions, merged across two tenants that bind the same logical
names to different physical columns, fused or not — every output's
bits and every per-shard popcount equal a plain numpy evaluation, on
table geometries placed around the tile width (below one tile,
exactly one tile, one word either side, several tiles), with
``n_bits % 64 != 0``, non-uniform shard spans, and heap or shared
stores.  The service-level properties run the same batches through
``BitwiseService`` in-process and on two shard workers.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import expr as expr_module
from repro.arch.expr import (
    And,
    AndNot,
    Col,
    Const,
    Maj,
    Nand,
    Nor,
    Not,
    Or,
    Select,
    VectorProgram,
    Xnor,
    Xor,
    compile_expr,
)
from repro.arch.program import Program, compile_program
from repro.service import BitwiseService
from repro.service.columnstore import ColumnStore

NAMES = "abcde"
TENANTS = ("t0", "t1")

pytestmark = pytest.mark.timeout(300)


def oracle(expr, table: dict, n_bits: int) -> np.ndarray:
    """Flat 0/1 evaluation of an expression tree."""
    if isinstance(expr, Col):
        return table[expr.name]
    if isinstance(expr, Const):
        return np.full(n_bits, expr.bit, dtype=np.uint8)
    kids = [oracle(kid, table, n_bits) for kid in expr.children()]
    if isinstance(expr, Not):
        return 1 - kids[0]
    if isinstance(expr, AndNot):
        return kids[0] & (1 - kids[1])
    if isinstance(expr, Maj):
        return ((kids[0].astype(int) + kids[1] + kids[2]) >= 2
                ).astype(np.uint8)
    if isinstance(expr, Select):
        return (kids[0] & kids[1]) | ((1 - kids[0]) & kids[2])
    fold = {And: np.bitwise_and, Nand: np.bitwise_and,
            Or: np.bitwise_or, Nor: np.bitwise_or,
            Xor: np.bitwise_xor, Xnor: np.bitwise_xor}
    for cls, fn in fold.items():
        if isinstance(expr, cls):
            out = kids[0]
            for kid in kids[1:]:
                out = fn(out, kid)
            return 1 - out if cls in (Nand, Nor, Xnor) else out
    raise AssertionError(type(expr))


@st.composite
def expressions(draw, max_nodes: int = 9):
    """A pool of expressions built from earlier ones, so later nodes
    share sub-expressions with each other."""
    pool = [Col(name) for name in NAMES]
    for _ in range(draw(st.integers(1, max_nodes))):
        kind = draw(st.sampled_from(
            ["and", "or", "xor", "not", "andnot", "maj", "sel", "nand",
             "nor", "xnor", "const"]))
        picks = [draw(st.sampled_from(pool)) for _ in range(3)]
        node = {
            "and": lambda: And(picks[0], picks[1]),
            "or": lambda: Or(picks[0], picks[1]),
            "xor": lambda: Xor(picks[0], picks[1]),
            "not": lambda: Not(picks[0]),
            "andnot": lambda: AndNot(picks[0], picks[1]),
            "maj": lambda: Maj(*picks),
            "sel": lambda: Select(*picks),
            "nand": lambda: Nand(picks[0], picks[1]),
            "nor": lambda: Nor(picks[0], picks[1], picks[2]),
            "xnor": lambda: Xnor(picks[0], picks[1]),
            "const": lambda: And(picks[0], Const(draw(st.integers(0, 1)))),
        }[kind]()
        pool.append(node)
    return pool


@st.composite
def batches(draw, max_queries: int = 6):
    """``[(expr, tenant)]`` with duplicates and shared sub-terms."""
    pool = draw(expressions())
    picks = st.sampled_from(pool[len(NAMES) - 1:])
    return [(draw(picks), draw(st.sampled_from(TENANTS)))
            for _ in range(draw(st.integers(1, max_queries)))]


def _layout(data, tile_words: int) -> tuple[int, int, int]:
    """``(n_bits, n_shards, capacity)`` whose widest shard row sits at
    a drawn distance from the tile width."""
    width = data.draw(st.sampled_from(sorted({
        1, max(1, tile_words // 2), max(1, tile_words - 1), tile_words,
        tile_words + 1, 2 * tile_words + 1})), label="words per shard")
    n_shards = data.draw(st.integers(1, 4), label="shards")
    short = data.draw(st.integers(0, n_shards - 1), label="short shards")
    cap_words = max(1, n_shards * width - short)
    capacity = cap_words * 64 - data.draw(st.integers(0, 63))
    n_bits = capacity - data.draw(
        st.integers(0, min(capacity - 1, 130)), label="capacity slack")
    return n_bits, n_shards, capacity


def _tables(rng, n_bits: int) -> dict[str, dict[str, np.ndarray]]:
    return {tenant: {name: rng.integers(0, 2, n_bits, dtype=np.uint8)
                     for name in NAMES} for tenant in TENANTS}


def _shard_counts(bits: np.ndarray, store: ColumnStore) -> list[int]:
    return [int(bits[start:min(stop, store.n_bits)].sum())
            for start, stop in store.spans]


def _columns_unchanged(store: ColumnStore, before: dict) -> bool:
    return all(np.array_equal(store.matrix(name), matrix)
               for name, matrix in before.items())


class TestTiledMerge:
    @given(batch=batches(), fused=st.booleans(), shared=st.booleans(),
           budget=st.sampled_from([64, 512, 4096, 1 << 20]),
           data=st.data())
    def test_merged_batch_matches_numpy(self, batch, fused, shared,
                                        budget, data):
        parts = []
        for index, (expr, tenant) in enumerate(batch):
            colmap = {name: f"{tenant}.{name}" for name in NAMES}
            program = compile_expr(expr).vector_program(fused=fused)
            parts.append((f"q{index}", program, colmap, tenant))
        with mock.patch.object(expr_module, "_TILE_BUDGET", budget):
            merged = VectorProgram.merge(parts)
            tile_words = merged.schedule().tile_words
        n_bits, n_shards, capacity = _layout(data, tile_words)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        tables = _tables(rng, n_bits)
        store = ColumnStore(n_bits, n_shards, capacity=capacity,
                            shared=shared)
        try:
            for tenant, table in tables.items():
                for name, bits in table.items():
                    store.add(f"{tenant}.{name}", bits)
            before = {name: matrix.copy()
                      for name, matrix in store.snapshot().items()}
            counts: dict = {}
            outputs = merged.run_outputs(
                store.snapshot(), shape=store.shape, mask=store.mask,
                counts=counts)
            for index, (expr, tenant) in enumerate(batch):
                expected = oracle(expr, tables[tenant], n_bits)
                name = f"q{index}"
                assert np.array_equal(store.unpack(outputs[name]),
                                      expected), (name, str(expr))
                assert counts[name].tolist() == \
                    _shard_counts(expected, store), (name, str(expr))
            assert _columns_unchanged(store, before)
        finally:
            store.close()

    @given(pool=expressions(), fused=st.booleans(),
           budget=st.sampled_from([64, 512, 1 << 20]), data=st.data())
    def test_aliased_program_outputs(self, pool, fused, budget, data):
        """Outputs that name one register share a matrix; given
        separate destinations (as shard workers pass them), each is
        written."""
        picks = [data.draw(st.sampled_from(pool[len(NAMES) - 1:]))
                 for _ in range(2)]
        program = Program([
            ("x", picks[0]),
            ("y", Col("x")),             # the same value as x
            ("z", Not(Not(picks[1]))),   # double NOT folds away
            ("w", picks[1]),             # the same value as z
        ], outputs=("x", "y", "z", "w"))
        with mock.patch.object(expr_module, "_TILE_BUDGET", budget):
            vector = compile_program(program).vector_program(fused=fused)
            tile_words = vector.schedule().tile_words
        n_bits, n_shards, capacity = _layout(data, tile_words)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        table = _tables(rng, n_bits)["t0"]
        store = ColumnStore(n_bits, n_shards, capacity=capacity)
        for name, bits in table.items():
            store.add(name, bits)
        expected = {"x": oracle(picks[0], table, n_bits),
                    "z": oracle(picks[1], table, n_bits)}
        expected["y"], expected["w"] = expected["x"], expected["z"]

        shared_counts: dict = {}
        shared = vector.run_outputs(store.snapshot(), shape=store.shape,
                                    mask=store.mask, counts=shared_counts)
        for a, b in ("xy", "zw"):  # bare columns get one copy each
            if vector.out_regs[a] == vector.out_regs[b]:
                assert shared[a] is shared[b]
        dests = {name: np.full(store.shape, 7, dtype=np.uint64)
                 for name in "xyzw"}
        own_counts: dict = {}
        own = vector.run_outputs(store.snapshot(), shape=store.shape,
                                 out=dests, mask=store.mask,
                                 counts=own_counts)
        for name, bits in expected.items():
            assert own[name] is dests[name]
            for outputs, counts in ((shared, shared_counts),
                                    (own, own_counts)):
                assert np.array_equal(store.unpack(outputs[name]), bits)
                assert counts[name].tolist() == \
                    _shard_counts(bits, store)


# ----------------------------------------------------------------------
# the same batches through the service, in-process and on two workers
# ----------------------------------------------------------------------
SERVICE_BITS = 64 * 37 + 19
_fresh = itertools.count()


@pytest.fixture(scope="module", params=[
    pytest.param((1, None), id="inprocess-heap"),
    pytest.param((2, None), id="inprocess-shm"),
    pytest.param((2, 0), id="workers-shm"),
])
def service(request):
    workers, min_work = request.param
    svc = BitwiseService(n_bits=SERVICE_BITS, n_shards=4,
                         capacity=SERVICE_BITS + 200, workers=workers)
    if min_work is not None:
        svc._parallel_min_work = min_work
    yield svc
    svc.close()


class TestServiceBatches:
    @settings(max_examples=12)
    @given(batch=batches(), data=st.data())
    def test_batch_matches_numpy(self, service, batch, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        tables = _tables(rng, SERVICE_BITS)
        suffix = next(_fresh)
        names = {}
        for tenant, table in tables.items():
            for name, bits in table.items():
                names[(tenant, name)] = f"{name}{suffix}"
                service.create_column(f"{name}{suffix}", bits,
                                      tenant=tenant)
        try:
            queries = [_rename(expr, suffix) for expr, _ in batch]
            results = service.execute(
                queries, tenants=[tenant for _, tenant in batch],
                use_cache=False)
            for (expr, tenant), result in zip(batch, results):
                expected = oracle(expr, tables[tenant], SERVICE_BITS)
                assert result.count == int(expected.sum()), str(expr)
                assert np.array_equal(result.bits, expected), str(expr)
        finally:
            for (tenant, _), physical in names.items():
                service.drop_column(physical, tenant=tenant)


def _rename(expr, suffix: int):
    """The expression over this example's freshly named columns."""
    if isinstance(expr, Col):
        return Col(f"{expr.name}{suffix}")
    if isinstance(expr, Const):
        return expr
    kids = [_rename(kid, suffix) for kid in expr.children()]
    if isinstance(expr, Not):
        return Not(kids[0])
    return type(expr)(*kids)
