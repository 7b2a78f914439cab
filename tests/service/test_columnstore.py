"""Columnar packed-word store: geometry, packing, reductions, pooling."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.service.columnstore import (
    ColumnStore,
    MatrixPool,
    popcount_words,
    shard_spans,
)


class TestSpans:
    def test_cover_table_word_aligned(self):
        spans = shard_spans(10_000, 3)
        assert spans[0][0] == 0 and spans[-1][1] == 10_000
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start
            assert stop % 64 == 0

    def test_narrow_table_clamps_shards(self):
        assert len(shard_spans(100, 8)) == 2  # two 64-bit words

    def test_single_word(self):
        assert shard_spans(5, 4) == [(0, 5)]


class TestPacking:
    @pytest.mark.parametrize("n_bits,n_shards", [
        (10_000, 3),    # non-multiple of 64, uneven shards
        (1 << 16, 4),   # uniform full-word layout
        (64, 1),
        (130, 4),
    ])
    def test_roundtrip(self, rng, n_bits, n_shards):
        store = ColumnStore(n_bits, n_shards)
        bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
        store.add("x", bits)
        assert np.array_equal(store.bits("x"), bits)

    def test_padding_is_zero(self, rng):
        store = ColumnStore(10_000, 3)
        store.add("x", np.ones(10_000, dtype=np.uint8))
        matrix = store.matrix("x")
        # Bits beyond each shard's span must be zero in the packed form.
        total = int(popcount_words(matrix).sum())
        assert total == 10_000

    @pytest.mark.parametrize("shared", [False, True])
    def test_popcounts_masked(self, rng, shared):
        store = ColumnStore(10_000, 3, shared=shared)
        try:
            bits = rng.integers(0, 2, 10_000, dtype=np.uint8)
            store.add("x", bits)
            # All-ones matrix: the mask must exclude padding positions.
            ones = np.full(store.shape, np.uint64(0xFFFFFFFFFFFFFFFF))
            assert int(store.popcounts(ones).sum()) == 10_000
            counts = store.popcounts(store.matrix("x"))
            assert counts.shape == (store.n_shards,)
            assert int(counts.sum()) == int(bits.sum())
            # Per-shard counts match per-span slices.
            for index, (start, stop) in enumerate(store.spans):
                assert counts[index] == int(bits[start:stop].sum())
        finally:
            store.close()

    def test_unpack_all_ones_matrix(self):
        """Garbage beyond n_bits never leaks into readouts."""
        store = ColumnStore(130, 2)
        ones = np.full(store.shape, np.uint64(0xFFFFFFFFFFFFFFFF))
        assert store.unpack(ones).size == 130

    def test_duplicate_and_missing(self, rng):
        store = ColumnStore(64, 1)
        store.add("x", np.zeros(64, dtype=np.uint8))
        with pytest.raises(QueryError, match="exists"):
            store.add("x", np.zeros(64, dtype=np.uint8))
        with pytest.raises(QueryError, match="no column"):
            store.matrix("y")
        store.drop("x")
        with pytest.raises(QueryError, match="no column"):
            store.drop("x")

    def test_width_validation(self):
        store = ColumnStore(64, 1)
        with pytest.raises(QueryError, match="bits"):
            store.add("x", np.zeros(12, dtype=np.uint8))

    @pytest.mark.parametrize("shared", [False, True])
    def test_snapshot_is_stable_across_drop(self, rng, shared):
        store = ColumnStore(256, 2, shared=shared)
        try:
            bits = rng.integers(0, 2, 256, dtype=np.uint8)
            store.add("x", bits)
            snapshot = store.snapshot()
            store.drop("x")
            store.add("x", 1 - bits)
            # The snapshot still binds the original matrix (a shared
            # store keeps the dropped segment mapped until close).
            assert np.array_equal(store.unpack(snapshot["x"]), bits)
        finally:
            store.close()


class TestMatrixPool:
    def test_reuse(self):
        pool = MatrixPool((2, 4))
        a = pool.take()
        pool.give(a)
        assert pool.take() is a

    def test_cap(self):
        pool = MatrixPool((2, 4), cap=3)
        matrices = [np.empty((2, 4), dtype=np.uint64) for _ in range(8)]
        for matrix in matrices:
            pool.give(matrix)
        assert len(pool) == 3

    def test_foreign_shape_rejected(self):
        pool = MatrixPool((2, 4))
        pool.give(np.empty((3, 4), dtype=np.uint64))
        assert len(pool) == 0
