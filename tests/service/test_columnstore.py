"""Columnar packed-word store: geometry, packing, reductions, pooling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.service.columnstore import (
    ColumnStore,
    popcount_words,
    shard_spans,
)
from tests.support.replay import dirty_word_indices


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


def _check_write(store, offset, bits):
    """One ``write`` against the full-width unpack -> overlay -> _pack
    oracle, plus a ``read`` of the slice and its neighbourhood."""
    old = store.unpack(store.matrix("x"))
    new = old.copy()
    new[offset:offset + bits.size] = bits
    expected = store._pack(new)
    generation = store.generations["x"]
    words = store.write("x", offset, bits)
    assert np.array_equal(
        words, dirty_word_indices(old, new, offset, offset + bits.size))
    assert store.generations["x"] == generation + 1
    matrix = store.matrix("x")
    assert np.array_equal(matrix, expected)
    # Bits at or beyond the logical width stay zero up to capacity.
    assert not store.unpack(matrix, store.capacity)[store.n_bits:].any()
    assert np.array_equal(store.popcounts(matrix),
                          store.popcounts(expected))
    assert int(store.popcounts(matrix).sum()) == int(new.sum())
    lo, hi = max(0, offset - 70), offset + bits.size + 70
    assert np.array_equal(store.read("x", lo, hi - lo), new[lo:hi])
    return new


@st.composite
def _layouts(draw):
    """(n_bits, capacity, n_shards): uniform and non-uniform spans,
    capacity equal to or beyond the logical width."""
    n_bits = draw(st.integers(1, 1500))
    capacity = n_bits + draw(st.sampled_from([0, 0, 1, 63, 64, 500]))
    return n_bits, capacity, draw(st.integers(1, 5))


class TestWordGranularIO:
    @given(layout=_layouts(), shared=st.booleans(), data=st.data())
    def test_write_and_read_match_full_width_oracle(self, layout,
                                                    shared, data):
        n_bits, capacity, n_shards = layout
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        store = ColumnStore(n_bits, n_shards, capacity=capacity,
                            shared=shared)
        try:
            store.add("x", rng.integers(0, 2, n_bits, dtype=np.uint8))
            for _ in range(data.draw(st.integers(1, 4))):
                if store.n_bits < capacity and data.draw(st.booleans()):
                    # An append: grow, then write the new rows.
                    old_n = store.n_bits
                    store.resize(data.draw(
                        st.integers(old_n + 1, capacity)))
                    _check_write(store, old_n, rng.integers(
                        0, 2, store.n_bits - old_n, dtype=np.uint8))
                    continue
                offset = data.draw(st.integers(0, store.n_bits - 1))
                size = data.draw(st.integers(1, store.n_bits - offset))
                _check_write(store, offset,
                             rng.integers(0, 2, size, dtype=np.uint8))
        finally:
            store.close()

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("n_bits,capacity,n_shards", [
        (10_000, 10_000, 3),   # non-uniform spans
        (4096, 4096, 4),       # uniform, full
        (1000, 4000, 3),       # capacity beyond the logical width
    ])
    def test_boundary_writes(self, rng, shared, n_bits, capacity,
                             n_shards):
        store = ColumnStore(n_bits, n_shards, capacity=capacity,
                            shared=shared)
        try:
            store.add("x", rng.integers(0, 2, n_bits, dtype=np.uint8))
            edges = [start for start, _ in store.spans[1:]
                     if start < n_bits]
            cases = [(0, n_bits), (n_bits - 1, 1), (0, 1), (63, 2)]
            for edge in edges:
                cases += [(edge - 1, 1), (edge, 1), (edge - 5, 10),
                          (edge - 64, 128)]
            for offset, size in cases:
                offset = max(0, offset)
                size = min(size, n_bits - offset)
                for fill in (rng.integers(0, 2, size, dtype=np.uint8),
                             np.ones(size, dtype=np.uint8)):
                    _check_write(store, offset, fill)
            if capacity > n_bits:
                store.resize(capacity)
                _check_write(store, n_bits, np.ones(capacity - n_bits,
                                                    dtype=np.uint8))
        finally:
            store.close()

    def test_rewriting_identical_bits_changes_no_word(self, rng):
        store = ColumnStore(10_000, 3)
        bits = rng.integers(0, 2, 10_000, dtype=np.uint8)
        store.add("x", bits)
        assert store.write("x", 123, bits[123:4567]).size == 0
        assert store.generations["x"] == 2

    def test_write_bounds_and_shape_rejected(self):
        store = ColumnStore(130, 2, capacity=256)
        store.add("x", np.zeros(130, dtype=np.uint8))
        for offset, bits in [(-1, np.ones(2)), (129, np.ones(2)),
                             (0, np.ones(0)), (0, np.ones((2, 2)))]:
            with pytest.raises(QueryError, match="outside"):
                store.write("x", offset, bits.astype(np.uint8))

    def test_read_clips_to_logical_width(self, rng):
        store = ColumnStore(130, 2, capacity=256)
        bits = rng.integers(0, 2, 130, dtype=np.uint8)
        store.add("x", bits)
        assert np.array_equal(store.read("x", 100, 64), bits[100:])
        assert store.read("x", 130, 10).size == 0
        assert store.read("x", 5, 0).size == 0


