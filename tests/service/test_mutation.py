"""Column mutation API: semantics, dirty-row accounting, and the
writeback.py disturb-scrub economics reconciliation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.arch.primitives import default_spec
from repro.arch.writeback import policy_for_spec
from repro.errors import QueryError
from repro.service import BitwiseService
from repro.service.columnstore import ColumnStore, shard_spans
from tests.support.differential import assert_ops_equivalent
from tests.support.replay import dirty_word_indices

N_BITS = 4 * 64 * 3  # 3 words per shard on 4 shards


@pytest.fixture
def table(rng):
    return {name: (rng.random(N_BITS) < 0.4).astype(np.uint8)
            for name in ("a", "b", "c")}


def make_service(table, cls=BitwiseService, **kwargs):
    service = cls(n_bits=N_BITS, n_shards=4, **kwargs)
    for name, bits in table.items():
        service.create_column(name, bits)
    return service


class TestUpdateColumn:
    def test_replaces_value(self, service_cls, table):
        with make_service(table, service_cls) as svc:
            new = 1 - table["a"]
            result = svc.update_column("a", new)
            assert result.op == "update"
            assert np.array_equal(svc.column_bits("a"), new)
            assert svc.query("a").count == int(new.sum())
            assert result.rows_written > 0
            assert result.energy_j > 0

    def test_identical_write_dirties_nothing(self, service_cls, table):
        """Dirty tracking diffs content: a no-op rewrite is free."""
        with make_service(table, service_cls) as svc:
            result = svc.update_column("a", table["a"])
            assert result.rows_written == 0
            assert result.dirty_shards == 0
            assert result.energy_j == 0.0

    def test_energy_is_row_writes(self, service_cls, table):
        """Mutation energy == dirty rows x the spec's TBA-write cost."""
        spec = default_spec("feram-2tnc")
        with make_service(table, service_cls) as svc:
            result = svc.update_column("a", 1 - table["a"])
            assert math.isclose(
                result.energy_j,
                result.rows_written * spec.e_row_write, rel_tol=1e-12)
            assert svc.stats()["writeback"]["rows_written"] == \
                result.rows_written

    def test_wrong_shape_rejected(self, service_cls, table):
        with make_service(table, service_cls) as svc:
            with pytest.raises(QueryError, match="outside table"):
                svc.update_column("a", np.ones(N_BITS + 1,
                                               dtype=np.uint8))

    def test_unknown_column(self, service_cls, table):
        with make_service(table, service_cls) as svc:
            with pytest.raises(QueryError, match="no column"):
                svc.update_column("zzz", table["a"])


class TestWriteSlice:
    def test_writes_only_the_slice(self, service_cls, table):
        with make_service(table, service_cls) as svc:
            patch = np.ones(40, dtype=np.uint8)
            svc.write_slice("b", 100, patch)
            got = svc.column_bits("b")
            expected = table["b"].copy()
            expected[100:140] = 1
            assert np.array_equal(got, expected)

    def test_single_word_write_dirties_one_row(self, service_cls, table):
        """A one-word patch touches exactly one row on one shard."""
        with make_service(table, service_cls) as svc:
            patch = 1 - table["c"][:64]
            result = svc.write_slice("c", 0, patch)
            assert result.rows_written == 1
            assert result.dirty_shards == 1

    def test_cross_shard_write_dirties_both(self, service_cls, table):
        words_per_shard = N_BITS // 4 // 64
        boundary = words_per_shard * 64  # first bit of shard 1
        with make_service(table, service_cls) as svc:
            patch = 1 - table["a"][boundary - 8:boundary + 8]
            result = svc.write_slice("a", boundary - 8, patch)
            assert result.dirty_shards == 2
            assert result.rows_written == 2

    def test_bounds_checked(self, service_cls, table):
        with make_service(table, service_cls) as svc:
            with pytest.raises(QueryError, match="outside table"):
                svc.write_slice("a", N_BITS - 4,
                                np.ones(8, dtype=np.uint8))
            with pytest.raises(QueryError, match="outside table"):
                svc.write_slice("a", -1, np.ones(4, dtype=np.uint8))


class TestAppendRows:
    def test_grows_table_and_zero_fills(self, service_cls, table):
        with make_service(table, service_cls, capacity=N_BITS + 256) as svc:
            appended = np.ones(128, dtype=np.uint8)
            result = svc.append_rows({"a": appended})
            assert svc.n_bits == N_BITS + 128
            assert result.offset == N_BITS and result.n_bits == 128
            got_a = svc.column_bits("a")
            assert got_a.size == N_BITS + 128
            assert np.array_equal(got_a[N_BITS:], appended)
            # Unnamed columns zero-fill for free.
            got_b = svc.column_bits("b")
            assert not got_b[N_BITS:].any()
            assert result.columns_written == ("a",)

    def test_queries_span_appended_rows(self, service_cls, table):
        with make_service(table, service_cls, capacity=N_BITS + 64) as svc:
            svc.append_rows({"a": np.ones(64, dtype=np.uint8),
                             "b": np.ones(64, dtype=np.uint8)})
            result = svc.query("a & b")
            assert result.bits.size == N_BITS + 64
            expected = int((table["a"] & table["b"]).sum()) + 64
            assert result.count == expected

    def test_capacity_enforced(self, service_cls, table):
        with make_service(table, service_cls) as svc:
            with pytest.raises(QueryError, match="capacity"):
                svc.append_rows({"a": np.ones(1, dtype=np.uint8)})

    def test_needs_uniform_sizes(self, service_cls, table):
        with make_service(table, service_cls, capacity=N_BITS + 64) as svc:
            with pytest.raises(QueryError, match="sized"):
                svc.append_rows({"a": np.ones(8, dtype=np.uint8),
                                 "b": np.ones(4, dtype=np.uint8)})


class TestWordGranularCost:
    def test_mutations_and_pages_never_touch_the_full_width(
            self, rng, monkeypatch):
        """Guard: on a 16Mi-bit table, slice writes, appends and column
        pages must cost O(words covered) — the full-width pack/unpack
        raises here — and still charge exactly the dirty rows."""
        n_bits, n_shards = 1 << 24, 4
        capacity = n_bits + 4096
        spec = default_spec("feram-2tnc")
        spans = shard_spans(capacity, n_shards)
        a = rng.integers(0, 2, n_bits, dtype=np.uint8)

        def expected_rows(old, new, lo, hi):
            rows = {(index, (word * 64 - start) // spec.row_bits)
                    for word in dirty_word_indices(old, new, lo, hi)
                    for index, (start, stop) in enumerate(spans)
                    if start <= word * 64 < stop}
            return len(rows), len({index for index, _ in rows})

        def full_width(*args, **kwargs):
            raise AssertionError("full-width pack/unpack on a mutation")

        with BitwiseService(n_bits=n_bits, n_shards=n_shards,
                            capacity=capacity) as svc:
            svc.create_column("a", a)
            svc.create_column("b", np.zeros(n_bits, dtype=np.uint8))
            monkeypatch.setattr(ColumnStore, "unpack", full_width)
            monkeypatch.setattr(ColumnStore, "_pack", full_width)

            offset = spans[2][0] - 1000  # crosses a shard boundary
            patch = rng.integers(0, 2, 4096, dtype=np.uint8)
            new = a.copy()
            new[offset:offset + 4096] = patch
            result = svc.write_slice("a", offset, patch)
            rows, shards = expected_rows(a, new, offset, offset + 4096)
            assert (result.rows_written, result.dirty_shards) == \
                (rows, shards) and shards == 2
            assert math.isclose(result.energy_j,
                                rows * spec.e_row_write, rel_tol=1e-12)

            tail = rng.integers(0, 2, 100, dtype=np.uint8)
            result = svc.append_rows({"a": tail, "b": np.ones(100,
                                                              np.uint8)})
            grown = np.concatenate([new, tail])
            rows_a, _ = expected_rows(
                np.concatenate([new, np.zeros(100, np.uint8)]), grown,
                n_bits, n_bits + 100)
            rows_b, _ = expected_rows(
                np.zeros(n_bits + 100, np.uint8),
                np.concatenate([np.zeros(n_bits, np.uint8),
                                np.ones(100, np.uint8)]),
                n_bits, n_bits + 100)
            assert result.rows_written == rows_a + rows_b
            assert math.isclose(result.energy_j,
                                result.rows_written * spec.e_row_write,
                                rel_tol=1e-12)

            page = svc.read_bits("a", offset - 64, 4096 + 128)
            assert page["total"] == n_bits + 100
            assert page["bits"] == "".join(
                map(str, grown[offset - 64:offset + 4096 + 64]))
            page = svc.read_bits_array("a", n_bits - 28, 1000)
            assert np.array_equal(page["bits"], grown[n_bits - 28:])


class TestCountingMode:
    def test_mutations_charge_span_rows(self, service_cls):
        svc = service_cls(n_bits=1 << 20, n_shards=4,
                             functional=False,
                             capacity=(1 << 20) + 4096)
        try:
            svc.create_column("x")
            result = svc.update_column("x")
            # Without payloads to diff, the whole logical span charges.
            assert result.rows_written == \
                sum(svc._rows_by_shard_span(0, svc.n_bits))
            assert result.dirty_shards == 4
            sliced = svc.write_slice("x", 0, 64)
            assert sliced.rows_written == 1
            appended = svc.append_rows(n=4096)
            assert svc.n_bits == (1 << 20) + 4096
            assert appended.rows_written == 0  # zero-fill is free
        finally:
            svc.close()


class TestDifferentialMutation:
    """The service and the engine replay agree under interleaved
    updates."""

    def test_update_between_queries(self, table):
        assert_ops_equivalent(table, [
            ("query", "a & b"),
            ("update", "a", 1 - table["a"]),
            ("query", "a & b"),
            ("query", "a ^ c"),
        ])

    def test_mutation_after_parity_evolution(self, table):
        """XOR queries leave complement-encoded columns; a mutation
        re-encodes plain on the service and the replay identically."""
        assert_ops_equivalent(table, [
            ("query", "a ^ b"),
            ("query", "b ^ c"),
            ("update", "b", table["a"]),
            ("query", "a ^ b"),
            ("query", "maj(a, b, c)"),
        ])

    def test_slice_writes_and_drop_create(self, table):
        patch = np.ones(70, dtype=np.uint8)
        assert_ops_equivalent(table, [
            ("write", "a", 5, patch),
            ("query", "a | b"),
            ("drop", "c"),
            ("create", "c", 1 - table["b"]),
            ("query", "(a & b) | ~c"),
            ("write", "c", 64, patch),
            ("query", "(a & b) | ~c"),
        ])

    def test_append_then_query(self, table):
        appended = {"a": np.ones(64, dtype=np.uint8),
                    "b": np.zeros(64, dtype=np.uint8),
                    "c": np.ones(64, dtype=np.uint8)}
        assert_ops_equivalent(table, [
            ("query", "a ^ b"),
            ("append", appended),
            ("query", "a ^ b"),
            ("query", "a & ~c"),
        ], capacity=N_BITS + 64)


class TestScrubEconomics:
    """Read-disturb accrual reconciles with writeback.py policies."""

    def test_qnro_scrub_period(self, table):
        spec = default_spec("feram-2tnc")
        policy = policy_for_spec(spec)
        period = policy.reads_per_writeback
        assert period > 1
        with make_service(table, cache_size=0) as svc:
            for _ in range(period - 1):
                svc.query("a")
            assert svc.stats()["writeback"]["scrubs"] == 0
            svc.query("a")  # crosses the disturb budget
            writeback = svc.stats()["writeback"]
            assert writeback["scrubs"] == svc.n_shards
            assert writeback["scrub_rows"] == \
                sum(svc._shard_rows)
            assert math.isclose(
                writeback["scrub_energy_nj"],
                writeback["scrub_rows"] * spec.e_row_write * 1e9,
                rel_tol=1e-9)

    def test_write_resets_disturb_counter(self, table):
        policy = policy_for_spec(default_spec("feram-2tnc"))
        period = policy.reads_per_writeback
        with make_service(table, cache_size=0) as svc:
            for _ in range(period - 1):
                svc.query("a")
            # A full rewrite restores polarization everywhere...
            svc.update_column("a", 1 - table["a"])
            svc.query("a")  # ...so read #period does not scrub.
            assert svc.stats()["writeback"]["scrubs"] == 0

    def test_dram_restores_every_read(self, table):
        spec = default_spec("dram")
        policy = policy_for_spec(spec)
        assert policy.reads_per_writeback == 1
        svc = BitwiseService("dram", n_bits=N_BITS, n_shards=4,
                             cache_size=0)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            for _ in range(10):
                svc.query("a")
            writeback = svc.stats()["writeback"]
            assert writeback["scrubs"] == 10 * svc.n_shards
            # Destructive sensing: one full restore per read, exactly
            # the per-read write-back energy the policy predicts.
            assert math.isclose(
                writeback["scrub_energy_nj"] * 1e-9,
                10 * sum(svc._shard_rows) * spec.e_row_write
                * policy.write_cycles_per_read,
                rel_tol=1e-9)
        finally:
            svc.close()

    def test_cache_hits_accrue_no_disturb(self, table):
        """Served-from-cache queries never touch the array — the
        system-level QNRO payoff."""
        with make_service(table) as svc:
            svc.query("a & b")
            before = svc.stats()["writeback"]["reads_noted"]
            for _ in range(50):
                assert svc.query("a & b").cache_hit
            assert svc.stats()["writeback"]["reads_noted"] == before
