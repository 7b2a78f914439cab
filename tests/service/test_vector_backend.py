"""Columnar executor vs engine replay: bit- and Stats-exactness.

The service must be indistinguishable from the per-shard engine
replay (:class:`tests.support.replay.EngineReplay`): same result bits,
same popcounts, same attributed energy/cycles per query (exact
integers; energy at float tolerance), same aggregate ledgers — across
the full aliasing/parity query matrix, on both technologies, over
*sequences* of queries (replay cost depends on the column flag
encodings earlier queries leave behind; the state-aware coster must
track that).
"""

import math
import threading

import numpy as np
import pytest

from repro.arch.expr import CompiledQuery
from repro.errors import QueryError
from repro.service import BitwiseService
from tests.support.replay import EngineReplay

N_BITS = 10_000  # not a multiple of 64 * shards

#: the aliasing/parity matrix: shared operands, double negation, De
#: Morgan pairs, XOR parity chains, constants, MAJ/SEL with negated and
#: duplicated operands — every flag-algebra corner the engines special-
#: case, plus CSE-heavy multi-term predicates.
QUERY_MATRIX = [
    "a", "~a", "a & b", "~(a & b)", "a | b", "~a & ~b", "~a | ~b",
    "a ^ b", "~a ^ b", "a ^ a", "a & a", "a & ~a", "a | ~a",
    "andnot(a, a)", "andnot(a, b)", "maj(a, b, c)", "maj(~a, b, c)",
    "maj(a, a, b)", "sel(a, b, c)", "sel(~a, b, ~c)",
    "(a & b & ~c) | (c & d)",
    "(a & b & ~c) | (a & b & d) | (c & ~d)",
    "a ^ b ^ c ^ d", "xnor(a, b)", "nor(a, b, c)", "nand(a, b)",
    "~(a ^ (b | ~c))", "0", "1", "a & 1", "a & 0",
]


def _energy_close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-15)


@pytest.fixture
def table(rng):
    return {name: rng.integers(0, 2, N_BITS, dtype=np.uint8)
            for name in "abcd"}


def _pair(technology, table):
    """``(replay, service)`` loaded with the same table."""
    ref = EngineReplay(technology, n_bits=N_BITS, n_shards=3)
    vec = BitwiseService(technology, n_bits=N_BITS, n_shards=3)
    for name, bits in table.items():
        ref.create_column(name, bits)
        vec.create_column(name, bits)
    return ref, vec


class TestBackendEquivalence:
    @pytest.mark.parametrize("technology", ["feram-2tnc", "dram"])
    def test_query_matrix_bit_and_stats_exact(self, technology, table):
        """Serialized execution of the full matrix: every per-query
        result and cost must match the engine replay, including the
        flag-state evolution across the sequence."""
        ref, vec = _pair(technology, table)
        try:
            for query in QUERY_MATRIX:
                expected = ref.query(query)
                actual = vec.query(query, use_cache=False)
                assert np.array_equal(actual.bits, expected.bits), query
                assert actual.count == expected.count, query
                assert actual.cycles == expected.cycles, query
                assert _energy_close(actual.energy_j,
                                     expected.energy_j), query
                assert actual.primitives_per_row == \
                    expected.primitives_per_row, query
                for key in expected.detail:
                    if key.startswith("cycles"):
                        assert actual.detail[key] == \
                            expected.detail[key], (query, key)
            ref_stats, vec_stats = ref.stats(), vec.stats()
            assert ref_stats["rows_used"] == vec_stats["rows_used"]
            assert ref_stats["cycles_total"] == vec_stats["cycles_total"]
            assert _energy_close(ref_stats["energy_total_nj"],
                                 vec_stats["energy_total_nj"])
        finally:
            vec.close()

    @pytest.mark.parametrize("technology", ["feram-2tnc", "dram"])
    def test_batch_bit_exact(self, technology, table):
        ref, vec = _pair(technology, table)
        try:
            batch = ["a & ~b", "(a & b & ~c) | (c & d)", "a ^ b ^ c",
                     "maj(a, b, c) | ~d", "(a & b & ~c) | (a & b & d)"]
            # The service charges a batch in its sequential order.
            expected = [ref.query(query) for query in batch]
            actual = vec.execute(batch, use_cache=False)
            for query, exp, act in zip(batch, expected, actual):
                assert np.array_equal(act.bits, exp.bits), query
                assert act.count == exp.count
                assert act.cycles == exp.cycles, query
                assert _energy_close(act.energy_j, exp.energy_j), query
        finally:
            vec.close()

    def test_counting_mode_stats_match(self):
        kwargs = {"n_bits": 1 << 20, "n_shards": 2, "functional": False}
        ref = EngineReplay(**kwargs)
        vec = BitwiseService(**kwargs)
        try:
            for svc in (ref, vec):
                svc.create_column("x")
                svc.create_column("y")
            # Counting-mode allocate charges nothing on either path
            # (only a functional load pays host row writes).
            assert vec.stats()["energy_total_nj"] == \
                ref.stats()["energy_total_nj"] == 0.0
            assert vec.stats()["cycles_total"] == \
                ref.stats()["cycles_total"] == 0
            for query in ("x & ~y", "x ^ y", "maj(x, y, x)"):
                expected = ref.query(query)
                actual = vec.query(query, use_cache=False)
                assert actual.bits is None and actual.count is None
                assert actual.cycles == expected.cycles, query
                assert _energy_close(actual.energy_j,
                                     expected.energy_j), query
        finally:
            vec.close()

    def test_columns_stable_under_repeated_queries(self, table):
        vec = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3)
        for name, bits in table.items():
            vec.create_column(name, bits)
        try:
            for _ in range(3):
                vec.execute(["a & ~b", "~a & b", "a ^ b", "~(a | c)"],
                            use_cache=False)
            for name, bits in table.items():
                assert np.array_equal(vec.column_bits(name), bits)
        finally:
            vec.close()


class TestVectorBatchSemantics:
    def test_batch_shares_subexpressions_but_charges_full_plans(
            self, table):
        """Cross-query CSE is a host-simulation optimization: the
        attributed cost of each query still models its full plan."""
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            solo = svc.query("(a & b) | c", use_cache=False)
            fresh = BitwiseService("feram-2tnc", n_bits=N_BITS,
                                   n_shards=3)
            for name, bits in table.items():
                fresh.create_column(name, bits)
            batch = fresh.execute(["(a & b) | c", "(b & a) | d"],
                                  use_cache=False)
            assert batch[0].cycles == solo.cycles
            assert batch[0].energy_j > 0 and batch[1].energy_j > 0
            expected = (table["a"] & table["b"]) | table["d"]
            assert np.array_equal(batch[1].bits, expected)
            fresh.close()
        finally:
            svc.close()

    def test_duplicate_queries_dedup(self, table):
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            results = svc.execute(["a ^ b", "b ^ a"], use_cache=False)
            assert results[0].key == results[1].key
            assert results[0].bits is not results[1].bits
            results[0].bits[:] = 0
            assert int(results[1].bits.sum()) == results[1].count
        finally:
            svc.close()

    def test_text_plan_cache_is_bounded(self, table):
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=2)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            svc._plans_by_text_cap = 4
            for k in range(10):  # textually distinct, same plan
                svc.compile("a &" + " " * (k + 1) + "b")
            assert len(svc._plans_by_text) == 4
        finally:
            svc.close()

    def test_spec_technology_mismatch_rejected(self):
        from repro.arch.spec import DRAM_8GB

        with pytest.raises(QueryError, match="spec"):
            BitwiseService("feram-2tnc", n_bits=64, spec=DRAM_8GB)


class TestGenerationRace:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_inflight_execute_never_caches_stale_bits(self, table,
                                                      monkeypatch,
                                                      workers):
        """Deterministic interleaving: drop/create a column while an
        execute is in flight.  The drop waits on the table lock until
        the in-flight batch is done; that result (computed from the
        matrices it bound before the drop) must not survive in the
        invalidated cache, and the next query must serve fresh bits.
        With 2 workers the store is in shared memory: the dropped
        column's segment is unlinked only after the batch."""
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3,
                             workers=workers)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            entered = threading.Event()
            resume = threading.Event()
            original = CompiledQuery.vector_program

            def gated(plan, **kwargs):
                program = original(plan, **kwargs)
                entered.set()
                assert resume.wait(timeout=10)
                return program

            monkeypatch.setattr(CompiledQuery, "vector_program", gated)
            stale_result = {}

            def client():
                stale_result["r"] = svc.query("a & b")

            thread = threading.Thread(target=client)
            thread.start()
            assert entered.wait(timeout=10)
            # Mutate the table while the query is mid-execution: the
            # service has already snapshotted generation + columns.
            monkeypatch.setattr(CompiledQuery, "vector_program",
                                original)

            def replace_b():
                svc.drop_column("b")
                svc.create_column("b", 1 - table["b"])

            writer = threading.Thread(target=replace_b)
            writer.start()
            writer.join(timeout=0.2)
            assert writer.is_alive()  # blocked behind the batch
            resume.set()
            thread.join(timeout=10)
            writer.join(timeout=10)
            assert not thread.is_alive() and not writer.is_alive()
            # The in-flight query served the consistent pre-mutation
            # snapshot...
            stale = stale_result["r"]
            expected_old = table["a"] & table["b"]
            assert np.array_equal(stale.bits, expected_old)
            # ...but was NOT cached: the next query recomputes against
            # the new column value.
            fresh = svc.query("a & b")
            assert not fresh.cache_hit
            expected_new = table["a"] & (1 - table["b"])
            assert np.array_equal(fresh.bits, expected_new)
        finally:
            svc.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_snapshot_consistency_during_drop(self, table,
                                              monkeypatch, workers):
        """An in-flight query never observes a half-mutated table:
        the drop waits until the batch that bound the column is done."""
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3,
                             workers=workers)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            entered = threading.Event()
            resume = threading.Event()
            original = CompiledQuery.vector_program

            def gated(plan, **kwargs):
                program = original(plan, **kwargs)
                entered.set()
                assert resume.wait(timeout=10)
                return program

            monkeypatch.setattr(CompiledQuery, "vector_program", gated)
            result = {}
            thread = threading.Thread(
                target=lambda: result.update(
                    r=svc.query("a ^ b", use_cache=False)))
            thread.start()
            assert entered.wait(timeout=10)
            monkeypatch.setattr(CompiledQuery, "vector_program",
                                original)
            writer = threading.Thread(target=svc.drop_column, args=("a",))
            writer.start()
            writer.join(timeout=0.2)
            assert writer.is_alive()  # blocked behind the batch
            resume.set()
            thread.join(timeout=10)
            writer.join(timeout=10)
            assert not thread.is_alive() and not writer.is_alive()
            assert np.array_equal(result["r"].bits,
                                  table["a"] ^ table["b"])
            assert "a" not in svc.columns
        finally:
            svc.close()

    def test_drop_waits_for_scattered_batch(self, table, monkeypatch):
        """Regression: a batch scattered to shard workers binds its
        columns, then the workers attach their segments by name.  A
        drop landing in between used to unlink the segment first and
        fail the batch; now it waits, and the batch returns the
        pre-drop bits."""
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3,
                             workers=2)
        svc._parallel_min_work = 0  # force the scatter path
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            entered = threading.Event()
            resume = threading.Event()
            original = CompiledQuery.vector_program

            def gated(plan, **kwargs):
                program = original(plan, **kwargs)
                entered.set()
                assert resume.wait(timeout=10)
                return program

            monkeypatch.setattr(CompiledQuery, "vector_program", gated)
            result = {}

            def client():
                try:
                    result["r"] = svc.query("a & ~b", use_cache=False)
                except Exception as exc:  # surfaced by the assertion
                    result["error"] = exc

            thread = threading.Thread(target=client)
            thread.start()
            assert entered.wait(timeout=10)
            monkeypatch.setattr(CompiledQuery, "vector_program",
                                original)
            writer = threading.Thread(target=svc.drop_column, args=("b",))
            writer.start()
            writer.join(timeout=0.2)
            assert writer.is_alive()  # blocked behind the batch
            resume.set()
            thread.join(timeout=30)
            writer.join(timeout=10)
            assert not thread.is_alive() and not writer.is_alive()
            assert "error" not in result, result.get("error")
            assert svc.stats()["executor"]["worker_pool"]["jobs"] > 0
            assert np.array_equal(result["r"].bits,
                                  table["a"] & (1 - table["b"]))
            assert "b" not in svc.columns
        finally:
            svc.close()
