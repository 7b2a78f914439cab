"""Dependency-aware result-cache invalidation."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.arch.expr import CompiledQuery
from repro.service import BitwiseService

N_BITS = 6 * 64 * 2


@pytest.fixture
def table(rng):
    return {name: (rng.random(N_BITS) < 0.5).astype(np.uint8)
            for name in ("a", "b", "c")}


@pytest.fixture
def service(service_cls, table):
    svc = service_cls(n_bits=N_BITS, n_shards=2)
    for name, bits in table.items():
        svc.create_column(name, bits)
    yield svc
    svc.close()


class TestCreateDoesNotInvalidate:
    def test_create_preserves_cache(self, service, table):
        """Regression: creating a column cannot affect any cached plan
        (none can reference a not-yet-existing column)."""
        service.query("a & b")
        service.create_column("d", table["a"])
        assert service.query("a & b").cache_hit

    def test_recreate_after_drop_still_invalidates(self, service,
                                                   table):
        service.query("a & b")
        service.drop_column("a")
        service.create_column("a", 1 - table["a"])
        fresh = service.query("a & b")
        assert not fresh.cache_hit
        expected = int(((1 - table["a"]) & table["b"]).sum())
        assert fresh.count == expected


class TestDependencyEviction:
    def test_mutation_evicts_only_readers(self, service, table):
        """The acceptance contract: mutating `a` preserves cache hits
        for plans reading only b/c, while every a-reading plan
        re-executes bit-exactly."""
        service.query("a & b")
        service.query("b & c")
        service.query("b | ~c")
        new_a = 1 - table["a"]
        service.update_column("a", new_a)
        # Unrelated plans: still hot.
        assert service.query("b & c").cache_hit
        assert service.query("b | ~c").cache_hit
        # a-readers: recomputed against the new value, bit-exactly.
        fresh = service.query("a & b")
        assert not fresh.cache_hit
        expected = new_a & table["b"]
        assert np.array_equal(fresh.bits, expected)
        assert fresh.count == int(expected.sum())

    def test_write_slice_evicts_readers(self, service, table):
        service.query("a ^ c")
        service.query("b & c")
        service.write_slice("a", 0, 1 - table["a"][:64])
        assert not service.query("a ^ c").cache_hit
        assert service.query("b & c").cache_hit

    def test_drop_evicts_only_dependents(self, service):
        service.query("a & b")
        service.query("b & c")
        service.drop_column("a")
        assert service.query("b & c").cache_hit

    def test_append_evicts_everything(self, table):
        svc = BitwiseService(n_bits=N_BITS, n_shards=2,
                             capacity=N_BITS + 64)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            svc.query("a & b")
            svc.query("b & c")
            svc.append_rows(n=None, values={
                "a": np.ones(64, dtype=np.uint8)})
            # Every width changed: nothing survives.
            assert not svc.query("a & b").cache_hit
            assert not svc.query("b & c").cache_hit
        finally:
            svc.close()

    def test_eviction_count_reported(self, service):
        service.query("a & b")
        service.query("a | c")
        service.query("b & c")
        result = service.update_column(
            "a", service.column_bits("a") ^ 1)
        assert result.invalidated == 2


class TestIndexHygiene:
    def test_lru_eviction_cleans_dep_index(self, table):
        svc = BitwiseService(n_bits=N_BITS, n_shards=2, cache_size=2)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            svc.query("a & b")
            svc.query("a & c")
            svc.query("b & c")  # evicts "a & b"
            with svc._cache_lock:
                indexed = set().union(*svc._dep_index.values())
                assert indexed == set(svc._cache)
                for keys in svc._dep_index.values():
                    assert keys  # no empty buckets linger
        finally:
            svc.close()

    def test_mutation_after_eviction_is_safe(self, table):
        svc = BitwiseService(n_bits=N_BITS, n_shards=2, cache_size=1)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            svc.query("a & b")
            svc.query("b & c")  # LRU-evicts the a-reader
            result = svc.update_column("a", 1 - table["a"])
            assert result.invalidated == 0
            assert svc.query("b & c").cache_hit
        finally:
            svc.close()


class TestInFlightMutationRace:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_update_during_execute_not_cached(self, table, monkeypatch,
                                              workers):
        """Deterministic interleaving: update_column arrives while a
        query is mid-execution.  The update writes in place, so it
        waits on the table lock until the in-flight batch is done; the
        query serves the pre-mutation value, and the update then evicts
        it, so the next query sees the update."""
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=2,
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
            monkeypatch.setattr(CompiledQuery, "vector_program",
                                original)
            new_a = 1 - table["a"]
            writer = threading.Thread(
                target=lambda: svc.update_column("a", new_a))
            writer.start()
            writer.join(timeout=0.2)
            assert writer.is_alive()  # blocked behind the batch
            resume.set()
            thread.join(timeout=10)
            writer.join(timeout=10)
            assert not thread.is_alive() and not writer.is_alive()
            # The in-flight query served the pre-mutation value...
            assert np.array_equal(stale_result["r"].bits,
                                  table["a"] & table["b"])
            # ...and the update evicted it: the next query sees it.
            fresh = svc.query("a & b")
            assert not fresh.cache_hit
            assert np.array_equal(fresh.bits, new_a & table["b"])
        finally:
            svc.close()
