"""Tenant namespaces: isolation, plan sharing, quotas, REPL/workload
threading."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.errors import QueryError
from repro.service import BitwiseService, run_repl

N_BITS = 512


@pytest.fixture
def service(service_cls):
    svc = service_cls(n_bits=N_BITS, n_shards=2)
    yield svc
    svc.close()


def bits_of(value: int, invert: bool = False) -> np.ndarray:
    rng = np.random.default_rng(value)
    bits = (rng.random(N_BITS) < 0.5).astype(np.uint8)
    return 1 - bits if invert else bits


class TestNamespaces:
    def test_same_name_different_data(self, service):
        a_pub, a_alice = bits_of(1), bits_of(2)
        service.create_column("a", a_pub)
        alice = service.tenant("alice")
        alice.create_column("a", a_alice)
        assert service.query("a").count == int(a_pub.sum())
        assert alice.query("a").count == int(a_alice.sum())
        assert np.array_equal(alice.column_bits("a"), a_alice)
        assert np.array_equal(service.column_bits("a"), a_pub)

    def test_column_lists_are_scoped(self, service):
        service.create_column("pub", bits_of(1))
        bob = service.tenant("bob")
        bob.create_column("mine", bits_of(2))
        assert service.columns == ("pub",)
        assert bob.columns == ("mine",)

    def test_unbound_error_names_tenant(self, service):
        carol = service.tenant("carol")
        with pytest.raises(QueryError, match="carol"):
            carol.query("nope")

    def test_namespace_cannot_be_escaped(self, service):
        """The query grammar cannot produce a mangled physical name."""
        service.tenant("alice").create_column("a", bits_of(1))
        with pytest.raises(QueryError):
            service.query("alice::a")

    def test_tenant_mutations_are_scoped(self, service):
        service.create_column("a", bits_of(1))
        dave = service.tenant("dave")
        dave.create_column("a", bits_of(2))
        dave.update_column("a", bits_of(3))
        assert np.array_equal(service.column_bits("a"), bits_of(1))
        assert np.array_equal(dave.column_bits("a"), bits_of(3))

    def test_bad_tenant_name_rejected(self, service):
        with pytest.raises(QueryError, match="invalid tenant"):
            service.tenant("no spaces")


class TestCacheAndPlans:
    def test_result_cache_is_isolated(self, service):
        service.create_column("a", bits_of(1))
        erin = service.tenant("erin")
        erin.create_column("a", bits_of(2))
        service.query("a")
        # Erin's first identical query text must MISS (her data).
        first = erin.query("a")
        assert not first.cache_hit
        assert erin.query("a").cache_hit
        assert service.query("a").cache_hit

    def test_plans_are_shared_across_tenants(self, service):
        service.create_column("a", bits_of(1))
        frank = service.tenant("frank")
        frank.create_column("a", bits_of(2))
        service.query("a & ~a")
        plans_before = len(service._plans)
        frank.query("a & ~a")
        assert len(service._plans) == plans_before

    def test_tenant_mutation_keeps_other_tenants_hot(self, service):
        service.create_column("a", bits_of(1))
        grace = service.tenant("grace")
        grace.create_column("a", bits_of(2))
        service.query("a")
        grace.query("a")
        grace.update_column("a", bits_of(3))
        assert service.query("a").cache_hit       # untouched namespace
        assert not grace.query("a").cache_hit     # mutated namespace


class TestQuotas:
    def test_bit_quota_enforced(self, service):
        service.register_tenant("heidi",
                                quota_bits=2 * service.capacity)
        heidi = service.tenant("heidi")
        heidi.create_column("one", bits_of(1))
        heidi.create_column("two", bits_of(2))
        with pytest.raises(QueryError, match="quota"):
            heidi.create_column("three", bits_of(3))
        heidi.drop_column("one")
        heidi.create_column("three", bits_of(3))

    def test_cache_quota_evicts_own_lru(self, service):
        service.create_column("pub", bits_of(1))
        service.register_tenant("ivan", cache_entries=1)
        ivan = service.tenant("ivan")
        ivan.create_column("a", bits_of(2))
        ivan.create_column("b", bits_of(3))
        service.query("pub")
        ivan.query("a")
        ivan.query("b")          # evicts ivan's "a", not pub
        assert service.query("pub").cache_hit
        assert not ivan.query("a").cache_hit

    def test_stats_count_tenants(self, service):
        service.tenant("x")
        service.tenant("y")
        assert service.stats()["tenants"] == 3  # default + x + y


class TestFrontendThreading:
    def test_repl_tenant_switch(self):
        svc = BitwiseService(n_bits=64, n_shards=1)
        out = io.StringIO()
        commands = "\n".join([
            "col shared random 0.5 1",
            "tenant judy",
            "col mine random 0.5 2",
            "cols",
            "query mine",
            "bits mine 0 8",
            "tenant -",
            "cols",
            "quit",
        ]) + "\n"
        try:
            assert run_repl(svc, io.StringIO(commands), out) == 0
        finally:
            svc.close()
        output = out.getvalue()
        assert '"mine"' in output and '"judy"' in output
        assert '"shared"' in output
        assert "error:" not in output

    def test_workload_runs_in_tenant(self):
        from repro.workloads import run_workload
        from repro.workloads.xor_cipher import XorCipher

        workload = XorCipher(1 << 10)
        program = workload.as_program(seed=0)
        svc = BitwiseService(n_bits=program.n_lanes, n_shards=2)
        try:
            run = run_workload(workload, service=svc, tenant="worker",
                               seed=0)
            assert run.verified
            # Inputs landed in the tenant namespace, not the public one.
            assert svc.columns == ()
            assert len(svc.tenant_columns("worker")) > 0
        finally:
            svc.close()
