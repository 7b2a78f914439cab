"""CAM search layer: service match, columnstore kernel, wire forms,
and the three workload scenarios — all differential-tested bit-exactly
against plain-numpy oracles on both technologies, and against the
engine replay through the differential harness.
"""

import threading

import numpy as np
import pytest

from repro.client import ServiceClient, ServiceError
from repro.errors import QueryError
from repro.service import BitwiseService, serve_tcp
from repro.service.columnstore import ColumnStore
from repro.workloads import (
    classify_packets,
    hamming_topk,
    key_value_lookup,
    load_records,
    oracle_classify,
    oracle_lookup,
    oracle_match,
    oracle_topk,
)
from tests.support.differential import assert_ops_equivalent

TECHS = ("dram", "feram-2tnc")

N_BITS = 4096

pytestmark = pytest.mark.timeout(120)


def _records(rng, n_rows, width):
    return rng.integers(0, 2, (n_rows, width), dtype=np.uint8)


def _make_service(tech, n_bits=N_BITS, cls=BitwiseService, **kwargs):
    return cls(tech, n_bits=n_bits, n_shards=2, **kwargs)


# ----------------------------------------------------------------------
# service.match vs oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tech", TECHS)
class TestServiceMatch:
    @pytest.mark.parametrize("key,mask", [
        ("0b10110", None),
        ("0b1x11x", None),
        ("0b11111", "0b10101"),
        ("0bxxxxx", None),
    ])
    def test_bits_match_oracle(self, tech, service_cls, rng, key, mask):
        records = _records(rng, N_BITS, 5)
        service = _make_service(tech, cls=service_cls)
        try:
            cols = load_records(service, records)
            result = service.match(cols, key, mask)
            truth = oracle_match(records, key, mask)
            assert np.array_equal(result.bits, truth)
            assert result.count == int(truth.sum())
        finally:
            service.close()

    def test_query_string_form(self, tech, service_cls, rng):
        records = _records(rng, N_BITS, 3)
        service = _make_service(tech, cls=service_cls)
        try:
            cols = load_records(service, records)
            via_query = service.query(
                f"match({', '.join(cols)}, 0b1x0)")
            truth = oracle_match(records, "0b1x0")
            assert np.array_equal(via_query.bits, truth)
        finally:
            service.close()

    def test_match_shares_cache_with_desugared_query(
            self, tech, service_cls, rng):
        records = _records(rng, N_BITS, 3)
        service = _make_service(tech, cls=service_cls)
        try:
            cols = load_records(service, records)
            first = service.query(f"{cols[0]} & ~{cols[2]}")
            hit = service.match(cols, "0b1x0")
            assert not first.cache_hit
            assert hit.cache_hit
            assert hit.key == first.key
        finally:
            service.close()

    def test_search_charges_read_path_energy(self, tech, service_cls, rng):
        records = _records(rng, N_BITS, 4)
        service = _make_service(tech, cls=service_cls)
        try:
            cols = load_records(service, records)
            result = service.match(cols, "0b1011", use_cache=False)
            assert result.energy_j > 0
            assert result.cycles > 0
        finally:
            service.close()


# ----------------------------------------------------------------------
# service vs engine replay vs shadow, Stats pinned per query
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tech", TECHS)
def test_match_differential_with_mutations(tech, rng):
    table = {name: rng.integers(0, 2, 1024, dtype=np.uint8)
             for name in "abcd"}
    fresh = rng.integers(0, 2, 1024, dtype=np.uint8)
    ops = [
        ("query", "match(a, b, c, 0b101)"),
        ("query", "match(a, b, c, d, 0b1xx0)"),
        ("update", "b", fresh),
        ("query", "match(a, b, c, 0b101)"),   # must see the update
        ("query", "match(b, d, 0b00)"),       # all-negated form
        ("query", "match(a, 0bx)"),           # fully masked
        ("query", "match(a, b, 0b10) | match(c, d, 0b01)"),
    ]
    assert_ops_equivalent(table, ops, technology=tech)


# ----------------------------------------------------------------------
# columnstore kernel
# ----------------------------------------------------------------------
class TestColumnStoreMatch:
    @pytest.mark.parametrize("n_bits,n_shards", [
        (10_000, 3),   # ragged width, uneven shards
        (1 << 12, 2),  # uniform full-word layout
    ])
    @pytest.mark.parametrize("key", ["0b101", "0b1x0", "0b000",
                                     "0bxxx"])
    def test_matches_oracle(self, rng, n_bits, n_shards, key):
        records = _records(rng, n_bits, 3)
        store = ColumnStore(n_bits, n_shards)
        names = ["a", "b", "c"]
        for j, name in enumerate(names):
            store.add(name, records[:, j])
        matrix = store.match(names, key)
        assert np.array_equal(store.unpack(matrix),
                              oracle_match(records, key))

    def test_out_buffer_reused(self, rng):
        records = _records(rng, 4096, 2)
        store = ColumnStore(4096, 2)
        store.add("a", records[:, 0])
        store.add("b", records[:, 1])
        out = np.zeros(store.shape, dtype=np.uint64)
        result = store.match(["a", "b"], "0b10", out=out)
        assert result is out
        assert np.array_equal(store.unpack(out),
                              oracle_match(records, "0b10"))

    def test_explicit_mask(self, rng):
        records = _records(rng, 4096, 3)
        store = ColumnStore(4096, 2)
        for j, name in enumerate("abc"):
            store.add(name, records[:, j])
        got = store.unpack(store.match("abc", "0b111", "0b010"))
        assert np.array_equal(got,
                              oracle_match(records, "0b111", "0b010"))


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tech", TECHS)
class TestScenarios:
    def test_key_value_lookup(self, tech, service_cls, rng):
        n, key_w, value_w = 512, 6, 8
        keys = _records(rng, n, key_w)
        values = _records(rng, n, value_w)
        service = _make_service(tech, n_bits=n, cls=service_cls)
        try:
            key_cols = load_records(service, keys, prefix="k")
            value_cols = load_records(service, values, prefix="v")
            probe = keys[rng.integers(0, n)]   # guaranteed hit
            rows, got, result = key_value_lookup(
                service, key_cols, value_cols, probe)
            want_rows, want_values = oracle_lookup(keys, values, probe)
            assert np.array_equal(rows, want_rows)
            assert np.array_equal(got, want_values)
            assert result.count == rows.size >= 1
        finally:
            service.close()

    def test_packet_classification(self, tech, service_cls, rng):
        n, width = 1024, 8
        packets = _records(rng, n, width)
        rules = [
            ("0b1xxxxxxx", None),                  # broad prefix rule
            ("0b01xxxxxx", None),
            ("0b11111111", "0b11110000"),          # masked exact
            (tuple(int(b) for b in packets[0]), None),  # specific row
        ]
        service = _make_service(tech, n_bits=n, cls=service_cls)
        try:
            cols = load_records(service, packets, prefix="p")
            assigned, results = classify_packets(service, cols, rules)
            assert np.array_equal(assigned,
                                  oracle_classify(packets, rules))
            assert len(results) == len(rules)
            # First-match-wins: row 0 matches rule 0 (its bit 0 is
            # whatever it is) or a later rule — never unassigned.
            assert assigned[0] >= 0
        finally:
            service.close()

    def test_hamming_topk(self, tech, service_cls, rng):
        n, width, k = 256, 6, 5
        records = _records(rng, n, width)
        probe = rng.integers(0, 2, width, dtype=np.uint8)
        service = _make_service(tech, n_bits=n, cls=service_cls)
        try:
            cols = load_records(service, records, prefix="h")
            got = hamming_topk(service, cols, tuple(probe), k)
            rows, distances, radius = oracle_topk(
                records, tuple(probe), k)
            assert np.array_equal(got.rows, rows)
            assert np.array_equal(got.distances, distances)
            assert got.radius == radius
            assert got.rows.size >= k
            assert got.energy_j > 0
            assert got.searches >= 1
        finally:
            service.close()

    def test_hamming_topk_requires_full_key(self, tech, service_cls, rng):
        service = _make_service(tech, n_bits=64, cls=service_cls)
        try:
            cols = load_records(service, _records(rng, 64, 3))
            with pytest.raises(QueryError, match="fully-specified"):
                hamming_topk(service, cols, "0b1x0", 1)
        finally:
            service.close()


# ----------------------------------------------------------------------
# both wires
# ----------------------------------------------------------------------
class TestWireMatch:
    @pytest.fixture
    def served(self, rng):
        records = _records(rng, 512, 4)
        service = BitwiseService(n_bits=512, n_shards=2)
        cols = load_records(service, records)
        server = serve_tcp(service, 0, batch_window_s=0.002)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        port = server.server_address[1]
        yield records, cols, port
        server.shutdown()
        server.server_close()
        service.close()

    @pytest.mark.parametrize("wire", ("json", "binary"))
    @pytest.mark.parametrize("key,mask", [
        ("0b1x01", None),
        ("0b1101", "0b1010"),
        ([1, None, 0, 1], None),
    ])
    def test_match_round_trip(self, served, wire, key, mask):
        records, cols, port = served
        truth = oracle_match(records, key, mask)
        with ServiceClient("127.0.0.1", port, wire=wire) as client:
            response = client.match(cols, key, mask)
        assert response["count"] == int(truth.sum())
        assert response["query"].startswith("match(")

    @pytest.mark.parametrize("wire", ("json", "binary"))
    def test_wires_agree_on_key(self, served, wire):
        _, cols, port = served
        with ServiceClient("127.0.0.1", port, wire=wire) as client:
            via_match = client.match(cols, "0b1x01")
            via_query = client.query(
                f"match({', '.join(cols)}, 0b1x01)")
        assert via_match["key"] == via_query["key"]
        assert via_match["count"] == via_query["count"]

    @pytest.mark.parametrize("wire", ("json", "binary"))
    def test_server_rejects_bad_key_as_query_error(self, served, wire):
        # Bypass the client-side normalization so the SERVER's
        # validation answers — a typed {"code": "query"} error, and
        # the connection keeps serving.
        _, cols, port = served
        with ServiceClient("127.0.0.1", port, wire=wire) as client:
            with pytest.raises(ServiceError) as info:
                client.call({"op": "match", "cols": cols,
                             "key": "0b12zz"})
            assert info.value.code == "query"
            assert client.query("f0 | f1")["count"] >= 0  # survives

    def test_client_rejects_bad_key_locally(self, served):
        _, cols, port = served
        with ServiceClient("127.0.0.1", port) as client:
            with pytest.raises(QueryError):
                client.match(cols, "0b12zz")
