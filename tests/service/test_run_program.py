"""Service program execution: pinned against the engine replay via the
differential harness, interleaving with single queries, counting mode,
caching."""

import numpy as np
import pytest

from repro.arch.program import Program, parse_program
from repro.errors import QueryError
from repro.service import BitwiseService
from tests.support.differential import (
    assert_program_equivalent,
    numpy_program_eval,
)
from tests.support.replay import EngineReplay

N_BITS = 10_000  # not a multiple of 64 * shards

PROGRAMS = {
    "single": Program([("out", "a ^ b")]),
    "chain": Program([("t", "a & b"), ("u", "t | ~c"),
                      ("v", "maj(t, u, d)")], outputs=["u", "v"]),
    "shadowing": Program([("t", "a & b"), ("u", "t | c"), ("t", "~t"),
                          ("v", "t ^ u")], outputs=["u", "v"]),
    "cse_across_statements": Program([
        ("t", "(a & b) | c"), ("u", "(b & a) | d"), ("w", "t ^ u")],
        outputs=["t", "u", "w"]),
    "parity_heavy": Program([
        ("x", "~a & ~b"), ("y", "nor(a, c)"), ("z", "x ^ ~y"),
        ("out", "andnot(z, d)")], outputs=["out"]),
    "constants": Program([("t", "a & ~a"), ("u", "t | 1"),
                          ("v", "u ^ b")], outputs=["t", "v"]),
    "alias_output": Program([("t", "a & b"), ("u", "t")],
                            outputs=["t", "u"]),
}


@pytest.fixture
def table(rng):
    return {name: rng.integers(0, 2, N_BITS, dtype=np.uint8)
            for name in "abcd"}


class TestProgramBackendEquivalence:
    @pytest.mark.parametrize("technology", ["feram-2tnc", "dram"])
    @pytest.mark.parametrize("label", sorted(PROGRAMS))
    def test_programs_bit_and_stats_exact(self, technology, label,
                                          table):
        assert_program_equivalent(PROGRAMS[label], table,
                                  technology=technology)

    @pytest.mark.parametrize("technology", ["feram-2tnc", "dram"])
    def test_equivalent_from_evolved_flag_state(self, technology,
                                                table):
        """Queries before the program leave re-encoded column flags;
        the analytic program coster must start from that state."""
        assert_program_equivalent(
            PROGRAMS["chain"], table, technology=technology,
            warmup_queries=["~a & ~b", "nor(c, d)", "a ^ ~b"])

    def test_counting_mode_stats_match(self, table):
        assert_program_equivalent(PROGRAMS["chain"], table,
                                  functional=False)


class TestRunProgramSemantics:
    def test_outputs_match_numpy(self, table):
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            program = PROGRAMS["shadowing"]
            result = svc.run_program(program)
            expected = numpy_program_eval(program, table)
            for name, bits in expected.items():
                assert np.array_equal(result.outputs[name], bits)
                assert result.counts[name] == int(bits.sum())
            assert result.shards == 3
            assert [s.name for s in result.statements] == \
                ["t", "u", "t", "v"]
        finally:
            svc.close()

    def test_interleaved_queries_and_programs(self, table):
        """Program runs and single queries share one cost state
        (column flags + FeRAM control-rewrite counters): an
        interleaved sequence must stay Stats-exact against the engine
        replay."""
        ref = EngineReplay("feram-2tnc", n_bits=N_BITS, n_shards=3)
        vec = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=3)
        for name, bits in table.items():
            ref.create_column(name, bits)
            vec.create_column(name, bits)
        try:
            sequence = [
                ("query", "~a & ~b"),
                ("program", PROGRAMS["chain"]),
                ("query", "a ^ ~c"),
                ("program", PROGRAMS["parity_heavy"]),
                ("query", "nor(a, d)"),
            ]
            for kind, payload in sequence:
                if kind == "query":
                    expected = ref.query(payload)
                    actual = vec.query(payload, use_cache=False)
                    assert np.array_equal(expected.bits, actual.bits)
                    assert expected.cycles == actual.cycles, payload
                else:
                    expected = ref.run_program(payload)
                    actual = vec.run_program(payload)
                    assert expected.cycles == actual.cycles
                    for rs, vs in zip(expected.statements,
                                      actual.statements):
                        assert rs.stats.allclose(vs.stats)
            vec_stats = vec.stats()
            assert ref.stats()["cycles_total"] == vec_stats["cycles_total"]
            assert vec_stats["programs_run"] == 2
        finally:
            vec.close()

    def test_program_plan_cache_reused(self, table):
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=2)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            program = PROGRAMS["chain"]
            first = svc.compile_program(program)
            # A structurally identical re-build hits the same plan.
            clone = Program([(n, str(e)) for n, e in program.statements],
                            program.outputs)
            assert svc.compile_program(clone) is first
            svc.run_program(program)
            svc.run_program(clone)
            assert svc.stats()["programs_run"] == 2
        finally:
            svc.close()

    def test_unknown_column_rejected(self, table):
        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=2)
        try:
            svc.create_column("a", table["a"])
            with pytest.raises(QueryError, match="unbound"):
                svc.run_program(Program([("t", "a & nope")]))
        finally:
            svc.close()

    def test_wrong_polarity_compiled_program_rejected(self, table):
        from repro.arch.program import compile_program

        svc = BitwiseService("feram-2tnc", n_bits=N_BITS, n_shards=2)
        try:
            for name, bits in table.items():
                svc.create_column(name, bits)
            cprog = compile_program(PROGRAMS["single"], inverting=False)
            with pytest.raises(QueryError, match="polarity"):
                svc.run_program(cprog)
        finally:
            svc.close()

    def test_columns_unchanged_after_program(self, table):
        """Parity steering may re-encode columns on the engines, but
        never changes their logical value."""
        ref = EngineReplay("feram-2tnc", n_bits=N_BITS, n_shards=3)
        for name, bits in table.items():
            ref.create_column(name, bits)
        ref.run_program(PROGRAMS["shadowing"])
        for name, bits in table.items():
            assert np.array_equal(ref.column_bits(name), bits)

    def test_parse_program_round_trip(self, table):
        program = parse_program("t = a & b\nout = t ^ c")
        assert_program_equivalent(program, table)
