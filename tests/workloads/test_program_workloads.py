"""Program-form workloads: BNN / CRC8 / XOR cipher / masked init.

Every workload program is pinned three ways: service-vs-engine-replay
via the differential harness, outputs vs the workload's own numpy
reference, and the service runner's end-to-end verification flag.
"""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    PROGRAM_WORKLOADS,
    BnnInference,
    Crc8,
    MaskedInit,
    XorCipher,
    generate_inputs,
    run_workload,
)
from repro.workloads.crc8 import crc8_reference
from tests.support.differential import assert_program_equivalent

#: small-geometry instances (fast, still multi-shard / multi-word)
SMALL = {
    "bnn": lambda: BnnInference(1 << 12, n_features=8, n_neurons=3),
    "crc8": lambda: Crc8(1 << 11, record_bytes=4),
    "xor_cipher": lambda: XorCipher(1 << 11),
    "masked_init": lambda: MaskedInit(3 << 10),
}


def _table(workload_program, seed=3):
    return generate_inputs(workload_program, seed=seed)


class TestWorkloadProgramsDifferential:
    @pytest.mark.parametrize("technology", ["feram-2tnc", "dram"])
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_vector_matches_reference_and_numpy(self, technology,
                                                name):
        workload_program = SMALL[name]().as_program(seed=1)
        table = _table(workload_program)
        # Ground truth from the workload's own numpy reference (the
        # harness additionally checks the program-level numpy eval).
        _, vec = assert_program_equivalent(
            workload_program.program, table, technology=technology,
            check_ground_truth=False)
        expected = workload_program.reference(table)
        assert set(workload_program.program.outputs) == set(expected)
        for key, bits in expected.items():
            assert np.array_equal(vec.outputs[key],
                                  bits.astype(np.uint8)), key


class TestWorkloadPrograms:
    def test_crc8_program_matches_table_free_reference(self):
        workload = Crc8(1 << 11, record_bytes=4)
        workload_program = workload.as_program()
        table = _table(workload_program, seed=9)
        lanes = workload.n_lanes
        records = np.zeros((lanes, workload.record_bytes),
                           dtype=np.uint8)
        for byte_idx in range(workload.record_bytes):
            for bit in range(8):
                plane = table[f"byte{byte_idx}_bit{bit}"]
                records[:, byte_idx] |= plane << bit
        crc = crc8_reference(records)
        _, vec = assert_program_equivalent(workload_program.program,
                                           table,
                                           check_ground_truth=False)
        got = np.zeros(lanes, dtype=np.uint8)
        for k in range(8):
            got |= (vec.outputs[f"crc{k}"] << k).astype(np.uint8)
        assert np.array_equal(got, crc)

    def test_bnn_weight_complements_are_free_on_vector_path(self):
        """XNOR against a constant weight bit is an expression-level
        complement — an AIG edge attribute, not an op — so the number
        of vector kernel steps is identical for every weight draw (the
        engine replay may pay a NOT or two of parity steering; the
        bytecode never grows)."""
        from repro.arch.program import compile_program

        workload = BnnInference(1 << 10, n_features=4, n_neurons=1)
        step_counts = set()
        for seed in range(10):
            program = workload.as_program(seed=seed)
            cprog = compile_program(program.program)
            step_counts.add(len(cprog.vector_program().steps))
            assert cprog.primitives <= cprog.naive_primitives
        assert len(step_counts) == 1

    def test_bnn_cross_neuron_cse_shrinks_vector_steps(self):
        """Neurons sharing weight structure share popcount sub-trees
        on the vector path (fewer kernel steps than 2x one neuron)."""
        from repro.arch.program import compile_program

        one = BnnInference(1 << 10, n_features=8, n_neurons=1)
        two = BnnInference(1 << 10, n_features=8, n_neurons=2)
        # Seed 5 happens to give the two neurons overlapping rows; any
        # seed works for the <= bound, which is the real claim.
        steps_one = len(compile_program(
            one.as_program(seed=5).program).vector_program().steps)
        steps_two = len(compile_program(
            two.as_program(seed=5).program).vector_program().steps)
        assert steps_two < 2 * steps_one


class TestRunWorkload:
    @pytest.mark.parametrize("name", sorted(PROGRAM_WORKLOADS))
    def test_runner_verifies(self, name):
        run = run_workload(SMALL[name](), n_shards=3)
        assert run.verified is True
        assert run.energy_j > 0 and run.cycles > 0
        assert run.n_lanes >= 64

    def test_runner_by_name_counting_mode(self):
        run = run_workload("xor_cipher", n_bytes=1 << 20,
                           functional=False)
        assert run.verified is None
        assert run.cycles > 0

    def test_runner_unknown_name(self):
        with pytest.raises(WorkloadError, match="no program workload"):
            run_workload("bitmap_index")

    def test_non_program_workload_raises(self):
        from repro.workloads import SetUnion

        with pytest.raises(WorkloadError, match="no program form"):
            SetUnion(1 << 12).as_program()

    def test_cli_workload_subcommand(self, capsys):
        from repro.cli import main

        code = main(["workload", "masked_init", "--bytes", "6144",
                     "--shards", "2", "--per-statement"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified  : True" in out
        assert "sel(mask, init, data)" in out

    def test_cli_workload_json(self, capsys):
        import json

        from repro.cli import main

        code = main(["workload", "xor_cipher", "--bytes", "4096",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verified"] is True
        assert payload["statements"] == 1
