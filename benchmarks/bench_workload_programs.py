"""Program-executor benchmarks: dataflow workloads on the service.

Tracks the tentpole claims of the multi-statement program layer:

* the four dataflow workloads (BNN, CRC8, XOR cipher, masked init)
  run end-to-end on the service's columnar executor, verified
  bit-exactly against their numpy references;
* the executor beats the interpreted per-shard engine replay
  (``tests/support/replay.py``) on the adder-tree-heavy BNN program (the `workload_scale` record in
  ``BENCH_substrate.json`` pins the 16Mi-lane figure);
* program compilation (per-statement plans + whole-program AIG +
  bytecode) stays cheap enough to amortize after one run.
"""

import time

import numpy as np

from repro.arch.program import compile_program
from repro.workloads import run_workload
from repro.workloads.bnn import BnnInference
from repro.workloads.crc8 import Crc8
from repro.workloads.programs import generate_inputs
from tests.support.replay import EngineReplay

BNN_BYTES = 1 << 17   # 64Ki lanes at 16 features
CRC_BYTES = 1 << 13   # 128 lanes of 64-byte records (1544 statements)


def test_bnn_program_vector_backend(benchmark):
    run = benchmark(run_workload, BnnInference(BNN_BYTES),
                    n_shards=4, seed=1)
    assert run.verified is True
    benchmark.extra_info["lanes_per_s"] = round(run.lanes_per_s)
    benchmark.extra_info["energy_per_lane_nj"] = \
        round(run.energy_per_lane_nj, 4)


def test_bnn_program_vector_beats_reference(benchmark):
    """Same program on the service and on the engine replay, identical
    results; the speedup of the columnar executor is recorded (the 3x+
    claim is pinned at scale by ``perf_smoke``'s workload_scale
    gate)."""
    def both():
        vector = run_workload(BnnInference(BNN_BYTES), n_shards=4,
                              seed=1)
        program = BnnInference(BNN_BYTES).as_program(seed=1)
        replay = EngineReplay(n_bits=program.n_lanes, n_shards=4)
        for name, bits in generate_inputs(program, seed=1).items():
            replay.create_column(name, bits)
        start = time.perf_counter()
        replayed = replay.run_program(program.program)
        return vector, replayed, time.perf_counter() - start

    vector, replayed, replay_s = benchmark(both)
    assert vector.verified
    assert vector.cycles == replayed.cycles
    for name in ("neuron0", "neuron1"):
        assert np.array_equal(vector.result.outputs[name],
                              replayed.outputs[name])
    benchmark.extra_info["speedup"] = round(replay_s / vector.elapsed_s,
                                            2)


def test_crc8_program_compile_amortizes(benchmark):
    """Compiling the 1544-statement CRC8 program (per-statement plans,
    program AIG, bytecode, cost probe) is a one-time cost."""
    workload = Crc8(CRC_BYTES)
    program = workload.as_program().program

    def compile_and_probe():
        cprog = compile_program(program, inverting=True)
        cprog.vector_program()
        cprog.cost_events()
        return cprog

    cprog = benchmark(compile_and_probe)
    assert len(cprog.stmt_plans) == len(program)
    benchmark.extra_info["statements"] = len(program)


def test_crc8_program_end_to_end(benchmark):
    run = benchmark(run_workload, Crc8(CRC_BYTES), n_shards=2)
    assert run.verified is True
    benchmark.extra_info["statements"] = run.statements
