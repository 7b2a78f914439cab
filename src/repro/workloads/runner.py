"""Fig. 6 driver: the eight workloads on DRAM vs 2T-nC FeRAM.

Produces the paper's comparison — per-workload energy and execution
cycles for both technologies plus the FeRAM-over-DRAM improvement
factors (paper headline: ≈2.5× lower energy, ≈2× fewer cycles).
:func:`run_workload` runs one of the program-form workloads on the
bitwise service and verifies its outputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.arch.primitives import make_engine
from repro.arch.spec import MemorySpec
from repro.errors import WorkloadError
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.bitmap_index import BitmapIndexQuery
from repro.workloads.bnn import BnnInference
from repro.workloads.crc8 import Crc8
from repro.workloads.masked_init import MaskedInit
from repro.workloads.programs import WorkloadProgram, generate_inputs
from repro.workloads.set_ops import SetDifference, SetIntersection, SetUnion
from repro.workloads.xor_cipher import XorCipher

__all__ = ["WORKLOAD_CLASSES", "PROGRAM_WORKLOADS",
           "WorkloadComparison", "Fig6Table", "WorkloadServiceRun",
           "make_workloads", "run_comparison", "run_fig6",
           "run_workload"]

GIB = 1 << 30

#: the paper's eight applications, in its Fig. 6 order
WORKLOAD_CLASSES: tuple[type[Workload], ...] = (
    Crc8,
    XorCipher,
    SetUnion,
    SetIntersection,
    SetDifference,
    MaskedInit,
    BitmapIndexQuery,
    BnnInference,
)


#: workloads with a multi-statement program form (service-executable)
PROGRAM_WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (BnnInference, Crc8, XorCipher, MaskedInit)
}


def make_workloads(n_bytes: int = GIB,
                   ) -> list[Workload]:
    """Instantiate all eight workloads at the given data size."""
    return [cls(n_bytes) for cls in WORKLOAD_CLASSES]


@dataclass
class WorkloadServiceRun:
    """Outcome of one program workload run on the service."""

    workload: str
    technology: str
    n_lanes: int
    statements: int
    verified: bool | None        #: outputs vs numpy reference (None in
                                 #: counting mode or verify=False)
    energy_j: float              #: attributed in-memory energy
    cycles: int
    elapsed_s: float             #: program wall-clock (excl. ingest)
    ingest_s: float              #: column generation + load wall-clock
    result: object = field(repr=False, default=None)  #: ProgramResult

    @property
    def lanes_per_s(self) -> float:
        return self.n_lanes / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def energy_per_lane_nj(self) -> float:
        return self.energy_j * 1e9 / self.n_lanes


def run_workload(workload: "Workload | str", *,
                 n_bytes: int = 1 << 20,
                 technology: str = "feram-2tnc",
                 n_shards: int = 4,
                 functional: bool = True,
                 seed: int = 0,
                 verify: bool = True,
                 service=None,
                 tenant: str | None = None) -> WorkloadServiceRun:
    """Run a dataflow workload as a program on the bitwise service.

    ``workload`` is a :class:`Workload` instance or one of the
    :data:`PROGRAM_WORKLOADS` names (instantiated at ``n_bytes``).
    A fresh service is provisioned at the workload's lane count unless
    ``service`` is given (its table must be ``n_lanes`` wide and will
    gain the input columns).  ``tenant`` runs the whole workload
    inside that namespace of the (typically shared) service — input
    columns, program execution and accounting are tenant-isolated.
    In functional mode the outputs are verified bit-exactly against
    the workload's numpy reference unless ``verify=False`` (useful
    when benchmarking at GB scale).
    """
    if isinstance(workload, str):
        try:
            workload = PROGRAM_WORKLOADS[workload](n_bytes)
        except KeyError:
            raise WorkloadError(
                f"no program workload {workload!r} "
                f"(have {sorted(PROGRAM_WORKLOADS)})") from None
    workload_program: WorkloadProgram = workload.as_program(seed=seed)

    from repro.service import BitwiseService

    owns_service = service is None
    if owns_service:
        service = BitwiseService(
            technology, n_bits=workload_program.n_lanes,
            n_shards=n_shards, functional=functional)
    try:
        if service.n_bits != workload_program.n_lanes:
            raise WorkloadError(
                f"service width {service.n_bits} != workload lanes "
                f"{workload_program.n_lanes}")
        ingest_start = time.perf_counter()
        inputs = generate_inputs(workload_program, seed=seed) \
            if service.functional else \
            dict.fromkeys(workload_program.input_columns)
        for name, bits in inputs.items():
            service.create_column(name, bits, tenant=tenant)
        ingest_s = time.perf_counter() - ingest_start
        result = service.run_program(workload_program.program,
                                     tenant=tenant)
        verified: bool | None = None
        if service.functional and verify:
            expected = workload_program.reference(inputs)
            verified = all(
                np.array_equal(result.outputs[name][: ref.size],
                               ref.astype(np.uint8))
                for name, ref in expected.items())
        return WorkloadServiceRun(
            workload=workload.name,
            technology=service.technology,
            n_lanes=workload_program.n_lanes,
            statements=len(workload_program.program),
            verified=verified,
            energy_j=result.energy_j,
            cycles=result.cycles,
            elapsed_s=result.elapsed_s,
            ingest_s=ingest_s,
            result=result,
        )
    finally:
        if owns_service:
            service.close()


@dataclass
class WorkloadComparison:
    """One Fig. 6 row: a workload on both technologies."""

    workload: str
    title: str
    dram: WorkloadResult
    feram: WorkloadResult

    @property
    def energy_ratio(self) -> float:
        """DRAM energy / FeRAM energy (>1 means FeRAM wins)."""
        return self.dram.energy_j / self.feram.energy_j

    @property
    def cycle_ratio(self) -> float:
        """DRAM cycles / FeRAM cycles (>1 means FeRAM wins)."""
        return self.dram.cycles / self.feram.cycles


@dataclass
class Fig6Table:
    """All eight rows plus the aggregate factors."""

    rows: list[WorkloadComparison]

    def mean_energy_ratio(self) -> float:
        return float(np.exp(np.mean(
            [np.log(row.energy_ratio) for row in self.rows])))

    def mean_cycle_ratio(self) -> float:
        return float(np.exp(np.mean(
            [np.log(row.cycle_ratio) for row in self.rows])))

    def row(self, workload: str) -> WorkloadComparison:
        for row in self.rows:
            if row.workload == workload:
                return row
        raise WorkloadError(f"no workload {workload!r} in table")

    def format(self) -> str:
        lines = [
            f"{'workload':<18}{'DRAM E (mJ)':>12}{'FeRAM E (mJ)':>13}"
            f"{'E ratio':>9}{'DRAM cyc':>12}{'FeRAM cyc':>12}{'C ratio':>9}"
        ]
        for row in self.rows:
            lines.append(
                f"{row.title:<18}"
                f"{row.dram.energy_j * 1e3:>12.3f}"
                f"{row.feram.energy_j * 1e3:>13.3f}"
                f"{row.energy_ratio:>9.2f}"
                f"{row.dram.cycles:>12d}"
                f"{row.feram.cycles:>12d}"
                f"{row.cycle_ratio:>9.2f}")
        lines.append(
            f"{'geomean':<18}{'':>12}{'':>13}"
            f"{self.mean_energy_ratio():>9.2f}{'':>12}{'':>12}"
            f"{self.mean_cycle_ratio():>9.2f}")
        return "\n".join(lines)


def run_comparison(workload: Workload, *,
                   dram_spec: MemorySpec | None = None,
                   feram_spec: MemorySpec | None = None,
                   functional: bool = False,
                   charge_io: bool = False,
                   seed: int = 0) -> WorkloadComparison:
    """Run one workload on both technologies with fresh engines."""
    dram_engine = make_engine("dram", functional=functional,
                              spec=dram_spec)
    feram_engine = make_engine("feram-2tnc", functional=functional,
                               spec=feram_spec)
    dram_result = workload.run(dram_engine, seed=seed, charge_io=charge_io)
    feram_result = workload.run(feram_engine, seed=seed,
                                charge_io=charge_io)
    if functional and not (dram_result.verified and feram_result.verified):
        raise WorkloadError(
            f"{workload.name}: functional verification failed "
            f"(dram={dram_result.verified}, feram={feram_result.verified})")
    return WorkloadComparison(workload=workload.name, title=workload.title,
                              dram=dram_result, feram=feram_result)


def run_fig6(n_bytes: int = GIB, *, functional: bool = False,
             charge_io: bool = False,
             dram_spec: MemorySpec | None = None,
             feram_spec: MemorySpec | None = None,
             seed: int = 0) -> Fig6Table:
    """Regenerate the paper's Fig. 6 at the given workload size.

    The paper runs 1 GB per workload in counting mode; functional mode
    (bit-exact, verified) is practical up to tens of MB.
    """
    rows = [run_comparison(workload, functional=functional, seed=seed,
                           charge_io=charge_io,
                           dram_spec=dram_spec, feram_spec=feram_spec)
            for workload in make_workloads(n_bytes)]
    return Fig6Table(rows)
