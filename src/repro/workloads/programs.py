"""Workloads as multi-statement programs for the bitwise service.

The §VI kernels were originally written as imperative loops of
interpreted :class:`~repro.arch.engine.BulkEngine` calls; this module
re-expresses the dataflow workloads as :class:`~repro.arch.program.
Program` objects so they run through :meth:`~repro.service.service.
BitwiseService.run_program` — compiled once, executed by the columnar
vector executor as whole-matrix numpy kernels, and provably equivalent
to the engine replay via the differential test harness.

The expression-level arithmetic builders here mirror the bit-sliced
adder trees of :mod:`repro.arch.bitwise` (LSB-first planes, full adders
from XOR/MAJ, shifts as renames), but as *statements over named
intermediates*: the program compiler then folds constants (zero
padding, threshold planes), shares repeated sub-terms across
statements, and plans complement-flag parities — none of which the
handwritten engine loops can do.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.arch.expr import And, Const, Expr, Maj, Xor
from repro.arch.program import Program, ProgramBuilder
from repro.errors import WorkloadError

__all__ = [
    "WorkloadProgram", "emit_ripple_add", "emit_add_constant",
    "emit_popcount", "emit_greater_equal_const", "generate_inputs",
]


@dataclass
class WorkloadProgram:
    """A workload lowered to a program plus its verification contract.

    ``reference`` maps the generated input columns (name → flat 0/1
    array) to the expected output bits per program output name.
    """

    workload: str
    n_lanes: int
    program: Program
    reference: Callable[[dict[str, np.ndarray]], dict[str, np.ndarray]]
    densities: dict[str, float] = field(default_factory=dict)

    @property
    def input_columns(self) -> tuple[str, ...]:
        return self.program.cols()


def generate_inputs(workload_program: WorkloadProgram, *,
                    seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic random input columns (one rng draw per column, in
    ``program.cols()`` order, honoring per-column densities)."""
    rng = np.random.default_rng(seed)
    inputs: dict[str, np.ndarray] = {}
    for name in workload_program.input_columns:
        density = workload_program.densities.get(name, 0.5)
        inputs[name] = (rng.random(workload_program.n_lanes)
                        < density).astype(np.uint8)
    return inputs


# ----------------------------------------------------------------------
# expression-level bit-sliced arithmetic
# ----------------------------------------------------------------------
def emit_ripple_add(builder: ProgramBuilder, a: list[Expr],
                    b: list[Expr], prefix: str) -> list[Expr]:
    """Bit-sliced ``a + b``; returns ``max(len) + 1`` planes.

    One statement per sum and carry plane (named intermediates give
    per-statement cost attribution); shorter operands pad with
    ``Const(0)``, which the statement compiler folds away.
    """
    if not a or not b:
        raise WorkloadError("ripple add requires non-empty slices")
    width = max(len(a), len(b))
    padded_a = list(a) + [Const(0)] * (width - len(a))
    padded_b = list(b) + [Const(0)] * (width - len(b))
    out: list[Expr] = []
    carry: Expr | None = None
    for k, (pa, pb) in enumerate(zip(padded_a, padded_b)):
        if carry is None:
            total, carry_expr = Xor(pa, pb), And(pa, pb)
        else:
            total = Xor(pa, pb, carry)
            carry_expr = Maj(pa, pb, carry)
        out.append(builder.emit(f"{prefix}_s{k}", total))
        carry = builder.emit(f"{prefix}_c{k}", carry_expr)
    out.append(carry)
    return out


def emit_add_constant(builder: ProgramBuilder, a: list[Expr],
                      constant: int, prefix: str) -> list[Expr]:
    """Bit-sliced ``a + constant`` (constant broadcast to all lanes)."""
    if constant < 0:
        raise WorkloadError("constant must be non-negative")
    width = max(len(a), constant.bit_length())
    planes = [Const((constant >> k) & 1) for k in range(width)]
    return emit_ripple_add(builder, a, planes, prefix)


def emit_popcount(builder: ProgramBuilder, bits: list[Expr],
                  prefix: str) -> list[Expr]:
    """Per-lane popcount of N 1-bit planes → bit-sliced count.

    Balanced adder tree, exactly like :func:`repro.arch.bitwise.
    popcount` but over expressions.
    """
    if not bits:
        raise WorkloadError("popcount requires at least one plane")
    queue: list[list[Expr]] = [[plane] for plane in bits]
    level = 0
    while len(queue) > 1:
        next_queue: list[list[Expr]] = []
        for i in range(0, len(queue) - 1, 2):
            next_queue.append(emit_ripple_add(
                builder, queue[i], queue[i + 1],
                f"{prefix}_l{level}a{i // 2}"))
        if len(queue) % 2:
            next_queue.append(queue[-1])
        queue = next_queue
        level += 1
    return queue[0]


def emit_greater_equal_const(builder: ProgramBuilder, a: list[Expr],
                             threshold: int, prefix: str) -> Expr:
    """Per-lane ``value(a) >= threshold`` as one plane.

    The carry-out of ``a + (2^w - threshold)`` — the same borrow trick
    as :func:`repro.arch.bitwise.greater_equal_const`.
    """
    if threshold < 0:
        raise WorkloadError("threshold must be non-negative")
    width = len(a)
    if threshold == 0:
        return Const(1)
    if threshold > (1 << width):
        return Const(0)
    complement = (1 << width) - threshold
    planes: list[Expr] = [Const((complement >> k) & 1)
                          for k in range(width)]
    total = emit_ripple_add(builder, a, planes, prefix)
    return total[-1]
