"""Differential-testing harness: the service vs the engine replay.

The oracle is :class:`~tests.support.replay.EngineReplay`: one
:class:`~repro.arch.engine.BulkEngine` per shard replaying every plan
command by command, with no cache, tenancy, durability or scheduler.
The service prices plans in closed form and runs them as vector
kernels; the two must agree.  Two reusable assertions pin that
contract:

* :func:`assert_program_equivalent` — for any program and table, the
  service's run must be indistinguishable from the engine replay —
  same output bits (and the numpy truth), same popcounts, the same
  attributed :class:`~repro.arch.commands.Stats` *per statement*
  (``Stats.allclose``: integer counts/cycles exact, energies at float
  tolerance), and the same aggregate ledgers.
* :func:`assert_ops_equivalent` — for any serialized **op script**
  interleaving queries with column mutations (update / slice write /
  append / drop / create), the service must agree with the replay
  *and* with a plain-numpy shadow table after every step — bits,
  counts, per-query Stats, mutation dirty-row accounting, and the
  disturb/scrub maintenance ledger.

The oracle replays only what the service executed: a query the
service answers from its result cache executes nothing on either
side, so column flags, FeRAM control counters and disturb counters
stay in step.  Every workload, mutation and property test routes
through here instead of re-implementing the comparison.

:class:`ReplayCheckedService` applies the same contract inside any
scenario: a service subclass that replays each operation it executes
and asserts agreement on the spot, so scenario tests (CAM search,
mutation, cache invalidation, tenancy) run once on the plain service
and once pinned against the replay (the ``service_cls`` fixture).
"""

from __future__ import annotations

import math

import numpy as np

from repro.arch.program import CompiledProgram
from repro.service import BitwiseService
from repro.service.columnstore import PackedBits
from tests.support.replay import EngineReplay


def numpy_program_eval(program, table):
    """Ground-truth evaluation of a program on plain numpy bit arrays.

    Statements execute sequentially over an environment seeded with the
    table columns; shadowing rebinds for subsequent statements only.
    Returns the final bindings of the program outputs.
    """
    from repro.arch import expr as e

    width = len(next(iter(table.values())))

    def eval_expr(node, env):
        if isinstance(node, e.Col):
            return env[node.name]
        if isinstance(node, e.Const):
            return np.full(width, node.bit, dtype=np.uint8)
        kids = [eval_expr(k, env) for k in node.children()]
        if isinstance(node, e.Not):
            return 1 - kids[0]
        if isinstance(node, (e.And, e.Nand)):
            out = kids[0]
            for k in kids[1:]:
                out = out & k
            return 1 - out if isinstance(node, e.Nand) else out
        if isinstance(node, (e.Or, e.Nor)):
            out = kids[0]
            for k in kids[1:]:
                out = out | k
            return 1 - out if isinstance(node, e.Nor) else out
        if isinstance(node, (e.Xor, e.Xnor)):
            out = kids[0]
            for k in kids[1:]:
                out = out ^ k
            return 1 - out if isinstance(node, e.Xnor) else out
        if isinstance(node, e.AndNot):
            return kids[0] & (1 - kids[1])
        if isinstance(node, e.Maj):
            return ((kids[0].astype(int) + kids[1] + kids[2]) >= 2
                    ).astype(np.uint8)
        if isinstance(node, e.Select):
            return (kids[0] & kids[1]) | ((1 - kids[0]) & kids[2])
        if isinstance(node, e.Match):
            out = np.ones(width, dtype=np.uint8)
            for kid, bit, care in zip(kids, node.key, node.mask):
                if care:
                    out &= kid ^ (1 - bit)
            return out
        raise AssertionError(type(node))

    env = {name: np.asarray(bits, dtype=np.uint8)
           for name, bits in table.items()}
    for name, expr in program.statements:
        env[name] = eval_expr(expr, env)
    return {name: env[name] for name in program.outputs}


def _pair(table, *, technology, n_shards, functional=True,
          capacity=None, cache_size=64, fused=True, workers=None,
          parallel_min_work=None):
    """A service and an :class:`EngineReplay` loaded with ``table``.

    ``fused``/``workers``/``parallel_min_work`` select the service's
    executor tier; the replay has none.
    """
    n_bits = len(next(iter(table.values())))
    service = BitwiseService(technology, n_bits=n_bits,
                             n_shards=n_shards, functional=functional,
                             capacity=capacity, cache_size=cache_size,
                             fuse=fused, workers=workers)
    if parallel_min_work is not None:
        service._parallel_min_work = parallel_min_work
    oracle = EngineReplay(technology, n_bits=n_bits, n_shards=n_shards,
                          functional=functional, capacity=capacity)
    try:
        for name, bits in table.items():
            bits = bits if functional else None
            service.create_column(name, bits)
            oracle.create_column(name, bits)
    except BaseException:
        service.close()
        raise
    return service, oracle


def _assert_ledgers_match(ref_stats: dict, vec_stats: dict,
                          label: str) -> None:
    assert ref_stats["rows_used"] == vec_stats["rows_used"], label
    assert ref_stats["cycles_total"] == vec_stats["cycles_total"], label
    assert math.isclose(ref_stats["energy_total_nj"],
                        vec_stats["energy_total_nj"],
                        rel_tol=1e-9, abs_tol=1e-12), label
    assert ref_stats["writeback"] == vec_stats["writeback"], label


def _assert_mutation_matches(ref, vec, label: str) -> None:
    assert ref.rows_written == vec.rows_written, label
    assert ref.dirty_shards == vec.dirty_shards, label
    assert math.isclose(ref.energy_j, vec.energy_j,
                        rel_tol=1e-9, abs_tol=1e-15), label


class ReplayCheckedService(BitwiseService):
    """A service that replays all it executes on an
    :class:`EngineReplay` and asserts agreement as it goes.

    Scenario tests run it as a second arm next to the plain service,
    so each scenario is also pinned against the engine replay: every
    executed query plan and program must match the replay's bits,
    counts and Stats, every mutation its dirty rows, dirty shards and
    energy, and on close the ledgers must agree.  Cache hits execute
    nothing and are not replayed.  Columns are replayed under their
    physical (tenant-scoped) names.
    """

    def __init__(self, technology: str = "feram-2tnc", **kwargs):
        super().__init__(technology, **kwargs)
        self.replay = EngineReplay(
            technology, n_bits=self.n_bits, n_shards=self.n_shards,
            functional=self.functional, capacity=self.capacity)
        assert self.replay.n_shards == self.n_shards

    def create_column(self, name, bits=None, *, tenant=None) -> None:
        super().create_column(name, bits, tenant=tenant)
        self.replay.create_column(self._resolve(tenant, name),
                                  bits if self.functional else None)

    def drop_column(self, name, *, tenant=None) -> None:
        physical = self._resolve(tenant, name)
        super().drop_column(name, tenant=tenant)
        self.replay.drop_column(physical)

    def _mutate(self, op, name, offset, bits, *, tenant):
        result = super()._mutate(op, name, offset, bits, tenant=tenant)
        ref = self.replay.write_slice(self._resolve(tenant, name),
                                      int(offset), bits)
        _assert_mutation_matches(ref, result, f"{op} {name!r}")
        return result

    def append_rows(self, values=None, n=None, *, tenant=None):
        result = super().append_rows(values, n, tenant=tenant)
        ref = self.replay.append_rows(
            {self._resolve(tenant, name): bits
             for name, bits in dict(values or {}).items()},
            n=result.n_bits)
        _assert_mutation_matches(ref, result, "append_rows")
        return result

    def _run_batch(self, pending):
        outputs = super()._run_batch(pending)
        for ckey, item in pending.items():
            payload, count, delta, _ = outputs[ckey]
            ref = self.replay.query(item["plan"].expr, item["colmap"])
            label = f"query {str(item['plan'].expr)!r}"
            if self.functional:
                bits = payload.unpack() \
                    if isinstance(payload, PackedBits) else payload
                assert np.array_equal(ref.bits, bits), label
                assert ref.count == count, label
            assert ref.cycles == delta.total_cycles, label
            assert ref.primitives_per_row == \
                item["plan"].primitives, label
            detail = delta.summary()
            assert ref.detail.keys() == detail.keys(), label
            for key, value in ref.detail.items():
                assert math.isclose(value, detail[key], rel_tol=1e-9,
                                    abs_tol=1e-12), f"{label}: {key}"
        return outputs

    def run_program(self, program, *, tenant=None):
        result = super().run_program(program, tenant=tenant)
        cprog = program if isinstance(program, CompiledProgram) \
            else self.compile_program(program)
        ref = self.replay.run_program(
            cprog, self._colmap(tenant, cprog.cols))
        for rs, vs in zip(ref.statements, result.statements,
                          strict=True):
            assert rs.stats.allclose(vs.stats), \
                f"statement {rs.index} ({rs.name!r}) Stats diverge"
        if self.functional:
            for name, bits in result.outputs.items():
                assert np.array_equal(ref.outputs[name], bits), name
                assert ref.counts[name] == result.counts[name], name
        return result

    def close(self) -> None:
        if self._closed:
            return
        try:
            _assert_ledgers_match(self.replay.stats(), self.stats(),
                                  "ledgers on close")
        finally:
            super().close()


def assert_program_equivalent(program, table, *,
                              technology="feram-2tnc", n_shards=3,
                              functional=True, warmup_queries=(),
                              check_ground_truth=True,
                              fused=True, workers=None,
                              parallel_min_work=None):
    """THE differential assertion (see module docstring).

    ``warmup_queries`` run first on both sides (uncached) so the
    equivalence is also exercised from evolved column-flag state.
    Returns ``(replay_result, service_result)`` for further checks.
    """
    service, oracle = _pair(table, technology=technology,
                            n_shards=n_shards, functional=functional,
                            fused=fused, workers=workers,
                            parallel_min_work=parallel_min_work)
    try:
        for query in warmup_queries:
            service.query(query, use_cache=False)
            oracle.query(query)
        vec = service.run_program(program)
        ref = oracle.run_program(program)
        vec_ledger = service.stats()
    finally:
        service.close()

    # --- bits ---------------------------------------------------------
    if functional:
        expected = numpy_program_eval(program, table) \
            if check_ground_truth else None
        for name in program.outputs:
            assert np.array_equal(ref.outputs[name],
                                  vec.outputs[name]), \
                f"{technology}: output {name!r} bits diverge"
            assert ref.counts[name] == vec.counts[name], name
            if expected is not None:
                assert np.array_equal(vec.outputs[name],
                                      expected[name]), \
                    f"{technology}: output {name!r} != numpy truth"
    else:
        assert ref.outputs is None and vec.outputs is None

    # --- per-statement Stats ------------------------------------------
    assert len(ref.statements) == len(vec.statements) == len(program)
    for rs, vs in zip(ref.statements, vec.statements):
        assert rs.name == vs.name and rs.index == vs.index
        assert rs.stats.allclose(vs.stats), (
            f"{technology}: statement {rs.index} ({rs.name!r}) Stats "
            f"diverge:\n  replay={rs.stats}\n  service={vs.stats}")

    # --- totals and ledgers -------------------------------------------
    assert ref.cycles == vec.cycles
    assert math.isclose(ref.energy_j, vec.energy_j,
                        rel_tol=1e-9, abs_tol=1e-15)
    assert ref.primitives_per_row == vec.primitives_per_row
    _assert_ledgers_match(oracle.stats(), vec_ledger, technology)
    return ref, vec


# ----------------------------------------------------------------------
# mutation op scripts
# ----------------------------------------------------------------------
def numpy_query_eval(expr, table):
    """Ground-truth evaluation of one query on plain numpy bit arrays."""
    from repro.arch.program import Program

    return numpy_program_eval(
        Program([("__q", expr)]), table)["__q"]


def apply_op_to_shadow(shadow: dict, op: tuple) -> None:
    """Mirror one mutation op onto the plain-numpy shadow table."""
    kind = op[0]
    if kind == "create":
        shadow[op[1]] = np.asarray(op[2], dtype=np.uint8).copy()
    elif kind == "drop":
        del shadow[op[1]]
    elif kind == "update":
        shadow[op[1]] = np.asarray(op[2], dtype=np.uint8).copy()
    elif kind == "write":
        _, name, offset, bits = op
        bits = np.asarray(bits, dtype=np.uint8)
        shadow[name][offset:offset + bits.size] = bits
    elif kind == "append":
        values = {name: np.asarray(bits, dtype=np.uint8)
                  for name, bits in op[1].items()}
        n = next(iter(values.values())).size
        for name in list(shadow):
            extra = values.get(name, np.zeros(n, dtype=np.uint8))
            shadow[name] = np.concatenate([shadow[name], extra])
    elif kind != "query":
        raise AssertionError(f"unknown op {kind!r}")


def apply_op(target, op: tuple):
    """Apply one op to a service or an :class:`EngineReplay`; returns
    its query or mutation result."""
    kind = op[0]
    if kind == "create":
        return target.create_column(op[1], op[2])
    if kind == "drop":
        return target.drop_column(op[1])
    if kind == "update":
        return target.update_column(op[1], op[2])
    if kind == "write":
        return target.write_slice(op[1], op[2], op[3])
    if kind == "append":
        return target.append_rows(op[1])
    if kind == "query":
        return target.query(op[1])
    raise AssertionError(f"unknown op {kind!r}")


def assert_ops_equivalent(initial_table: dict, ops, *,
                          technology="feram-2tnc", n_shards=3,
                          capacity=None, cache_size=64,
                          fused=True, workers=None,
                          parallel_min_work=None):
    """Differential assertion for serialized mutation/query scripts.

    Runs the same op script on a service, an :class:`EngineReplay`
    and a plain-numpy shadow table.  After every op, query bits and
    counts must match the shadow; an executed query must match the
    replay's bits, cycles and energy, while a cache hit must charge
    nothing (and is not replayed); mutations must charge the replay's
    dirty rows, dirty shards and energy.  Finally the column states
    and the full ledgers (compute + write-back maintenance) must
    agree.

    ``workers``/``parallel_min_work`` select the service's executor
    tier (shared-memory process pool).
    """
    service, oracle = _pair(initial_table, technology=technology,
                            n_shards=n_shards, capacity=capacity,
                            cache_size=cache_size, fused=fused,
                            workers=workers,
                            parallel_min_work=parallel_min_work)
    shadow = {name: np.asarray(bits, dtype=np.uint8).copy()
              for name, bits in initial_table.items()}
    try:
        for step, op in enumerate(ops):
            vec = apply_op(service, op)
            apply_op_to_shadow(shadow, op)
            label = f"op {step} {op[0]!r}"
            if op[0] == "query":
                truth = numpy_query_eval(op[1], shadow)
                assert np.array_equal(vec.bits, truth), \
                    f"{label}: service bits != shadow"
                assert vec.count == int(truth.sum()), label
                if vec.cache_hit:
                    assert vec.cycles == 0 and vec.energy_j == 0.0, label
                    continue
            ref = apply_op(oracle, op)
            if op[0] == "query":
                assert np.array_equal(ref.bits, truth), \
                    f"{label}: replay bits != shadow"
                assert ref.cycles == vec.cycles, label
                assert ref.primitives_per_row == \
                    vec.primitives_per_row, label
                assert ref.detail.keys() == vec.detail.keys(), label
                for key, value in ref.detail.items():
                    assert math.isclose(value, vec.detail[key],
                                        rel_tol=1e-9, abs_tol=1e-12), \
                        f"{label}: {key}"
            elif op[0] not in ("create", "drop"):
                assert ref.rows_written == vec.rows_written, label
                assert ref.dirty_shards == vec.dirty_shards, label
            if op[0] not in ("create", "drop"):
                assert math.isclose(ref.energy_j, vec.energy_j,
                                    rel_tol=1e-9, abs_tol=1e-15), label
        for name, bits in shadow.items():
            for side, target in (("replay", oracle),
                                 ("service", service)):
                assert np.array_equal(target.column_bits(name), bits), \
                    f"final state of {name!r} diverges on the {side}"
        ref_stats, vec_stats = oracle.stats(), service.stats()
        _assert_ledgers_match(ref_stats, vec_stats, "final ledgers")
        return ref_stats, vec_stats
    finally:
        service.close()
