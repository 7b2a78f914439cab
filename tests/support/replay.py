"""Engine-replay oracle: the ground truth the service is pinned against.

:class:`EngineReplay` keeps the table the way the modelled hardware
does: one :class:`~repro.arch.engine.BulkEngine` per word-aligned shard
(the service's :func:`shard_spans` geometry), each column an
engine-resident vector.  Plans replay command by command on every
shard, so bits come from the engines' functional model and costs from
their per-command charges, with complement flags and FeRAM control
counters evolving as the engines dictate.  Mutations rewrite the shard
payloads and diff old against new word by word; dirty rows and query
reads feed a :class:`~repro.arch.writeback.ScrubAccountant`.

There is no cache, tenancy, durability, scheduler or thread pool:
drive it with exactly the operations the service executed, in order.
"""

from __future__ import annotations

from functools import reduce
from types import SimpleNamespace

import numpy as np

from repro.arch.bank import pack_bits
from repro.arch.commands import Stats
from repro.arch.expr import compile_expr
from repro.arch.primitives import default_spec, make_engine
from repro.arch.program import CompiledProgram, compile_program
from repro.arch.writeback import ScrubAccountant
from repro.service.columnstore import WORD_BITS, shard_spans


def dirty_word_indices(old_bits: np.ndarray, new_bits: np.ndarray,
                       lo: int, hi: int) -> np.ndarray:
    """Indices of 64-bit words whose value differs inside ``[lo, hi)``
    of two full-width flat 0/1 arrays (identical data dirties none)."""
    lo_w, hi_w = lo // WORD_BITS, -(-hi // WORD_BITS)
    span = slice(lo_w * WORD_BITS, min(hi_w * WORD_BITS, old_bits.size))
    changed = np.zeros((hi_w - lo_w) * WORD_BITS, dtype=bool)
    changed[: span.stop - span.start] = old_bits[span] != new_bits[span]
    return lo_w + np.flatnonzero(changed.reshape(-1, WORD_BITS).any(1))


class EngineReplay:
    """Per-shard engine replay of the service's table operations."""

    def __init__(self, technology: str = "feram-2tnc", *, n_bits: int,
                 n_shards: int = 4, functional: bool = True,
                 spec=None, capacity: int | None = None) -> None:
        self.functional = functional
        self.n_bits = int(n_bits)
        self.capacity = int(capacity or n_bits)
        self._spec = spec or default_spec(technology)
        # span: [start, stop) bits of the table
        self._shards = [
            SimpleNamespace(
                engine=make_engine(technology, functional=functional,
                                   spec=spec),
                span=span, n_bits=span[1] - span[0], columns={},
                anchor=None)
            for span in shard_spans(self.capacity, n_shards)]
        self.n_shards = len(self._shards)
        row_bits = self._spec.row_bits
        self._writeback = ScrubAccountant(
            self._spec, [-(-shard.n_bits // row_bits)
                         for shard in self._shards])
        self._inverting = self._shards[0].engine._native_inverting()

    def create_column(self, name: str, bits=None) -> None:
        if self.functional:
            padded = np.zeros(self.capacity, dtype=np.uint8)
            padded[: self.n_bits] = bits
        for shard in self._shards:
            start, stop = shard.span
            if self.functional:
                vec = shard.engine.load(padded[start:stop], name,
                                        group_with=shard.anchor)
            else:
                vec = shard.engine.allocate(stop - start, name,
                                            group_with=shard.anchor)
            shard.anchor = shard.anchor or vec
            shard.columns[name] = vec

    def drop_column(self, name: str) -> None:
        for shard in self._shards:
            vec = shard.columns.pop(name)
            shard.engine.free(vec)
            if shard.anchor is vec:
                shard.anchor = next(iter(shard.columns.values()), None)
        self._writeback.forget(name)

    def column_bits(self, name: str) -> np.ndarray:
        return np.concatenate([
            shard.columns[name].logical_bits()[: shard.n_bits]
            for shard in self._shards])[: self.n_bits]

    def update_column(self, name: str, bits=None) -> SimpleNamespace:
        return self.write_slice(
            name, 0, bits if self.functional else self.n_bits)

    def write_slice(self, name: str, offset: int,
                    bits) -> SimpleNamespace:
        return self._charge({name: self._write(name, offset, bits)})

    def append_rows(self, values=None,
                    n: int | None = None) -> SimpleNamespace:
        values = dict(values or {})
        if n is None:
            n = len(next(iter(values.values())))
        old_n = self.n_bits
        self.n_bits += n
        written = {name: self._write(name, old_n,
                                     bits if self.functional else n)
                   for name, bits in values.items()}
        self._plain(self._shards[0].columns)
        return self._charge(written)

    def _charge(self, written: dict) -> SimpleNamespace:
        """Charge each column's dirty rows per shard; sum the result."""
        total, rows = Stats(), [0] * self.n_shards
        for name, shard_rows in written.items():
            total.iadd(self._writeback.note_write(name, shard_rows))
            rows = [a + b for a, b in zip(rows, shard_rows)]
        return SimpleNamespace(
            rows_written=sum(rows), dirty_shards=sum(map(bool, rows)),
            energy_j=total.total_energy_j, cycles=total.total_cycles)

    def _write(self, name: str, offset: int, bits) -> list[int]:
        """Overlay ``bits`` at ``offset`` in the plain encoding; returns
        dirty rows per shard.  In counting mode ``bits`` is a count and
        every row the span touches is dirty."""
        self._plain([name])
        if not self.functional:
            end = offset + int(bits)
            return self._rows(range(offset // WORD_BITS,
                                    -(-end // WORD_BITS)))
        old = self.column_bits(name)
        new = old.copy()
        new[offset:offset + len(bits)] = bits
        padded = np.zeros(self.capacity, dtype=np.uint8)
        padded[: new.size] = new
        row_bits = self._spec.row_bits
        for shard in self._shards:
            vec = shard.columns[name]
            grid = np.zeros(vec.n_rows * row_bits, dtype=np.uint8)
            grid[: shard.n_bits] = padded[shard.span[0]:shard.span[1]]
            vec.payload = pack_bits(grid, row_bits)
        return self._rows(dirty_word_indices(old, new, offset,
                                             offset + len(bits)))

    def _rows(self, words) -> list[int]:
        """Distinct rows per shard that hold the given global words."""
        dirty: list[set] = [set() for _ in self._shards]
        for word in words:
            bit = int(word) * WORD_BITS
            for rows, shard in zip(dirty, self._shards):
                if shard.span[0] <= bit < shard.span[1]:
                    rows.add((bit - shard.span[0])
                             // self._spec.row_bits)
        return [len(rows) for rows in dirty]

    def _plain(self, names) -> None:
        """Re-encode columns to the plain (non-complemented) polarity."""
        for shard in self._shards:
            for name in names:
                vec = shard.columns[name]
                if vec.complemented:
                    if vec.payload is not None:
                        vec.payload = ~vec.payload
                    vec.complemented = False

    def query(self, query, colmap=None) -> SimpleNamespace:
        """Replay one query plan on every shard; reads accrue disturb.

        ``colmap`` maps the query's column names to stored ones (a
        tenant's physical names); unmapped names are used as is."""
        plan = compile_expr(query, inverting=self._inverting)
        colmap = {col: (colmap or {}).get(col, col) for col in plan.cols}
        delta, parts = Stats(), []
        for shard in self._shards:
            before = shard.engine.stats.copy()
            vec = plan.run(shard.engine, {col: shard.columns[colmap[col]]
                                          for col in plan.cols},
                           n_bits=shard.n_bits)
            if self.functional:
                parts.append(vec.logical_bits()[: shard.n_bits])
            shard.engine.free(vec)
            delta.iadd(shard.engine.stats.minus(before))
        for col in plan.cols:
            self._writeback.note_read(colmap[col])
        bits = np.concatenate(parts)[: self.n_bits] if parts else None
        return SimpleNamespace(
            bits=bits, count=None if bits is None else int(bits.sum()),
            cycles=delta.total_cycles, energy_j=delta.total_energy_j,
            detail=delta.summary(), primitives_per_row=plan.primitives)

    def run_program(self, program, colmap=None) -> SimpleNamespace:
        """Replay every statement on every shard, in program order
        (``colmap`` as for :meth:`query`)."""
        cprog = program if isinstance(program, CompiledProgram) else \
            compile_program(program, inverting=self._inverting)
        colmap = {col: (colmap or {}).get(col, col) for col in cprog.cols}
        per_stmt = [Stats() for _ in cprog.stmt_plans]
        parts: dict = {name: [] for name in cprog.program.outputs}
        for shard in self._shards:
            vectors, deltas = cprog.run(
                shard.engine, {col: shard.columns[colmap[col]]
                               for col in cprog.cols},
                n_bits=shard.n_bits)
            for target, delta in zip(per_stmt, deltas):
                target.iadd(delta)
            if self.functional:
                for name, vec in vectors.items():
                    parts[name].append(vec.logical_bits()[: shard.n_bits])
            shard.engine.free(*vectors.values())
        shadowed: set[str] = set()
        for name, plan in cprog.stmt_plans:
            for col in set(plan.cols) - shadowed:
                self._writeback.note_read(colmap[col])
            shadowed.add(name)
        outputs = {name: np.concatenate(chunks)[: self.n_bits]
                   for name, chunks in parts.items()} \
            if self.functional else None
        total = reduce(Stats.iadd, per_stmt, Stats())
        return SimpleNamespace(
            outputs=outputs, counts=outputs and {
                name: int(bits.sum()) for name, bits in outputs.items()},
            statements=[SimpleNamespace(index=index, name=name,
                                        stats=stats)
                        for index, ((name, _), stats) in enumerate(
                            zip(cprog.stmt_plans, per_stmt))],
            cycles=total.total_cycles, energy_j=total.total_energy_j,
            primitives_per_row=cprog.primitives)

    def stats(self) -> dict:
        """Engine ledgers merged over shards, plus the write-back one."""
        ledger = reduce(Stats.iadd, (shard.engine.stats
                                     for shard in self._shards), Stats())
        return {
            "rows_used": sum(shard.engine.allocator.rows_used
                             for shard in self._shards),
            "cycles_total": ledger.total_cycles,
            "energy_total_nj": ledger.total_energy_j * 1e9,
            "writeback": self._writeback.summary(),
        }
