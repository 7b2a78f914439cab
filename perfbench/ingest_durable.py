"""``ingest_durable``: write-heavy open loop against a durable server.

``repro serve --data-dir`` with the WAL on ``sync=batch`` and automatic
snapshots, a 1Mi-bit table with capacity headroom for appends, 8
columns per tenant over two connections (tenant ``a`` on JSON-lines,
``b`` on REPB).  Overall ~50% ``write_slice`` of 256-4096 bits, 10%
``append_rows`` of 64 rows across all of a tenant's columns, 35%
queries and 5% CAM matches over the columns being written, plus 2%
column pages.  The run ends with kill -9, restarts from the data dir,
and a full read-back of every column against the shadow of the
acknowledged writes.

Only tenant ``a`` appends, so the positions its rows land at are fixed
by its own send order; tenant ``b``'s predicates and keys are false on
an all-zero row, so the zero rows ``a``'s appends add to ``b``'s
columns never change ``b``'s expected counts, whenever they land.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from common import (
    CheckFailed,
    Shadow,
    random_bits,
    random_key,
    random_predicate,
    render,
    zero_value,
    zipf_weights,
)
from loadgen import Conn, Op
from served import TENANTS, WIRES, Server, check_read

N_BITS = 1 << 20
CAPACITY = N_BITS + (1 << 18)
APPEND_ROWS = 64
N_COLS = 8
POOL = 32
RECOVERIES = 3
PAGE = 1 << 20


def _zero_free(tree):
    """The predicate, negated if needed so an all-zero row reads 0."""
    return ("not", tree) if zero_value(tree) else tree


class IngestDurable:
    name = "ingest_durable"
    durable = True
    nominal_qps = 100.0
    nominal_share = 0.55
    slo_ms = 50.0
    rungs = [40.0 * 1.2 ** k for k in range(18)]
    step_s = 1.2

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.cols = [f"c{i}" for i in range(N_COLS)]
        self.initial = [{c: random_bits(self.rng, N_BITS) for c in self.cols}
                        for _ in range(2)]
        fixed = np.random.default_rng(POOL)
        self.pool = [_zero_free(random_predicate(
            fixed, self.cols, int(fixed.integers(1, 4))))
            for _ in range(POOL)]
        self.pool_text = [render(tree) for tree in self.pool]
        # The set-up probe visits the pool in a seed-drawn order.
        self.probe_order = self.rng.permutation(POOL)
        self.weights = zipf_weights(POOL)
        self.probe_writes = [
            (self.cols[i % N_COLS], int(self.rng.integers(0, N_BITS - 256)),
             random_bits(self.rng, 256)) for i in range(8)]
        self.shadow: list[Shadow] = []
        self.planned_bits = N_BITS   # table width after every planned append
        self.payload_bytes = 0

    def server_args(self, data_dir) -> list[str]:
        return ["--bits", str(N_BITS), "--capacity", str(CAPACITY),
                "--data-dir", data_dir, "--wal-sync", "batch"]

    async def setup(self, conns) -> tuple[float, int]:
        self.shadow = [Shadow(N_BITS), Shadow(N_BITS)]
        self.planned_bits = N_BITS
        port = conns[0].writer.get_extra_info("peername")[1]
        for lane, tenant in enumerate(TENANTS):
            # Bulk loads go over a set-up-only binary connection.
            loader = await Conn.open(port, tenant, "binary")
            for col in self.cols:
                bits = self.initial[lane][col]
                self.shadow[lane].add(col, bits)
                response, _ = await loader.call(
                    {"op": "create_column", "name": col}, bits)
                if not response.get("ok"):
                    raise RuntimeError(f"create_column failed: {response}")
            await loader.close()
        energy, rows = 0.0, 0
        for lane, conn in enumerate(conns):
            for col, offset, bits in self.probe_writes:
                response, _ = await conn.call(
                    {"op": "write_slice", "name": col, "offset": offset},
                    bits)
                if not response.get("ok"):
                    raise RuntimeError(f"write_slice failed: {response}")
                energy += response["energy_nj"]
                self.shadow[lane].write_slice(col, offset, bits)
            for index in self.probe_order:
                tree, text = self.pool[index], self.pool_text[index]
                response, _ = await conn.call({"op": "query", "expr": text})
                if response.get("count") != self.shadow[lane].count(tree):
                    raise CheckFailed(f"warm-up {text}: {response}")
                energy += response["energy_nj"]
                rows += N_BITS
        return energy, rows

    # -- op mix --------------------------------------------------------
    def make_lane(self, lane: int, n: int) -> list[Op]:
        rng = self.rng
        ops = []
        for _ in range(n):
            draw = rng.random()
            width = self.planned_bits if lane == 0 else N_BITS
            if draw < 0.5:
                col = self.cols[int(rng.integers(N_COLS))]
                length = int(rng.integers(256, 4097))
                offset = int(rng.integers(0, width - length))
                ops.append(Op("write", "write_slice",
                              {"op": "write_slice", "name": col,
                               "offset": offset},
                              bits=random_bits(rng, length),
                              payload_bytes=length // 8))
            elif draw < 0.7 and lane == 0 and \
                    self.planned_bits + APPEND_ROWS <= CAPACITY:
                self.planned_bits += APPEND_ROWS
                values = {c: random_bits(rng, APPEND_ROWS)
                          for c in self.cols}
                ops.append(Op("write", "append_rows",
                              {"op": "append_rows"}, bits=values,
                              payload_bytes=N_COLS * APPEND_ROWS // 8))
            elif draw < 0.72:
                col = self.cols[int(rng.integers(N_COLS))]
                offset = int(rng.integers(0, width - 1024))
                ops.append(Op("read", "bits",
                              {"op": "bits", "name": col, "offset": offset,
                               "limit": 1024}))
            elif draw < 0.77:
                k = int(rng.integers(3, N_COLS + 1))
                names = [self.cols[i] for i in
                         sorted(rng.choice(N_COLS, k, replace=False))]
                key = random_key(rng, k)
                if "1" not in key:
                    key = "1" + key[1:]
                ops.append(Op("read", "match",
                              {"op": "match", "cols": names, "key": key},
                              expect=("match", names, key)))
            else:
                index = int(rng.choice(POOL, p=self.weights))
                ops.append(Op("read", "query",
                              {"op": "query", "expr": self.pool_text[index]},
                              expect=self.pool[index]))
        return ops

    def on_due(self, lane: int, op: Op) -> None:
        shadow = self.shadow[lane]
        if op.name in ("query", "match"):
            op.rows = shadow.n_bits
            op.expect = shadow.count(op.expect)
        elif op.name == "bits":
            request = op.request
            op.expect = shadow.bits(request["name"], request["offset"],
                                    request["limit"])
        elif op.name == "write_slice":
            shadow.write_slice(op.request["name"], op.request["offset"],
                               op.bits)
            self.payload_bytes += op.payload_bytes
        elif op.name == "append_rows":
            values = op.bits
            shadow.append(values, APPEND_ROWS)
            self.payload_bytes += op.payload_bytes
            if WIRES[lane] == "json":
                op.request = {"op": "append_rows",
                              "values": {c: v.tolist()
                                         for c, v in values.items()}}
                op.bits = None
            else:
                op.request = {"op": "append_rows",
                              "value_names": list(values)}
                op.bits = list(values.values())
            op.expect = shadow.n_bits

    def check(self, op: Op) -> str | None:
        if op.name == "append_rows":
            width = op.response.get("table_bits")
            return None if width == op.expect else \
                f"table width {width} != {op.expect}"
        return check_read(op)

    # -- data dir bytes (write amplification) --------------------------
    def sampler(self, data_dir):
        self.dir_sizes: dict[str, int] = {}
        self.dir_base = dict(_dir_sizes(data_dir))
        self.payload_bytes = 0

        async def poll():
            try:
                while True:
                    self._scan(data_dir)
                    await asyncio.sleep(0.02)
            finally:
                # The phase is over: every write has been acknowledged.
                self._scan(data_dir)
                written = sum(size - self.dir_base.get(name, 0)
                              for name, size in self.dir_sizes.items())
                self.amp = written / self.payload_bytes
        return poll

    def _scan(self, data_dir) -> None:
        """Files are never rewritten in place (the WAL only appends, a
        snapshot is renamed into place whole), so the largest size seen
        per file name is what was written to it."""
        for name, size in _dir_sizes(data_dir):
            if size > self.dir_sizes.get(name, -1):
                self.dir_sizes[name] = size

    # -- crash, recover, read back --------------------------------------
    async def finish(self, server, conns, data_dir, ops, *,
                     traced: bool = False) -> dict:
        """Kill -9, restart from the data dir, check every acknowledged
        write.  Every op has been answered by now (the phases await all
        replies), so the shadow holds exactly the acknowledged state."""
        recover, spans, peak = [], [], 0.0
        rounds = 1 if traced else RECOVERIES
        for k in range(rounds):
            server.sample_rss()
            kill_at = time.perf_counter()
            server.kill()
            server = Server(server.args, traced=traced,
                            tag=f"{self.name}-recovered{k}")
            await server.start()
            conn = await Conn.open(server.port, "a", "binary")
            response, _ = await conn.call({"op": "query",
                                           "expr": self.pool_text[0]})
            recover.append(time.perf_counter() - kill_at)
            if not response.get("ok"):
                raise CheckFailed(f"first query after recovery: {response}")
            await conn.close()
            await self.verify(server.port)
            if traced:
                spans = await server.dump_spans()
            peak = max(peak, server.sample_rss())
        server.stop()
        return {"recover_s": float(np.median(recover)),
                "write_amp": self.amp, "_recovery_spans": spans,
                "_peak_mb": max(peak, server.peak_mb)}

    async def verify(self, port: int) -> None:
        width = self.shadow[0].n_bits
        for lane, tenant in enumerate(TENANTS):
            conn = await Conn.open(port, tenant, "binary")
            try:
                for col in self.cols:
                    got = []
                    for offset in range(0, width, PAGE):
                        response, bits = await conn.call(
                            {"op": "bits", "name": col, "offset": offset,
                             "limit": min(PAGE, width - offset)})
                        if not response.get("ok"):
                            raise CheckFailed(f"read-back {tenant}/{col}: "
                                              f"{response}")
                        got.append(np.asarray(bits, np.uint8))
                    got = np.concatenate(got)
                    shadow = self.shadow[lane]
                    expect = shadow.bits(col, 0, shadow.n_bits)
                    if got.size != width or not np.array_equal(
                            got[:expect.size], expect) or \
                            got[expect.size:].any():
                        raise CheckFailed(
                            f"after recovery {tenant}/{col} differs from "
                            f"the acknowledged writes")
            finally:
                await conn.close()


def _dir_sizes(path: str):
    for entry in os.scandir(path):
        if entry.name.startswith(("wal-", "snap-")) and \
                entry.name.endswith((".log", ".snap")):
            try:
                yield entry.name, entry.stat().st_size
            except FileNotFoundError:
                pass
