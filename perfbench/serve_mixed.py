"""``serve_mixed``: open-loop mixed traffic against ``repro serve``.

Default server config, a 64Ki-bit table, 8 columns per tenant, two
connections: tenant ``a`` on JSON-lines, tenant ``b`` on REPB frames.
Per connection: ~78% queries drawn Zipf-wise from a fixed predicate
pool, 2% column ``bits`` pages (checks the writes landed), 5% CAM
``match`` with fresh ternary keys, 15% 256-bit ``write_slice`` on the
columns the queries read.  Kernels are tiny at this size, so the wire,
dispatch, scheduler, plan/result cache and charging dominate.
"""

from __future__ import annotations

import numpy as np

from common import (
    CheckFailed,
    Shadow,
    random_bits,
    random_key,
    random_predicate,
    render,
    zipf_weights,
)
from loadgen import Op
from served import check_read

N_BITS = 1 << 16
N_COLS = 8
POOL = 48
NOMINAL_QPS = 400.0
SLO_MS = 25.0
RUNGS = [100.0 * 1.2 ** k for k in range(21)]


class ServeMixed:
    name = "serve_mixed"
    durable = False
    nominal_qps = NOMINAL_QPS
    #: share of the timed window spent at the nominal rate; the rest
    #: searches the rate ladder
    nominal_share = 0.5
    slo_ms = SLO_MS
    rungs = RUNGS
    step_s = 1.2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.cols = [f"c{i}" for i in range(N_COLS)]
        # Inputs are drawn once per seed; every set-up loads the same.
        self.initial = {t: {c: random_bits(self.rng, N_BITS)
                            for c in self.cols} for t in range(2)}
        # The predicate pool is part of the workload, not of the seed.
        fixed = np.random.default_rng(POOL)
        self.pool = [random_predicate(fixed, self.cols,
                                      int(fixed.integers(1, 4)))
                     for _ in range(POOL)]
        self.probe_writes = [
            (self.cols[i % N_COLS], int(self.rng.integers(0, N_BITS - 256)),
             random_bits(self.rng, 256)) for i in range(8)]
        self.pool_text = [render(tree) for tree in self.pool]
        # The set-up probe visits the pool in a seed-drawn order.
        self.probe_order = self.rng.permutation(POOL)
        self.weights = zipf_weights(POOL)
        self.shadow: list[Shadow] = []
        self.memo: list[dict] = []

    def server_args(self, data_dir=None) -> list[str]:
        return ["--bits", str(N_BITS)]

    async def setup(self, conns) -> tuple[float, int]:
        self.shadow = []
        self.memo = [{}, {}]
        for lane, conn in enumerate(conns):
            shadow = Shadow(N_BITS)
            for col in self.cols:
                bits = self.initial[lane][col]
                shadow.add(col, bits)
                response, _ = await conn.call(
                    {"op": "create_column", "name": col}, bits)
                if not response.get("ok"):
                    raise RuntimeError(f"create_column failed: {response}")
            self.shadow.append(shadow)
        # Warm-up / energy probe: a few writes, then every pool plan once
        # per tenant, in a fixed order and one request at a time
        # (deterministic state).  The probe is the workload's energy per
        # row answered; it must repeat exactly for a seed.
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
                expect = self.shadow[lane].count(tree)
                if response.get("count") != expect:
                    raise CheckFailed(
                        f"warm-up {text}: {response} != {expect}")
                energy += response["energy_nj"]
                rows += N_BITS
        return energy, rows

    def sampler(self, data_dir):
        return None

    async def finish(self, server, conns, data_dir, ops, *,
                     traced: bool = False) -> dict:
        return {}

    def make_lane(self, lane: int, n: int) -> list[Op]:
        rng = self.rng
        ops = []
        for _ in range(n):
            draw = rng.random()
            if draw < 0.78:
                index = int(rng.choice(POOL, p=self.weights))
                ops.append(Op("read", "query",
                              {"op": "query", "expr": self.pool_text[index]},
                              expect=("q", index), rows=N_BITS))
            elif draw < 0.80:
                col = self.cols[int(rng.integers(N_COLS))]
                offset = int(rng.integers(0, N_BITS - 1024))
                ops.append(Op("read", "bits",
                              {"op": "bits", "name": col, "offset": offset,
                               "limit": 1024}, expect=("bits",)))
            elif draw < 0.85:
                width = int(rng.integers(3, N_COLS + 1))
                cols = sorted(rng.choice(N_COLS, width, replace=False))
                names = [self.cols[i] for i in cols]
                key = random_key(rng, width)
                ops.append(Op("read", "match",
                              {"op": "match", "cols": names, "key": key},
                              expect=("match", ("match", names, key)),
                              rows=N_BITS))
            else:
                col = self.cols[int(rng.integers(N_COLS))]
                offset = int(rng.integers(0, N_BITS - 256))
                bits = random_bits(rng, 256)
                ops.append(Op("write", "write_slice",
                              {"op": "write_slice", "name": col,
                               "offset": offset}, bits=bits,
                              payload_bytes=32))
        return ops

    def on_due(self, lane: int, op: Op) -> None:
        shadow, memo = self.shadow[lane], self.memo[lane]
        if op.name == "query":
            index = op.expect[1]
            if index not in memo:
                memo[index] = shadow.count(self.pool[index])
            op.expect = memo[index]
        elif op.name == "match":
            op.expect = shadow.count(op.expect[1])
        elif op.name == "bits":
            request = op.request
            op.expect = shadow.bits(request["name"], request["offset"],
                                    request["limit"])
        elif op.name == "write_slice":
            shadow.write_slice(op.request["name"], op.request["offset"],
                               op.bits)
            memo.clear()

    def check(self, op: Op) -> str | None:
        return check_read(op)
