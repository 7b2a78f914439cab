"""Bulk-bitwise analytics service: sharded columns, compiled queries,
batched execution, per-query cost attribution and result caching.

One execution path answers every query and program: the columnar
plan-vectorized executor.  The table lives in a
:class:`~repro.service.columnstore.ColumnStore` as packed
``(n_shards, words_per_shard)`` uint64 matrices, compiled plans lower
once to register-machine bytecode, and each plan runs as a tiled pass
of whole-matrix numpy kernels (all shards at once, GIL released).
Energy/cycle/primitive accounting is computed in closed form from the
plan's probed charge events (:func:`~repro.arch.primitives.plan_stats`)
and is pinned bit- and Stats-exact against a per-shard
:class:`~repro.arch.engine.BulkEngine` replay in the test suite.  With
``workers=N`` the same store allocates its matrices in shared memory,
and large plans scatter to pinned worker processes
(:mod:`repro.service.shard_workers`) that each execute their own block
of shard rows and return only popcounts.  Mutations write dirty words
in place under the table write lock; query batches and programs hold
its read side while they run.

The serving stack on top is async and multi-tenant: an asyncio
JSON-lines TCP server (:class:`QueryServer`) funnels every
connection through a central :class:`RequestScheduler` that coalesces
concurrent queries into vector batches, admission-controls and
fair-schedules per tenant (:mod:`repro.service.tenancy`), and
serializes column mutations (``update_column`` / ``write_slice`` /
``append_rows``) as barriers.  Mutations charge TBA-write / restore
energy per dirty row and query reads accrue QNRO disturb-scrub costs
(:class:`repro.arch.writeback.ScrubAccountant`); the result cache is
dependency-indexed, so a mutation only evicts the plans that read the
mutated column.

Durability (:mod:`repro.service.durability`): a checksummed
write-ahead log records every mutation barrier and tenant-state delta
before it applies, periodic snapshots pack the whole store + tenant
state into one generation file, and :func:`recover_service` replays
the log for bit-exact recovery on restart.  A :class:`FaultInjector`
arms deterministic faults (torn WAL tails, failed fsyncs, slow or
failing batches) for chaos testing, and the scheduler degrades
gracefully under per-request timeouts.
"""

from repro.service.columnstore import ColumnStore
from repro.service.durability import (
    DurabilityManager,
    FaultInjector,
    InjectedFault,
    recover_service,
)
from repro.service.scheduler import (
    AdmissionError,
    RequestScheduler,
    ShuttingDownError,
)
from repro.service.server import (
    QueryServer,
    mutation_payload,
    result_payload,
    run_repl,
    serve_tcp,
)
from repro.service.service import (
    BitwiseService,
    MutationResult,
    ProgramResult,
    QueryResult,
    StatementStats,
)
from repro.service.shard_workers import WorkerPool
from repro.service.tenancy import TenantState, TenantView

__all__ = [
    "AdmissionError",
    "BitwiseService",
    "ColumnStore",
    "DurabilityManager",
    "FaultInjector",
    "InjectedFault",
    "MutationResult",
    "ProgramResult",
    "QueryResult",
    "QueryServer",
    "RequestScheduler",
    "ShuttingDownError",
    "StatementStats",
    "WorkerPool",
    "TenantState",
    "TenantView",
    "mutation_payload",
    "recover_service",
    "result_payload",
    "run_repl",
    "serve_tcp",
]
