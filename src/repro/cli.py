"""Command-line entry point: ``python -m repro``.

Four modes:

* ``python -m repro [experiment-id ...|all]`` — run paper experiments
  (no arguments lists the registry);
* ``python -m repro query "<expr>" [options]`` — one-shot compiled
  query over generated columns, with compiled-vs-naive primitive
  counts;
* ``python -m repro workload <name|all> [options]`` — run a dataflow
  workload (BNN, CRC8, XOR cipher, masked init) as a multi-statement
  program on the service, with verification and per-statement cost
  attribution;
* ``python -m repro serve [options]`` — start the bulk-bitwise query
  service as an interactive console or (``--port``) a JSON-lines TCP
  server;
* ``python -m repro explore [options]`` — closed-form design-space
  sweep over the component registry's geometry/technology knobs,
  reporting energy/area Pareto fronts.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["main"]

_USAGE = """\
usage: python -m repro <experiment-id ...|all>
       python -m repro query "<expr>" [--tech T] [--shards N] [--bits N]
       python -m repro workload <name|all> [--tech T] [--bytes N]
       python -m repro serve [--tech T] [--shards N] [--bits N] [--port P]
       python -m repro explore [--tech T] [--feature NM ...] [--json]
"""


def _service_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, add_help=True)
    parser.add_argument("--tech", default="feram-2tnc",
                        choices=("feram-2tnc", "dram"),
                        help="memory technology (default: feram-2tnc)")
    parser.add_argument("--shards", type=int, default=4,
                        help="engine shards (default: 4)")
    parser.add_argument("--bits", type=int, default=1 << 20,
                        help="table width in bits (default: 1Mi)")
    parser.add_argument("--counting", action="store_true",
                        help="counting mode (no payloads; GB-scale)")
    parser.add_argument("--capacity", type=int, default=None,
                        help="physical table width; rows can be "
                             "appended up to this (default: --bits)")
    parser.add_argument("--workers", type=int, default=None,
                        help="shard-worker processes over a shared-"
                             "memory column store; >1 scatters each "
                             "large plan's row blocks across pinned "
                             "processes (default: 1, serial "
                             "in-process execution)")
    parser.add_argument("--no-fuse", action="store_true",
                        help="disable the peephole fuser on vector "
                             "programs (run the unfused bytecode)")
    return parser


def _cmd_query(argv: list[str]) -> int:
    parser = _service_parser("repro query")
    parser.add_argument("expr", help="query, e.g. '(a & b) | ~c'")
    parser.add_argument("--density", type=float, default=0.3,
                        help="1-density of generated columns")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    args = parser.parse_args(argv)

    from repro.arch.expr import parse
    from repro.service import BitwiseService
    from repro.service.server import result_payload

    expr = parse(args.expr)
    with BitwiseService(args.tech, n_bits=args.bits,
                        n_shards=args.shards,
                        functional=not args.counting,
                        capacity=args.capacity,
                        fuse=not args.no_fuse,
                        workers=args.workers) as service:
        for index, name in enumerate(expr.cols()):
            service.random_column(name, args.density,
                                  seed=args.seed + index)
        result = service.query(expr)
        payload = result_payload(result)
        payload["query"] = args.expr
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"query     : {args.expr}")
            print(f"tech      : {args.tech}  "
                  f"({args.bits} bits x {result.shards} shards)")
            if result.count is not None:
                print(f"hits      : {result.count}")
            print(f"primitives: {result.primitives_per_row}/row compiled "
                  f"vs {result.naive_primitives_per_row}/row naive chain")
            print(f"energy    : {result.energy_j * 1e9:.1f} nJ   "
                  f"cycles: {result.cycles}")
    return 0


def _cmd_workload(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="repro workload", add_help=True)
    parser.add_argument("name",
                        help="bnn | crc8 | xor_cipher | masked_init "
                             "| all")
    parser.add_argument("--tech", default="feram-2tnc",
                        choices=("feram-2tnc", "dram"),
                        help="memory technology (default: feram-2tnc)")
    parser.add_argument("--bytes", type=int, default=1 << 20,
                        help="workload data size (default: 1 MiB)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--counting", action="store_true",
                        help="counting mode (no payloads; GB-scale)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-statement", action="store_true",
                        help="print the per-statement cost attribution")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    args = parser.parse_args(argv)

    from repro.workloads import PROGRAM_WORKLOADS, run_workload

    names = sorted(PROGRAM_WORKLOADS) if args.name == "all" \
        else [args.name]
    for name in names:
        run = run_workload(
            name, n_bytes=args.bytes, technology=args.tech,
            n_shards=args.shards,
            functional=not args.counting, seed=args.seed)
        payload = {
            "workload": run.workload,
            "technology": run.technology,
            "lanes": run.n_lanes,
            "statements": run.statements,
            "verified": run.verified,
            "energy_nj": run.energy_j * 1e9,
            "energy_per_lane_nj": run.energy_per_lane_nj,
            "cycles": run.cycles,
            "elapsed_s": run.elapsed_s,
            "lanes_per_s": run.lanes_per_s,
        }
        if args.json:
            if args.per_statement:
                payload["per_statement"] = [
                    {"index": s.index, "name": s.name,
                     "query": s.query, "energy_nj": s.energy_j * 1e9,
                     "cycles": s.cycles}
                    for s in run.result.statements
                ]
            print(json.dumps(payload, indent=2))
            if run.verified is False:
                return 1
            continue
        print(f"workload  : {run.workload}  ({run.technology})")
        print(f"lanes     : {run.n_lanes}  "
              f"({run.statements} program statements)")
        if run.verified is not None:
            print(f"verified  : {run.verified}")
        print(f"energy    : {run.energy_j * 1e9:.1f} nJ   "
              f"({run.energy_per_lane_nj:.3f} nJ/lane)")
        print(f"cycles    : {run.cycles}")
        print(f"throughput: {run.lanes_per_s / 1e6:.1f} M lanes/s "
              f"({run.elapsed_s * 1e3:.2f} ms)")
        if args.per_statement:
            print(f"{'#':>5} {'name':<14}{'cycles':>9}{'nJ':>12}  query")
            for s in run.result.statements:
                print(f"{s.index:>5} {s.name:<14}{s.cycles:>9}"
                      f"{s.energy_j * 1e9:>12.1f}  {s.query}")
        if run.verified is False:
            return 1
        if len(names) > 1:
            print()
    return 0


def _cmd_serve(argv: list[str]) -> int:
    parser = _service_parser("repro serve")
    parser.add_argument("--port", type=int, default=None,
                        help="serve JSON-lines over TCP on this port")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--batch-window-ms", type=float, default=1.0,
                        help="scheduler batching window: concurrent "
                             "queries arriving within it coalesce "
                             "into one vector batch (default: 1 ms)")
    parser.add_argument("--max-batch", type=int, default=128,
                        help="max queries per coalesced batch")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="per-tenant admission limit (in-flight "
                             "requests; override per tenant via "
                             "register_tenant)")
    parser.add_argument("--data-dir", default=None,
                        help="durable state directory: recover the "
                             "store/tenants from its snapshot + WAL "
                             "on startup, log every mutation barrier "
                             "before acknowledging it")
    parser.add_argument("--snapshot-every", type=int, default=256,
                        help="mutation barriers between automatic "
                             "snapshots (0 = only on shutdown; "
                             "default: 256)")
    parser.add_argument("--wal-sync", default="batch",
                        choices=("always", "batch", "none"),
                        help="WAL fsync policy: every record / "
                             "mutation barriers only (default) / "
                             "never (tests, benchmarks)")
    parser.add_argument("--request-timeout-ms", type=float,
                        default=None,
                        help="per-batch executor deadline; a slow "
                             "batch errors out, the connection and "
                             "co-tenants survive (default: off)")
    parser.add_argument("--inject", default=None,
                        help="fault-injection spec, e.g. "
                             "'wal.fsync:after=3,batch.delay:"
                             "param=0.05' (env: REPRO_FAULTS)")
    args = parser.parse_args(argv)

    import os
    import signal

    from repro.service import (
        BitwiseService,
        FaultInjector,
        run_repl,
        serve_tcp,
    )
    from repro.service.durability import recover_service

    injector = FaultInjector.from_spec(
        args.inject or os.environ.get("REPRO_FAULTS"))
    if args.data_dir is not None:
        if args.counting:
            parser.error("--data-dir requires functional mode "
                         "(drop --counting)")
        service = recover_service(
            args.data_dir, technology=args.tech, n_bits=args.bits,
            n_shards=args.shards, capacity=args.capacity,
            snapshot_every=args.snapshot_every or None,
            sync=args.wal_sync, injector=injector,
            fuse=not args.no_fuse, workers=args.workers)
        recovery = service.durability.last_recovery
        print(f"recovered from {args.data_dir}: "
              f"generation {recovery['generation']}, "
              f"{recovery['records_replayed']} WAL records replayed"
              + (", torn tail discarded"
                 if recovery['torn_tail_discarded'] else "")
              + f" ({recovery['elapsed_s'] * 1e3:.0f} ms)")
    else:
        service = BitwiseService(args.tech, n_bits=args.bits,
                                 n_shards=args.shards,
                                 functional=not args.counting,
                                 capacity=args.capacity,
                                 fuse=not args.no_fuse,
                                 workers=args.workers)
    with service:
        if args.port is None:
            try:
                return run_repl(service)
            finally:
                if service.durability is not None:
                    service.checkpoint()
        server = serve_tcp(
            service, args.port, args.host,
            batch_window_s=args.batch_window_ms / 1e3,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            request_timeout_s=(args.request_timeout_ms / 1e3
                               if args.request_timeout_ms else None),
            injector=injector)
        host, port = server.server_address[:2]
        print(f"serving bulk-bitwise queries on {host}:{port} "
              f"({args.tech}, {args.bits} bits x "
              f"{service.n_shards} shards, "
              f"{args.batch_window_ms:g} ms batch window"
              + (f", durable in {args.data_dir}"
                 if args.data_dir else "") + ")")

        # SIGTERM/SIGINT drain in-flight batches, flush the WAL,
        # write a final snapshot, and notify connections with a
        # typed shutting_down error (server_close does all four).
        def _graceful(signum, frame):
            server.shutdown()

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _graceful)
            except (ValueError, OSError):
                pass  # not the main thread / unsupported platform
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            for signum, handler in previous.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):
                    pass
            server.shutdown()
            server.server_close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "query":
        return _cmd_query(args[1:])
    if args and args[0] == "workload":
        return _cmd_workload(args[1:])
    if args and args[0] == "serve":
        return _cmd_serve(args[1:])
    if args and args[0] == "explore":
        from repro.explore import main as explore_main
        return explore_main(args[1:])
    if not args:
        print(_USAGE, end="")
        print("available experiments:")
        for experiment_id in EXPERIMENTS:
            print(f"  {experiment_id}")
        return 0
    ids = list(EXPERIMENTS) if args == ["all"] else args
    failed = 0
    for experiment_id in ids:
        report = run_experiment(experiment_id)
        print(report.format())
        print()
        if not report.passed:
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
