"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_mixed --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (a traced run measured next to an untraced one).  The
human-readable report goes first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric
names and units are the ones ``BENCHMARK.json`` lists.  A result that
disagrees with the shadow model exits 1.

The gated metrics are the ones that hold still on a shared host: set-up
time, peak memory, user CPU per op and the simulated energy.  The report
also prints the wall-clock latencies and rates, whose run-to-run spread
follows the host's CPU steal (printed per run), and the metrics that
exist on one or two workloads only.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("serve_mixed", "scan_bulk", "ingest_durable")

#: metrics reported on the workloads they apply to, next to the gated
#: ones (a gated metric must exist and be nonzero on every workload)
REPORT_ONLY_UNITS = {
    "read_p50_ms": "ms", "read_p99_ms": "ms", "write_p50_ms": "ms",
    "write_p99_ms": "ms", "query_rows_per_s": "1/s",
    "match_rows_per_s": "1/s", "program_lanes_per_s": "1/s",
    "max_qps_at_slo": "1/s", "recover_s": "s", "write_amp": "ratio",
    "error_rate": "ratio",
}


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload: str, seed: int, seconds: float, trace: bool,
         profile: dict) -> dict:
    if workload == "scan_bulk":
        from scan_bulk import run_scan
        return run_scan(seed, seconds, trace, profile)
    from served import run_served
    if workload == "serve_mixed":
        from serve_mixed import ServeMixed as cls
    else:
        from ingest_durable import IngestDurable as cls
    return asyncio.run(run_served(cls(seed), seconds, trace, profile))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to the benchmark; run it from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from common import WORK, CheckFailed, adopt_orphans, cpu_ticks, \
        machine_profile, steal_share, stop_children

    spec = _load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    started = time.perf_counter()
    adopt_orphans()
    profile = machine_profile()
    print(f"perfbench {args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    print("machine: " + "  ".join(f"{k}={v}" for k, v in profile.items()))
    ticks = cpu_ticks()
    try:
        result = _run(args.workload, args.seed, args.seconds,
                      bool(args.trace), profile)
        correct = True
    except CheckFailed as exc:
        print(f"CORRECTNESS FAILURE: {exc}")
        result = {"metrics": {}, "attempted": 1, "failed": 1, "report": []}
        correct = False
    finally:
        stop_children()
        shutil.rmtree(WORK, ignore_errors=True)
    for line in result["report"]:
        print(line)
    print(f"  host CPU steal during the run: "
          f"{100 * steal_share(ticks):.1f}% of CPU time")
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_ONLY_UNITS)
    print("metrics:")
    for name, value in metrics.items():
        if not name.startswith("_"):
            print(f"  {name:<28} {value:>16.6g} {units.get(name, '')}")
    print(f"wall time {time.perf_counter() - started:.1f} s")
    out = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if correct and missing:
        print(f"missing metrics: {missing}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
