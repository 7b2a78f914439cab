"""``repro serve`` with the benchmark's layer spans installed.

Usage: ``python perfbench/traced_serve.py SPANS.json serve [options]``.
Spans are kept in memory and written to ``SPANS.json`` on SIGUSR1 (the
benchmark asks before it kills the server) and at exit.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    from tracing import Tracer, install
    from repro.cli import main as repro_main

    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.dump(path))
    atexit.register(tracer.dump, path)
    return repro_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
