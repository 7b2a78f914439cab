"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this package derive from
:class:`ReproError`, so callers can catch the package's failures without
masking genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CircuitError(ReproError):
    """Raised for malformed netlists (unknown nodes, duplicate names, ...)."""


class ConvergenceError(ReproError):
    """Raised when the Newton-Raphson loop fails to converge.

    Attributes
    ----------
    time:
        Simulation time (seconds) at which convergence failed.
    iterations:
        Number of Newton iterations attempted.
    """

    def __init__(self, message: str, *, time: float = float("nan"),
                 iterations: int = 0) -> None:
        super().__init__(message)
        self.time = time
        self.iterations = iterations


class DeviceError(ReproError):
    """Raised for invalid device parameters or state."""


class ProtocolError(ReproError):
    """Raised when a protocol is violated: a mis-specified
    cell-operation protocol, a malformed or oversized binary wire
    frame, or a server response that cannot be serialized to the
    wire format."""


class ArchitectureError(ReproError):
    """Raised for invalid memory-architecture configuration or commands."""


class WorkloadError(ReproError):
    """Raised when a workload is configured or planned inconsistently."""


class QueryError(ReproError):
    """Raised for malformed logic expressions or bad query bindings
    (unknown columns, width mismatches, service misuse)."""


class ThermalError(ReproError):
    """Raised for invalid thermal stacks or non-converging solves."""


class ExperimentError(ReproError):
    """Raised when an experiment driver cannot produce its artefact."""


class WorkerError(QueryError):
    """Raised when a shard worker process dies, hangs or fails a job.

    Attributes
    ----------
    worker:
        Index of the worker (its fixed block of shard rows).
    exitcode:
        The process exit status, negative when a signal ended it
        (``None`` while it is still running, e.g. after a timeout).
    signal:
        The number of the signal that ended the process, or ``None``.
    last_error:
        The last exception text the worker reported, or ``None``.
    """

    def __init__(self, message: str, *, worker: int,
                 exitcode: int | None = None,
                 last_error: str | None = None) -> None:
        super().__init__(message)
        self.worker = worker
        self.exitcode = exitcode
        self.signal = -exitcode if exitcode is not None and exitcode < 0 \
            else None
        self.last_error = last_error


class WorkerSpawnError(WorkerError):
    """Raised when a shard worker dies before it starts serving — for
    example while the spawned child re-imports a ``__main__`` script
    that lacks an ``if __name__ == "__main__":`` guard."""
