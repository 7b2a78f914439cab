"""Shared helpers: statistics, process memory, machine profile, and the
numpy shadow model every workload checks its results against.

The shadow model is deliberately independent of ``repro``: columns are
packed little-endian uint64 words (bit *i* of a column is bit ``i % 64``
of word ``i // 64``), predicates are small tuple trees evaluated with
plain numpy bitwise kernels, and mutations are applied in the order the
benchmark sends them.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for data dirs and span files; inside the checkout
WORK = os.path.join(ROOT, ".perfbench_work")

ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class CheckFailed(Exception):
    """A result disagreed with the shadow model."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def pct(values, q: float) -> float:
    """Percentile ``q`` (0-100) by linear interpolation; nan if empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else float("nan")


def tail_label(n: int) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if n < 20:
        return "none"
    return f"p{100.0 * (1.0 - 10.0 / n):.2f}"


# ----------------------------------------------------------------------
# process memory
# ----------------------------------------------------------------------
def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children(pid: int) -> list[int]:
    """Direct child pids of ``pid`` (reads /proc)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``): a grandchild whose parent was killed,
    such as a server's helper, stays this process's to stop and wait
    for.  A no-op where ``prctl`` is missing."""
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_children() -> None:
    """Stop every process this one started and wait for each to end.

    The multiprocessing resource tracker, which outlives the shard
    workers, is stopped through its own pipe first so that it unlinks
    any shared-memory segment left behind.  Whatever still runs after
    that is killed; the loop ends when no child (adopted orphans too)
    is left.
    """
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        try:
            tracker._stop()
        except (OSError, ChildProcessError):
            pass
    while True:
        for pid in children(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def user_cpu_seconds(pids) -> float:
    """User-mode CPU time of the given processes, in seconds.

    What the program computed, not what the host made it wait: unlike
    wall time it does not grow with CPU steal on a shared host.  System
    time is left out because it is mostly the kernel's I/O path (fsync,
    sockets), whose cost here varies run to run with the host's disk.
    """
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                total += int(handle.read().rsplit(")", 1)[1].split()[11])
        except OSError:
            continue
    return total / os.sysconf("SC_CLK_TCK")


def thread_user_cpu() -> float:
    """User-mode CPU time of the calling thread, in seconds."""
    return resource.getrusage(resource.RUSAGE_THREAD).ru_utime


class Stopwatch:
    """Wall time and this thread's user CPU summed over ``with`` blocks."""

    def __init__(self) -> None:
        self.wall = self.cpu = 0.0

    def __enter__(self) -> "Stopwatch":
        self._wall, self._cpu = time.perf_counter(), thread_user_cpu()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall += time.perf_counter() - self._wall
        self.cpu += thread_user_cpu() - self._cpu


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of ``pid`` plus its child processes."""
    total = _status_kb(pid, "VmHWM")
    for child in children(pid):
        total += _status_kb(child, "VmHWM")
    return total / 1024.0


# ----------------------------------------------------------------------
# machine profile
# ----------------------------------------------------------------------
def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks so far, from /proc/stat."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before: tuple[int, int]) -> float:
    """Share of CPU time the host took from this machine since
    ``before``: latency tails here follow it."""
    steal, total = cpu_ticks()
    return (steal - before[0]) / max(1, total - before[1])


def memcpy_gbps(nbytes: int = 2 << 20, repeats: int = 200) -> float:
    """Copy bandwidth on a column-sized buffer, counting bytes read plus
    bytes written (the same convention as the kernel byte counts)."""
    src = np.ones(nbytes // 8, dtype=np.uint64)
    dst = np.empty_like(src)
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(repeats // 7 + 1):
            np.copyto(dst, src)
        samples.append((time.perf_counter() - start) / (repeats // 7 + 1))
    return 2 * nbytes / median(samples) / 1e9


def machine_profile() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "memcpy_gbps": round(memcpy_gbps(), 3),
    }


# ----------------------------------------------------------------------
# shadow model
# ----------------------------------------------------------------------
def pack(bits: np.ndarray) -> np.ndarray:
    """0/1 array -> word-padded little-endian uint64 words."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    pad = (-packed.size) % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
    return packed.view(np.uint64).copy()


def unpack(words: np.ndarray, n_bits: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), count=n_bits,
                         bitorder="little")


def random_bits(rng: np.random.Generator, n: int,
                density: float = 0.5) -> np.ndarray:
    return (rng.random(n) < density).astype(np.uint8)


def page(words: np.ndarray, offset: int, limit: int) -> np.ndarray:
    """Bits ``[offset, offset + limit)`` of a packed column."""
    lo, hi = offset // 64, (offset + limit + 63) // 64
    bits = unpack(words[lo:hi], (hi - lo) * 64)
    start = offset - lo * 64
    return bits[start:start + limit]


class Shadow:
    """Packed numpy model of one table's columns."""

    def __init__(self, n_bits: int) -> None:
        self.n_bits = int(n_bits)
        self.cols: dict[str, np.ndarray] = {}

    def _words(self) -> int:
        return (self.n_bits + 63) // 64

    def _tail_mask(self) -> np.ndarray:
        mask = np.full(self._words(), ALL_ONES, dtype=np.uint64)
        rem = self.n_bits % 64
        if rem:
            mask[-1] = np.uint64((1 << rem) - 1)
        return mask

    def add(self, name: str, bits: np.ndarray) -> None:
        self.cols[name] = pack(bits)

    def add_words(self, name: str, words: np.ndarray) -> None:
        self.cols[name] = words

    def bits(self, name: str, offset: int, limit: int) -> np.ndarray:
        return page(self.cols[name], offset, limit)

    def write_slice(self, name: str, offset: int, bits: np.ndarray) -> None:
        lo, hi = offset // 64, (offset + bits.size + 63) // 64
        words = self.cols[name]
        span = unpack(words[lo:hi], (hi - lo) * 64)
        start = offset - lo * 64
        span[start:start + bits.size] = bits
        words[lo:hi] = pack(span)

    def append(self, values: dict[str, np.ndarray], n: int) -> None:
        """Grow every column by ``n`` rows; unnamed columns zero-fill."""
        old = self.n_bits
        self.n_bits += n
        for name, words in self.cols.items():
            grown = np.zeros(self._words(), dtype=np.uint64)
            grown[:words.size] = words
            self.cols[name] = grown
            if name in values:
                self.write_slice(name, old, values[name])

    def eval(self, tree) -> np.ndarray:
        """Evaluate a predicate tree to packed words (tail bits masked)."""
        return self._eval(tree) & self._tail_mask()

    def _eval(self, tree) -> np.ndarray:
        op = tree[0]
        if op == "col":
            return self.cols[tree[1]]
        if op == "not":
            return ~self._eval(tree[1])
        if op == "match":
            out = np.full(self._words(), ALL_ONES, dtype=np.uint64)
            for name, key in zip(tree[1], tree[2]):
                if key == "1":
                    out &= self.cols[name]
                elif key == "0":
                    out &= ~self.cols[name]
            return out
        left, right = self._eval(tree[1]), self._eval(tree[2])
        if op == "and":
            return left & right
        if op == "or":
            return left | right
        return left ^ right

    def count(self, tree) -> int:
        return int(np.bitwise_count(self.eval(tree)).sum())


def render(tree) -> str:
    """Predicate tree -> query text in the service's expression syntax."""
    op = tree[0]
    if op == "col":
        return tree[1]
    if op == "not":
        return f"~{render(tree[1])}"
    if op == "match":
        return f"match({', '.join(tree[1])}, 0b{tree[2]})"
    symbol = {"and": "&", "or": "|", "xor": "^"}[op]
    return f"({render(tree[1])} {symbol} {render(tree[2])})"


def zero_value(tree) -> int:
    """The predicate's value on an all-zero row."""
    op = tree[0]
    if op == "col":
        return 0
    if op == "not":
        return 1 - zero_value(tree[1])
    if op == "match":
        return int(all(key != "1" for key in tree[2]))
    left, right = zero_value(tree[1]), zero_value(tree[2])
    return {"and": left & right, "or": left | right,
            "xor": left ^ right}[op]


def random_predicate(rng: np.random.Generator, cols: list[str],
                     depth: int, *, full: bool = False) -> tuple:
    """A random and/or/xor/not tree of the given depth over ``cols``;
    ``full`` makes every leaf sit at that depth (a fixed shape, so every
    draw costs about the same)."""
    if depth == 0:
        leaf = ("col", cols[int(rng.integers(len(cols)))])
        return ("not", leaf) if rng.random() < 0.3 else leaf
    op = ("and", "or", "xor")[int(rng.integers(3))]
    short = 0 if full or depth == 1 else int(rng.random() < 0.4)
    tree = (op, random_predicate(rng, cols, depth - 1, full=full),
            random_predicate(rng, cols, depth - 1 - short, full=full))
    return ("not", tree) if rng.random() < 0.15 else tree


def random_key(rng: np.random.Generator, width: int,
               dont_cares: int | None = None) -> str:
    """A ternary CAM key: '0'/'1' per column, 'x' for don't-care (each
    position with probability 0.3, or exactly ``dont_cares`` of them)."""
    key = [str(int(rng.integers(2))) for _ in range(width)]
    if dont_cares is None:
        spots = [i for i in range(width) if rng.random() < 0.3]
    else:
        spots = rng.choice(width, dont_cares, replace=False)
    for i in spots:
        key[i] = "x"
    return "".join(key)


def zipf_weights(n: int, s: float = 1.1) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** s
    return weights / weights.sum()
