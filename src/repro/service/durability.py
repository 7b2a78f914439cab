"""Durability layer: write-ahead log, snapshots, and crash recovery.

The served table is modelled on *non-volatile* 2T-nC FeRAM — persistence
is the substrate's defining property — so the serving stack treats
durable state as a first-class guarantee rather than an accident of
process lifetime.  Three pieces cooperate:

* :class:`WriteAheadLog` — an append-only log of length-prefixed,
  CRC32-checksummed records.  Each record body is one REPB frame
  (:mod:`repro.service.wire`): compact-JSON metadata plus the mutation's
  bit payload packed 64 bits per little-endian word.  Every mutation
  barrier (``create_column`` / ``drop_column`` / ``update_column`` /
  ``write_slice`` / ``append_rows``) and tenant-state delta (quota
  config, per-batch energy/disturb charges) is logged **before** it is
  applied and before the scheduler acknowledges it.  A torn or
  corrupt tail frame (short write, bad CRC) is detected on replay and
  discarded — the log is truncated back to its last valid record.

* snapshots — one file per generation holding the full durable state:
  service geometry, packed column payloads (same word packing as the
  wire), tenant states, column complement flags, TBA offsets, the
  compute ledger and the write-back accountant.  Snapshots are written
  to a temp file, fsynced, then atomically renamed; a partial snapshot
  (crash mid-write, bad CRC) is ignored in favor of the previous
  generation.  After each snapshot the WAL rotates to a fresh
  generation and the obsolete files are retired.

* :func:`recover_service` — rebuilds a :class:`~repro.service.service.
  BitwiseService` from a data directory: load the newest valid
  snapshot, replay its WAL through the real service methods (mutation
  replay recomputes dirty rows, write-back charges and tenant energy
  deterministically — bit- and Stats-exact against an uninterrupted
  run), then attach the manager so new traffic keeps logging.

Replay exactness
----------------
Mutations are logged as *logical operations* with their input bits;
replaying them through the service reproduces every derived charge
(dirty-row diffs, TBA-write energy, tenant quota spend, cache
invalidation) because the cost model is closed-form and deterministic.
Query execution also advances durable accounting state (compute
ledger, column flags, TBA offsets, read-disturb counters, tenant
energy), so each executed (cache-miss) batch appends one compact
``charges`` record; cache hits charge nothing and log nothing, keeping
steady-state WAL traffic negligible.

The :class:`FaultInjector` arms deterministic faults at named points
(``wal.fsync``, ``wal.torn``, ``snapshot.write``, ``batch.exec``,
``batch.delay``, ``exclusive.exec``, ``exclusive.delay``,
``wal.append``) for chaos tests, configurable from the CLI
(``--inject``) or the ``REPRO_FAULTS`` environment variable.
"""

from __future__ import annotations

import os
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.arch.commands import CommandType, Stats
from repro.errors import ProtocolError, QueryError, ReproError
from repro.service.wire import (
    HEADER_SIZE,
    KIND_REQUEST,
    KIND_RESPONSE,
    decode_frame,
    decode_header,
    encode_frame,
)

__all__ = [
    "DurabilityManager", "FaultInjector", "InjectedFault",
    "WriteAheadLog", "read_wal", "read_snapshot", "write_snapshot",
    "recover_service", "stats_to_dict", "stats_from_dict",
]

#: per-record prefix: body length (u32 LE) + CRC32 of the body (u32 LE)
_RECORD = struct.Struct("<II")
#: WAL file preamble — distinguishes a log from arbitrary bytes
WAL_FILE_MAGIC = b"REPWAL01"
#: snapshot preamble + <crc32, body_len> header over the frame body
SNAP_FILE_MAGIC = b"REPSNAP1"
_SNAP_HEAD = struct.Struct("<IQ")

_GEN_RE = re.compile(r"(?:snap|wal)-(\d{8})\.(?:snap|log)$")

_SYNC_MODES = ("always", "batch", "none")


# ----------------------------------------------------------------------
# Stats (de)serialization — exact: JSON floats round-trip via repr
# ----------------------------------------------------------------------
def stats_to_dict(stats: Stats) -> dict:
    """JSON-safe, lossless encoding of a :class:`Stats` ledger."""
    return {
        "energy_j": {str(k): float(v)
                     for k, v in stats.energy_j.items()},
        "cycles": {str(k): int(v) for k, v in stats.cycles.items()},
        "counts": {ctype.value: int(n)
                   for ctype, n in stats.counts.items()},
        "staging_aaps": int(stats.staging_aaps),
        "relocation_acps": int(stats.relocation_acps),
        "control_rewrites": int(stats.control_rewrites),
    }


def stats_from_dict(data: dict) -> Stats:
    """Inverse of :func:`stats_to_dict`."""
    stats = Stats()
    stats.energy_j = {str(k): float(v)
                      for k, v in data["energy_j"].items()}
    stats.cycles = {str(k): int(v) for k, v in data["cycles"].items()}
    stats.counts = {CommandType(k): int(v)
                    for k, v in data["counts"].items()}
    stats.staging_aaps = int(data["staging_aaps"])
    stats.relocation_acps = int(data["relocation_acps"])
    stats.control_rewrites = int(data["control_rewrites"])
    return stats


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class InjectedFault(ReproError):
    """An armed :class:`FaultInjector` point fired.

    ``crash=True`` marks faults that simulate the process dying
    mid-write (torn WAL tail, partial snapshot): cleanup/rollback is
    intentionally skipped, exactly as a real crash would leave things.
    """

    def __init__(self, message: str, *, point: str = "",
                 crash: bool = False) -> None:
        super().__init__(message)
        self.point = point
        self.crash = crash


@dataclass
class _Arm:
    after: int = 0          #: skip this many firings first
    times: int = 1          #: then fire this many times (-1 = forever)
    param: float | None = None  #: point-specific (delay s, torn bytes)


class FaultInjector:
    """Deterministic, point-addressed fault arming for chaos tests.

    Known points::

        wal.append       raise before a WAL record is written
        wal.fsync        raise instead of the WAL fsync
        wal.torn         write a truncated record, then "crash"
        snapshot.write   write half the snapshot temp file, then "crash"
        batch.exec       raise inside a scheduler query batch
        batch.delay      sleep ``param`` seconds inside a batch
        exclusive.exec   raise inside a mutation barrier op
        exclusive.delay  sleep ``param`` seconds inside a barrier op

    Spec strings (CLI ``--inject`` / env ``REPRO_FAULTS``) are comma-
    separated entries ``point[:key=value]*`` with keys ``after``,
    ``times`` and ``param``, e.g. ``"wal.fsync:after=3"`` or
    ``"batch.delay:param=0.05:times=2,wal.torn:after=10"``.
    """

    POINTS = ("wal.append", "wal.fsync", "wal.torn", "snapshot.write",
              "batch.exec", "batch.delay", "exclusive.exec",
              "exclusive.delay")

    def __init__(self) -> None:
        self._arms: dict[str, _Arm] = {}
        self._lock = threading.Lock()
        #: point -> times it actually fired
        self.fired: dict[str, int] = {}

    def arm(self, point: str, *, after: int = 0, times: int = 1,
            param: float | None = None) -> "FaultInjector":
        if point not in self.POINTS:
            raise QueryError(
                f"unknown fault point {point!r} "
                f"(known: {', '.join(self.POINTS)})")
        with self._lock:
            self._arms[point] = _Arm(int(after), int(times), param)
        return self

    def disarm(self, point: str | None = None) -> None:
        with self._lock:
            if point is None:
                self._arms.clear()
            else:
                self._arms.pop(point, None)

    def fires(self, point: str) -> _Arm | None:
        """Consume one firing of ``point`` if armed and due."""
        with self._lock:
            arm = self._arms.get(point)
            if arm is None:
                return None
            if arm.after > 0:
                arm.after -= 1
                return None
            if arm.times == 0:
                return None
            if arm.times > 0:
                arm.times -= 1
            self.fired[point] = self.fired.get(point, 0) + 1
            return arm

    def check(self, point: str, *, crash: bool = False) -> None:
        """Raise :class:`InjectedFault` if ``point`` fires."""
        if self.fires(point) is not None:
            raise InjectedFault(f"injected fault at {point}",
                                point=point, crash=crash)

    def delay(self, point: str) -> None:
        """Sleep the armed duration if ``point`` fires."""
        arm = self.fires(point)
        if arm is not None:
            time.sleep(arm.param if arm.param is not None else 0.05)

    @classmethod
    def from_spec(cls, spec: str | None) -> "FaultInjector | None":
        """Parse ``point[:key=val]*[,...]``; None/empty -> None."""
        if not spec:
            return None
        injector = cls()
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            point, *options = entry.split(":")
            kwargs: dict = {}
            for option in options:
                key, _, value = option.partition("=")
                key = key.strip()
                if key not in ("after", "times", "param"):
                    raise QueryError(
                        f"unknown fault option {key!r} in {entry!r}")
                kwargs[key] = float(value) if key == "param" \
                    else int(value)
            injector.arm(point.strip(), **kwargs)
        return injector


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------
def read_wal(path) -> tuple[list[tuple[dict, object]], int, bool]:
    """Decode a WAL file -> ``(records, valid_bytes, torn_tail)``.

    ``records`` is a list of ``(meta, bits)`` in append order; replay
    stops at the first short/corrupt record — everything from there on
    is untrusted (a crash mid-append) and reported via ``torn_tail``.
    A missing file is an empty log.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0, False
    if not data:
        return [], 0, False
    if not data.startswith(WAL_FILE_MAGIC):
        return [], 0, True  # not a log we wrote: treat as all-torn
    records: list[tuple[dict, object]] = []
    offset = len(WAL_FILE_MAGIC)
    while offset < len(data):
        if offset + _RECORD.size > len(data):
            return records, offset, True
        body_len, crc = _RECORD.unpack_from(data, offset)
        body = data[offset + _RECORD.size:
                    offset + _RECORD.size + body_len]
        if len(body) < body_len or zlib.crc32(body) != crc:
            return records, offset, True
        try:
            header = decode_header(body[:HEADER_SIZE])
            meta_end = HEADER_SIZE + header.meta_len
            meta, bits = decode_frame(
                header, body[HEADER_SIZE:meta_end], body[meta_end:])
        except ProtocolError:
            return records, offset, True
        records.append((meta, bits))
        offset += _RECORD.size + body_len
    return records, offset, False


class WriteAheadLog:
    """Append-only, checksummed record log (one file, one generation).

    ``sync`` policy: ``"always"`` fsyncs every commit; ``"batch"``
    (default) fsyncs mutation barriers but only flushes per-batch
    accounting records; ``"none"`` never fsyncs (tests/benchmarks).
    A barrier append may pass ``defer_sync=True`` to skip its own
    fsync — the scheduler group-commits a round of mutations under
    one :meth:`flush` that way, acknowledging none of them before
    the whole group is on disk.  Record syncs use ``fdatasync``
    where available (POSIX guarantees the size metadata needed to
    retrieve appended data is flushed with it).
    Appends are single ``os.write`` calls of the whole record, so a
    crash can only tear the *tail* record — exactly what the CRC scan
    discards on recovery.  A failed append/fsync is rolled back by
    truncating to the pre-record offset unless the failure simulates a
    crash (:class:`InjectedFault` with ``crash=True``).
    """

    def __init__(self, path, *, sync: str = "batch",
                 injector: FaultInjector | None = None) -> None:
        if sync not in _SYNC_MODES:
            raise QueryError(
                f"unknown WAL sync mode {sync!r} "
                f"(expected one of {_SYNC_MODES})")
        self.path = Path(path)
        self.sync = sync
        self.injector = injector
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        _, valid, _ = read_wal(self.path)
        self._fd = os.open(self.path,
                           os.O_RDWR | os.O_CREAT, 0o644)
        if valid == 0:
            os.ftruncate(self._fd, 0)
            os.write(self._fd, WAL_FILE_MAGIC)
            self._offset = len(WAL_FILE_MAGIC)
            if sync != "none":
                os.fsync(self._fd)
        else:
            # Discard any torn tail left by a previous crash.
            os.ftruncate(self._fd, valid)
            os.lseek(self._fd, valid, os.SEEK_SET)
            self._offset = valid
        #: everything up to this offset is known to be on disk; a
        #: flush racing concurrent appends compares offsets instead
        #: of a dirty flag, so it can never mark unsynced bytes clean
        self._synced = self._offset
        self._sync_lock = threading.Lock()
        self._closed = False

    @property
    def offset(self) -> int:
        return self._offset

    def append(self, meta: dict, bits=None, *,
               barrier: bool = True, defer_sync: bool = False) -> None:
        """Append one record; fsync per the sync policy.

        ``defer_sync`` suppresses the ``"batch"``-mode barrier fsync
        (group commit — the caller flushes once for the whole group);
        ``"always"`` still syncs every record.
        """
        body = encode_frame(KIND_REQUEST, meta, bits)
        blob = _RECORD.pack(len(body), zlib.crc32(body)) + body
        injector = self.injector
        if injector is not None:
            injector.check("wal.append")
            arm = injector.fires("wal.torn")
            if arm is not None:
                # Simulate a crash mid-append: a prefix of the record
                # reaches the disk, then the process "dies" — no
                # rollback, the torn tail stays for recovery to find.
                keep = int(arm.param) if arm.param else \
                    max(1, len(blob) // 2)
                os.write(self._fd, blob[:keep])
                self._offset += keep
                raise InjectedFault("injected torn WAL tail",
                                    point="wal.torn", crash=True)
        os.write(self._fd, blob)
        self._offset += len(blob)
        self.records_appended += 1
        self.bytes_appended += len(blob)
        if self.sync == "always" or (barrier and self.sync == "batch"
                                     and not defer_sync):
            self._fsync()

    def _fsync(self) -> None:
        if self.injector is not None:
            self.injector.check("wal.fsync")
        with self._sync_lock:
            if self._closed:
                return  # close() already synced everything it had
            target = self._offset
            if target <= self._synced:
                return
            # fdatasync: POSIX flushes the size metadata needed to
            # read the appended records back, skips the rest (mtime)
            getattr(os, "fdatasync", os.fsync)(self._fd)
            self.fsyncs += 1
            if target > self._synced:
                self._synced = target

    def flush(self) -> None:
        """Force outstanding records to disk (unless sync="none").

        Safe to call from a background committer while other threads
        keep appending: the sync covers at least every record written
        before the call, and anything it misses stays marked unsynced
        for the next flush."""
        if self.sync != "none" and not self._closed:
            self._fsync()

    def truncate_to(self, offset: int) -> None:
        """Roll back to a pre-append offset (failed commit)."""
        os.ftruncate(self._fd, offset)
        os.lseek(self._fd, offset, os.SEEK_SET)
        self._offset = offset
        if self._synced > offset:
            self._synced = offset

    def close(self) -> None:
        with self._sync_lock:
            if self._closed:
                return
            self._closed = True
            try:
                if self.sync != "none" and self._offset > self._synced:
                    os.fsync(self._fd)
                    self._synced = self._offset
            except OSError:
                pass
            os.close(self._fd)


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
def write_snapshot(path, meta: dict, columns: dict, *,
                   injector: FaultInjector | None = None) -> None:
    """Atomically write one snapshot generation.

    The body is a sequence of REPB frames — a state frame followed by
    one frame per column (payload packed 64 bits/word) — prefixed by a
    magic + CRC32 + length header.  Written to ``<path>.tmp``, fsynced,
    then renamed into place (directory fsynced), so a crash can never
    leave a *partial* file under the final name; a corrupt body is
    caught by the CRC on load either way.
    """
    path = Path(path)
    frames = [encode_frame(KIND_RESPONSE, {"snapshot": meta})]
    for name in sorted(columns):
        frames.append(encode_frame(KIND_RESPONSE, {"column": name},
                                   columns[name]))
    body = b"".join(frames)
    blob = SNAP_FILE_MAGIC + \
        _SNAP_HEAD.pack(zlib.crc32(body), len(body)) + body
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        if injector is not None and \
                injector.fires("snapshot.write") is not None:
            os.write(fd, blob[: max(1, len(blob) // 2)])
            raise InjectedFault("injected partial snapshot",
                                point="snapshot.write", crash=True)
        os.write(fd, blob)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_snapshot(path) -> tuple[dict, dict]:
    """Load a snapshot -> ``(state_meta, {column: bits})``.

    Raises :class:`ProtocolError` on a partial or corrupt file — the
    caller falls back to the previous generation.
    """
    path = Path(path)
    data = path.read_bytes()
    head_end = len(SNAP_FILE_MAGIC) + _SNAP_HEAD.size
    if len(data) < head_end or not data.startswith(SNAP_FILE_MAGIC):
        raise ProtocolError(f"{path.name}: not a snapshot file")
    crc, body_len = _SNAP_HEAD.unpack_from(data, len(SNAP_FILE_MAGIC))
    body = data[head_end:head_end + body_len]
    if len(body) != body_len or zlib.crc32(body) != crc:
        raise ProtocolError(f"{path.name}: partial or corrupt snapshot")
    meta: dict | None = None
    columns: dict[str, np.ndarray] = {}
    offset = 0
    while offset < len(body):
        header = decode_header(body[offset:offset + HEADER_SIZE])
        meta_end = offset + HEADER_SIZE + header.meta_len
        frame_meta, bits = decode_frame(
            header, body[offset + HEADER_SIZE:meta_end],
            body[meta_end:meta_end + header.payload_bytes])
        if "snapshot" in frame_meta:
            meta = frame_meta["snapshot"]
        elif "column" in frame_meta:
            columns[frame_meta["column"]] = bits
        offset = meta_end + header.payload_bytes
    if meta is None:
        raise ProtocolError(f"{path.name}: snapshot has no state frame")
    return meta, columns


# ----------------------------------------------------------------------
# the manager: generations, rotation, logging
# ----------------------------------------------------------------------
class DurabilityManager:
    """Owns one data directory: WAL generations plus snapshots.

    Layout: ``snap-<gen>.snap`` is the base state of generation
    ``gen``; ``wal-<gen>.log`` holds every record since.  Generation 0
    has no snapshot (empty base).  A snapshot advances the generation:
    write ``snap-<gen+1>``, rotate to a fresh ``wal-<gen+1>``, retire
    everything older than the *previous* generation (kept as a
    last-resort fallback against on-disk corruption of the newest
    snapshot).
    """

    def __init__(self, data_dir, *, snapshot_every: int | None = 256,
                 sync: str = "batch",
                 injector: FaultInjector | None = None) -> None:
        if sync not in _SYNC_MODES:
            raise QueryError(
                f"unknown WAL sync mode {sync!r} "
                f"(expected one of {_SYNC_MODES})")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        self.sync = sync
        self.injector = injector
        #: True while recovery replays the WAL (suppresses re-logging)
        self.replaying = False
        self.generation: int = 0
        self._wal: WriteAheadLog | None = None
        self.snapshots_written = 0
        self.mutations_since_snapshot = 0
        self.last_recovery: dict | None = None
        #: open group-commit count: while positive, barrier records
        #: defer their fsync to a group's flush (a counter, not a
        #: flag — a round's background flush may still be pending
        #: when the next round opens its own group)
        self._group = 0
        self._lock = threading.RLock()

    # -- paths ---------------------------------------------------------
    def snap_path(self, generation: int) -> Path:
        return self.data_dir / f"snap-{generation:08d}.snap"

    def wal_path(self, generation: int) -> Path:
        return self.data_dir / f"wal-{generation:08d}.log"

    def generations(self) -> list[int]:
        """Generation numbers present in the data dir (ascending)."""
        found = set()
        for entry in self.data_dir.iterdir():
            match = _GEN_RE.match(entry.name)
            if match:
                found.add(int(match.group(1)))
        return sorted(found)

    # -- recovery ------------------------------------------------------
    def load_base(self) -> tuple[int, dict | None, dict, list, bool]:
        """Pick the newest valid generation and read its WAL.

        Returns ``(generation, snapshot_meta_or_None, columns,
        wal_records, torn_tail)``.  A partial/corrupt snapshot is
        skipped in favor of the previous generation; generation 0
        needs no snapshot (empty base).
        """
        for generation in sorted(self.generations(), reverse=True) \
                or [0]:
            snap = self.snap_path(generation)
            if snap.exists():
                try:
                    meta, columns = read_snapshot(snap)
                except (ProtocolError, OSError):
                    continue  # partial snapshot: previous generation
            elif generation == 0:
                meta, columns = None, {}
            else:
                continue  # wal without snapshot: rotation crash relic
            records, _, torn = read_wal(self.wal_path(generation))
            return generation, meta, columns, records, torn
        return 0, None, {}, [], False

    def open(self, generation: int) -> None:
        """Open (or create) the WAL of ``generation`` for appending;
        a torn tail from a previous crash is truncated away."""
        with self._lock:
            if self._wal is not None:
                self._wal.close()
            self.generation = int(generation)
            self._wal = WriteAheadLog(self.wal_path(self.generation),
                                      sync=self.sync,
                                      injector=self.injector)

    # -- logging -------------------------------------------------------
    def log(self, meta: dict, bits=None, *, barrier: bool = True,
            ) -> None:
        """Append one record ahead of applying its state change.

        A clean append/fsync failure rolls the file back to the
        pre-record offset (the op will be rejected, so its record must
        not survive for replay); a ``crash=True`` injected fault keeps
        the torn bytes, exactly like a real mid-write crash.
        """
        if self.replaying or self._wal is None:
            return
        with self._lock:
            start = self._wal.offset
            try:
                self._wal.append(meta, bits, barrier=barrier,
                                 defer_sync=self._group > 0)
            except InjectedFault as exc:
                if not exc.crash:
                    self._wal.truncate_to(start)
                raise
            except OSError:
                try:
                    self._wal.truncate_to(start)
                except OSError:
                    pass
                raise
        if barrier:
            self.mutations_since_snapshot += 1

    # -- group commit --------------------------------------------------
    def begin_group(self) -> None:
        """Defer barrier fsyncs until :meth:`commit_group`.

        Group commit for one scheduler round of mutations: every
        record is still written *before* its op applies (the WAL-
        before-apply invariant holds record by record), but the round
        shares a single fsync — no op may be acknowledged until
        :meth:`commit_group` returns."""
        with self._lock:
            self._group += 1

    def commit_group(self) -> None:
        """Flush one deferred group to disk (see commit_groups)."""
        self.commit_groups(1)

    def commit_groups(self, n: int = 1) -> None:
        """Flush ``n`` deferred groups under a single fsync.

        Raises if the sync fails — the caller must then withhold the
        acknowledgment of *every* op in those groups, since none of
        them is durable.  The fsync itself runs outside the manager
        lock, so appends from later rounds (which open their own
        groups) proceed while this flush is in flight; the flush
        covers at least every record appended before the call."""
        with self._lock:
            self._group = max(0, self._group - n)
            wal = self._wal
        if wal is not None:
            wal.flush()

    def bootstrap_needed(self) -> bool:
        """True for a brand-new generation-0 log: the first record
        must describe the service geometry, so a crash before the
        first snapshot still recovers with just the data dir."""
        return self.generation == 0 and self._wal is not None \
            and self._wal.offset == len(WAL_FILE_MAGIC)

    def snapshot_due(self) -> bool:
        return bool(self.snapshot_every) and \
            self.mutations_since_snapshot >= self.snapshot_every

    def write_snapshot(self, meta: dict, columns: dict) -> int:
        """Write the next generation's snapshot and rotate the WAL.

        Caller must hand a consistent state (the service holds its
        table + stats locks).  Returns the new generation."""
        with self._lock:
            generation = self.generation + 1
            write_snapshot(self.snap_path(generation), meta, columns,
                           injector=self.injector)
            old = self._wal
            self._wal = WriteAheadLog(self.wal_path(generation),
                                      sync=self.sync,
                                      injector=self.injector)
            self.generation = generation
            if old is not None:
                old.close()
            self.snapshots_written += 1
            self.mutations_since_snapshot = 0
            self._retire(keep={generation, generation - 1})
            return generation

    def _retire(self, keep: set[int]) -> None:
        for generation in self.generations():
            if generation in keep:
                continue
            for path in (self.snap_path(generation),
                         self.wal_path(generation)):
                try:
                    path.unlink()
                except OSError:
                    pass

    # -- lifecycle / introspection -------------------------------------
    def flush(self) -> None:
        with self._lock:
            if self._wal is not None:
                self._wal.flush()

    def close(self) -> None:
        with self._lock:
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    def stats(self) -> dict:
        wal = self._wal
        return {
            "data_dir": str(self.data_dir),
            "generation": self.generation,
            "sync": self.sync,
            "snapshot_every": self.snapshot_every,
            "snapshots_written": self.snapshots_written,
            "mutations_since_snapshot": self.mutations_since_snapshot,
            "wal_records": wal.records_appended if wal else 0,
            "wal_bytes": wal.bytes_appended if wal else 0,
            "wal_fsyncs": wal.fsyncs if wal else 0,
            "last_recovery": self.last_recovery,
        }


# ----------------------------------------------------------------------
# service state restore + WAL replay
# ----------------------------------------------------------------------
def _restore_state(service, meta: dict, columns: dict) -> None:
    """Install snapshot state directly (no re-charging: the ledgers
    come from the snapshot, not from replaying the initial loads)."""
    from repro.service.tenancy import TenantState

    for physical in sorted(columns):
        service._store.add(physical, columns[physical])
    service._columns = {physical: int(width)
                        for physical, width in meta["columns"].items()}
    service._col_flags = {physical: bool(flag)
                          for physical, flag
                          in meta["col_flags"].items()}
    service._tba_offsets = [int(x) for x in meta["tba_offsets"]]
    service._rows_used = int(meta["rows_used"])
    service._ledger = stats_from_dict(meta["ledger"])
    writeback = meta["writeback"]
    accountant = service._writeback
    accountant._reads = {column: [int(x) for x in counters]
                         for column, counters
                         in writeback["reads"].items()}
    accountant.reads_noted = int(writeback["reads_noted"])
    accountant.rows_written = int(writeback["rows_written"])
    accountant.scrubs = int(writeback["scrubs"])
    accountant.scrub_rows = int(writeback["scrub_rows"])
    accountant.write_energy_j = float(writeback["write_energy_j"])
    accountant.scrub_energy_j = float(writeback["scrub_energy_j"])
    accountant.stats = stats_from_dict(writeback["stats"])
    tenants: dict = {}
    for record in meta["tenants"]:
        state = TenantState(
            record["name"],
            quota_bits=record["quota_bits"],
            quota_energy_nj=record["quota_energy_nj"],
            cache_entries=record["cache_entries"],
            max_pending=record["max_pending"])
        state.columns = dict(record["columns"])
        state.energy_spent_nj = float(record["energy_spent_nj"])
        tenants[state.name] = state
    if None not in tenants:
        tenants[None] = TenantState(None)
    service._tenants = tenants
    counters = meta.get("counters", {})
    service.queries_served = int(counters.get("queries_served", 0))
    service.programs_run = int(counters.get("programs_run", 0))
    service.mutations_applied = int(
        counters.get("mutations_applied", 0))


def _apply_charges(service, meta: dict) -> None:
    """Replay one per-batch accounting record.

    Per-tenant energy charges and per-column disturb reads re-run the
    exact live operations (same float ops in the same per-tenant
    order); flags/TBA/ledger land as the logged post-batch values."""
    with service._stats_lock:
        for item in meta["items"]:
            for physical in item["cols"]:
                service._writeback.note_read(physical)
            service.tenant_state(item["tenant"]).charge_energy(
                item["energy_j"])
        for physical, flag in meta["flags"].items():
            if physical in service._col_flags:
                service._col_flags[physical] = bool(flag)
        service._tba_offsets[:] = [int(x) for x in meta["tba"]]
        service._ledger.iadd(stats_from_dict(meta["ledger"]))


def _apply_record(service, meta: dict, bits) -> None:
    """Replay one WAL record through the real service methods."""
    kind = meta.get("kind")
    tenant = meta.get("tenant")
    if kind == "create":
        service.create_column(meta["name"], bits, tenant=tenant)
    elif kind == "drop":
        service.drop_column(meta["name"], tenant=tenant)
    elif kind == "update":
        service.update_column(meta["name"], bits, tenant=tenant)
    elif kind == "write_slice":
        service.write_slice(meta["name"], int(meta["offset"]), bits,
                            tenant=tenant)
    elif kind == "append":
        names = meta.get("names") or []
        segments = bits if isinstance(bits, list) else \
            ([bits] if bits is not None else [])
        values = dict(zip(names, segments))
        service.append_rows(values or None, int(meta["n"]),
                            tenant=tenant)
    elif kind == "tenant":
        service.register_tenant(
            meta["name"],
            quota_bits=meta.get("quota_bits"),
            quota_energy_nj=meta.get("quota_energy_nj"),
            cache_entries=meta.get("cache_entries"),
            max_pending=meta.get("max_pending"))
    elif kind == "charges":
        _apply_charges(service, meta)
    elif kind == "geometry":
        pass  # consumed before the service was built
    else:
        raise ProtocolError(f"unknown WAL record kind {kind!r}")


def recover_service(data_dir, *, technology: str = "feram-2tnc",
                    n_bits: int | None = None, n_shards: int = 4,
                    capacity: int | None = None,
                    snapshot_every: int | None = 256,
                    sync: str = "batch",
                    injector: FaultInjector | None = None,
                    **service_kwargs):
    """Rebuild a durable :class:`BitwiseService` from ``data_dir``.

    With existing state the snapshot's geometry wins (``technology`` /
    ``n_bits`` / ``n_shards`` / ``capacity`` are the fresh-directory
    defaults); extra keywords (``cache_size``, ``fuse``, ``workers``,
    ...) configure the new process either way.  The WAL replays
    through the real service methods — recomputing every derived
    charge deterministically — then the manager attaches so new
    traffic keeps logging.  The service runs in functional mode on
    the default spec of the stored technology.
    """
    from repro.service.service import BitwiseService

    start = time.perf_counter()
    manager = DurabilityManager(data_dir, snapshot_every=snapshot_every,
                                sync=sync, injector=injector)
    generation, meta, columns, records, torn = manager.load_base()
    if meta is not None:
        service = BitwiseService(
            meta["technology"], n_bits=int(meta["n_bits"]),
            n_shards=int(meta["n_shards"]),
            capacity=int(meta["capacity"]),
            functional=True, **service_kwargs)
        _restore_state(service, meta, columns)
    else:
        # Generation 0 has no snapshot; its first WAL record carries
        # the geometry the service was created with.
        if records and records[0][0].get("kind") == "geometry":
            geometry = records[0][0]
            technology = geometry["technology"]
            n_bits = int(geometry["n_bits"])
            n_shards = int(geometry["n_shards"])
            capacity = int(geometry["capacity"])
        if n_bits is None:
            raise QueryError(
                "fresh data dir: recover_service needs n_bits=")
        service = BitwiseService(
            technology, n_bits=n_bits, n_shards=n_shards,
            capacity=capacity, functional=True, **service_kwargs)
    manager.replaying = True
    try:
        for record_meta, bits in records:
            _apply_record(service, record_meta, bits)
    finally:
        manager.replaying = False
    manager.open(generation)
    service.attach_durability(manager)
    manager.last_recovery = {
        "generation": generation,
        "snapshot": meta is not None,
        "records_replayed": len(records),
        "torn_tail_discarded": bool(torn),
        "elapsed_s": time.perf_counter() - start,
    }
    return service
