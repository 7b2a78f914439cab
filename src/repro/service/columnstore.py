"""Columnar packed-word storage for the vectorized query executor.

Where a per-shard engine model keeps every column as engine-resident
:class:`~repro.arch.bank.BitVector` handles, the service's executor
holds each named column as **one contiguous packed-``uint64``
matrix** of shape ``(n_shards, words_per_shard)``.  A compiled query
then advances *all* shards together: each plan step is a single
``np.bitwise_*(..., out=)`` kernel over the whole 2-D matrix — no
per-shard Python dispatch, and numpy releases the GIL for the duration
of every kernel.

Matrices come from one of two allocators, chosen at construction: the
heap, or named shared-memory segments (:class:`SegmentArena`) that
shard-worker processes map zero-copy.  Either way the store has one
write model: :meth:`ColumnStore.write` packs only the words a slice
covers and stores the ones that differ **in place**, so a write costs
O(words covered), not O(table width); :meth:`ColumnStore.read` unpacks
only the words a page covers.  Programs only ever *read* column
matrices (their kernels write tile-sized scratch slots and the
outputs), and the owning service serializes ``write``/``resize``
against running queries with its table readers/writer lock.

Shard geometry is word-aligned (:func:`shard_spans`) and shared with
the engine-replay oracle the test suite pins the executor against, so
results sliced per shard are bit-for-bit comparable.  Rows beyond a shard's valid span are zero in
column matrices and masked out of reductions (executors apply the
precomputed validity mask, :attr:`ColumnStore.mask`), so padding
garbage produced by NOT-like kernels never leaks into counts or
readouts.
"""

from __future__ import annotations

import bisect
import itertools
import os
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.errors import QueryError

__all__ = ["ColumnStore", "PackedBits", "SegmentArena",
           "shard_spans", "popcount_words"]

WORD_BITS = 64

#: distinguishes this service's segments in /dev/shm (tests assert no
#: ``repb*`` entries leak past close or process exit)
SEGMENT_PREFIX = "repb"
_ARENA_SEQ = itertools.count()


def shard_spans(n_bits: int, n_shards: int) -> list[tuple[int, int]]:
    """Word-aligned contiguous shard spans covering ``n_bits``.

    Widths below ``64 * n_shards`` use fewer shards (one word is the
    minimum shard); spans differ by at most one word.
    """
    n_words = (n_bits + WORD_BITS - 1) // WORD_BITS
    n_shards = min(n_shards, n_words)
    base, extra = divmod(n_words, n_shards)
    spans = []
    start = 0
    for index in range(n_shards):
        words = base + (1 if index < extra else 0)
        stop = min(start + words * WORD_BITS, n_bits)
        spans.append((start, stop))
        start = stop
    return spans


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (vectorized)."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(words)
    # Fallback: byte-level table via unpackbits is still one C call.
    flat = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(flat).reshape(words.size, 8 * words.dtype.itemsize)
    return bits.sum(axis=1, dtype=np.int64).reshape(words.shape)


def close_quietly(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass


def _release_segments(live: dict, retired: list) -> None:
    """Unlink and unmap every live and retired segment of an arena."""
    for shm in [*live.values(), *retired]:
        try:
            shm.unlink()
        except FileNotFoundError:  # retired segments are unlinked
            pass
        close_quietly(shm)
    live.clear()
    retired.clear()


class SegmentArena:
    """Zeroed ``uint64`` matrices of one shape in named shared memory.

    Worker processes attach a matrix by its segment name; only the
    arena creates and unlinks segments.  :meth:`retire` unlinks a
    segment at once (its ``/dev/shm`` entry disappears) but keeps the
    mapping until :meth:`close`, so readers already holding the pages
    keep valid memory.  A ``weakref.finalize`` registered with the
    arena runs the same release when the owner is collected or the
    process exits without calling :meth:`close`.
    """

    def __init__(self, shape: tuple[int, int], tag: str) -> None:
        self.shape = tuple(shape)
        self.prefix = \
            f"{SEGMENT_PREFIX}{os.getpid()}{tag}{next(_ARENA_SEQ)}"
        self._seq = itertools.count()
        self._live: dict[str, shared_memory.SharedMemory] = {}
        self._retired: list[shared_memory.SharedMemory] = []
        self._finalizer = weakref.finalize(
            self, _release_segments, self._live, self._retired)

    def alloc(self) -> tuple[str, np.ndarray]:
        """A fresh segment (the OS zero-fills it) and its matrix view."""
        name = f"{self.prefix}n{next(self._seq)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=int(np.prod(self.shape)) * 8)
        self._live[name] = shm
        return name, np.ndarray(self.shape, dtype=np.uint64,
                                buffer=shm.buf)

    def retire(self, name: str) -> None:
        shm = self._live.pop(name)
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._retired.append(shm)

    def close(self) -> None:
        """Unlink and unmap every segment (idempotent)."""
        self._finalizer()


class PackedBits:
    """Deferred readout of a result matrix (8x smaller than flat bits).

    Query results carry one of these instead of an eagerly unpacked
    0/1 array: benchmarks and counting clients never pay the unpack,
    while ``.bits`` consumers materialize on first access.  The logical
    width is captured at execution time, so results stay stable across
    later row appends.  :meth:`unpack` returns a **fresh** array every
    call — holders sharing one ``PackedBits`` each get their own copy.
    """

    __slots__ = ("store", "matrix", "n_bits")

    def __init__(self, store: ColumnStore, matrix: np.ndarray) -> None:
        self.store = store
        self.matrix = matrix
        self.n_bits = store.n_bits

    def unpack(self) -> np.ndarray:
        return self.store.unpack(self.matrix, self.n_bits)


class ColumnStore:
    """Named bit columns as packed ``(n_shards, words_per_shard)`` planes.

    Parameters
    ----------
    n_bits:
        Logical table width; every column holds this many bits.
    n_shards:
        Requested shard count (clamped to the word count, see
        :func:`shard_spans`).
    capacity:
        Physical table width the shard geometry is laid out over
        (default: ``n_bits``).  The logical width may later grow up to
        the capacity via :meth:`resize` (row appends) without
        re-sharding — bits beyond ``n_bits`` are zero in every column
        matrix and masked out of reductions.
    shared:
        Allocate every matrix (columns and the validity mask) in named
        shared memory so shard-worker processes can map it; default
        is the heap.  Call :meth:`close` to unlink the segments.
    """

    def __init__(self, n_bits: int, n_shards: int, *,
                 capacity: int | None = None,
                 shared: bool = False) -> None:
        if n_bits <= 0:
            raise QueryError("table width must be positive")
        self.capacity = int(capacity if capacity is not None else n_bits)
        if self.capacity < n_bits:
            raise QueryError(
                f"capacity {self.capacity} < table width {n_bits}")
        self.spans = shard_spans(self.capacity, n_shards)
        self.n_shards = len(self.spans)
        #: valid packed words per shard (tail shard may be partial)
        self.shard_words = [
            (stop - start + WORD_BITS - 1) // WORD_BITS
            for start, stop in self.spans
        ]
        self.words_per_shard = max(self.shard_words)
        #: global index of each shard's first word (spans are
        #: word-aligned, so shard i holds words
        #: [_word_starts[i], _word_starts[i] + shard_words[i]))
        self._word_starts = [start // WORD_BITS for start, _ in self.spans]
        self.shape = (self.n_shards, self.words_per_shard)
        self._matrices: dict[str, np.ndarray] = {}
        self._arena = SegmentArena(self.shape, "x") if shared else None
        #: shared-memory segment name per column (shared stores only)
        self._segments: dict[str, str] = {}
        #: per-column write generation, shipped with worker jobs
        self.generations: dict[str, int] = {}
        self._mask_segment, self._mask = self._allocate()
        # Uniform layout (every shard holds a full words_per_shard run):
        # the matrix rows concatenate into one contiguous word stream,
        # so readouts reduce to a single unpackbits over the matrix.
        self._uniform = all(words == self.words_per_shard
                            for words in self.shard_words)
        self.n_bits = 0
        self.resize(int(n_bits))

    def resize(self, n_bits: int) -> None:
        """Set the logical width (grows toward capacity on appends).

        Column matrices are already zero beyond the old width, so only
        the validity mask words between the old and new width are
        rewritten (in place — workers map it); callers write appended
        values afterwards via :meth:`write`.
        """
        if not 0 < n_bits <= self.capacity:
            raise QueryError(
                f"logical width {n_bits} outside (0, {self.capacity}]")
        old, self.n_bits = self.n_bits, int(n_bits)
        # Validity mask: 1-bits exactly at positions holding table bits.
        lo, hi = sorted((old, self.n_bits))
        if hi > lo:
            self._overlay(self._mask, lo, np.full(
                hi - lo, self.n_bits > old, dtype=np.uint8))
        self._full = self._uniform and self.n_bits == \
            self.n_shards * self.words_per_shard * WORD_BITS

    def _allocate(self) -> tuple[str | None, np.ndarray]:
        """A zeroed matrix and its segment name (``None`` on the heap)."""
        if self._arena is None:
            return None, np.zeros(self.shape, dtype=np.uint64)
        return self._arena.alloc()

    @property
    def mask(self) -> np.ndarray | None:
        """Validity mask matrix (None when every bit is valid)."""
        return None if self._full else self._mask

    @property
    def mask_segment(self) -> str | None:
        """Mask segment name for workers (None when fully valid)."""
        return None if self._full else self._mask_segment

    def segment_name(self, name: str) -> str:
        try:
            return self._segments[name]
        except KeyError:
            raise QueryError(f"no shared segment for {name!r}") from None

    # ------------------------------------------------------------------
    # word-granular access (global word index = bit position // 64)
    # ------------------------------------------------------------------
    def _runs(self, lo_w: int, hi_w: int):
        """``(shard, local word, global lo, global hi)`` per shard run
        covering global words ``[lo_w, hi_w)``."""
        index = bisect.bisect_right(self._word_starts, lo_w) - 1
        while index < self.n_shards and self._word_starts[index] < hi_w:
            first = self._word_starts[index]
            lo = max(lo_w, first)
            hi = min(hi_w, first + self.shard_words[index])
            yield index, lo - first, lo, hi
            index += 1

    def _get_words(self, matrix: np.ndarray, lo_w: int,
                   hi_w: int) -> np.ndarray:
        """Copy of global words ``[lo_w, hi_w)`` of a matrix."""
        out = np.empty(hi_w - lo_w, dtype=np.uint64)
        for index, local, lo, hi in self._runs(lo_w, hi_w):
            out[lo - lo_w:hi - lo_w] = matrix[index, local:local + hi - lo]
        return out

    def _overlay(self, matrix: np.ndarray, lo: int,
                 bits: np.ndarray) -> np.ndarray:
        """Store ``bits`` at bit position ``lo`` of a matrix; returns
        the global indices of the words whose value changed.

        Packs only the words the slice covers, keeping the bits the
        two boundary words hold outside it, and stores just the words
        that differ."""
        hi = lo + bits.size
        lo_w, hi_w = lo // WORD_BITS, -(-hi // WORD_BITS)
        old = self._get_words(matrix, lo_w, hi_w)
        head = lo - lo_w * WORD_BITS
        if head:  # shift the slice to its bit position in the word
            bits = np.concatenate([np.zeros(head, dtype=bits.dtype), bits])
        new = np.zeros(hi_w - lo_w, dtype=np.uint64)
        packed = np.packbits(bits, bitorder="little")
        new.view(np.uint8)[:packed.size] = packed
        new[0] |= old[0] & np.uint64((1 << head) - 1)
        tail = hi_w * WORD_BITS - hi
        if tail:
            new[-1] |= old[-1] & ~np.uint64((1 << (WORD_BITS - tail)) - 1)
        changed = np.flatnonzero(old != new)
        words = lo_w + changed
        shard = np.searchsorted(self._word_starts, words, side="right") - 1
        matrix[shard, words - np.take(self._word_starts, shard)] = \
            new[changed]
        return words

    def write(self, name: str, offset: int, bits: np.ndarray) -> np.ndarray:
        """Overlay ``bits`` at logical position ``offset``, in place.

        Costs O(words covered), not O(table width).  Returns the global
        indices of the words whose value changed (rewriting identical
        data changes nothing).  Not atomic against concurrent readers:
        the caller holds the table write lock (queries hold the read
        side).
        """
        matrix = self.matrix(name)
        bits = np.asarray(bits)
        if bits.ndim != 1 or not 0 <= offset < offset + bits.size \
                <= self.n_bits:
            raise QueryError(
                f"write of shape {bits.shape} at {offset} outside "
                f"[0, {self.n_bits})")
        words = self._overlay(matrix, int(offset), bits)
        self.generations[name] += 1
        return words

    def read(self, name: str, offset: int, limit: int) -> np.ndarray:
        """Bits ``[offset, offset + limit)`` of a column, clipped to
        the logical width; unpacks only the words the page covers."""
        lo, hi = int(offset), min(int(offset) + int(limit), self.n_bits)
        if hi <= lo:
            return np.zeros(0, dtype=np.uint8)
        lo_w = lo // WORD_BITS
        words = self._get_words(self.matrix(name), lo_w,
                                -(-hi // WORD_BITS))
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        return bits[lo - lo_w * WORD_BITS:hi - lo_w * WORD_BITS]

    # ------------------------------------------------------------------
    # packing / unpacking
    # ------------------------------------------------------------------
    def _pack(self, bits: np.ndarray) -> np.ndarray:
        """Pack a flat 0/1 array into the sharded word matrix."""
        bits = np.asarray(bits).astype(np.uint8)
        if bits.ndim != 1 or bits.size != self.n_bits:
            raise QueryError(
                f"need a flat array of {self.n_bits} bits, got shape "
                f"{bits.shape}")
        n_words = (self.capacity + WORD_BITS - 1) // WORD_BITS
        padded = np.zeros(n_words * WORD_BITS, dtype=np.uint8)
        padded[: self.n_bits] = bits
        words = np.packbits(padded, bitorder="little").view(np.uint64)
        matrix = np.zeros(self.shape, dtype=np.uint64)
        for index, (start, _) in enumerate(self.spans):
            count = self.shard_words[index]
            first = start // WORD_BITS
            matrix[index, :count] = words[first:first + count]
        return matrix

    def unpack(self, matrix: np.ndarray,
               n_bits: int | None = None) -> np.ndarray:
        """Flat 0/1 readout of a result matrix (valid bits only).

        ``n_bits`` overrides the store's *current* logical width —
        deferred readouts (:class:`PackedBits`) pass the width captured
        at execution time, so a later row append cannot change what an
        already-computed result reads back as.
        """
        if n_bits is None:
            n_bits = self.n_bits
        if self._uniform and matrix.flags.c_contiguous:
            # Rows concatenate into one contiguous word stream: one
            # unpackbits, sliced to the table width.
            return np.unpackbits(matrix.view(np.uint8),
                                 bitorder="little")[:n_bits]
        out = np.empty(n_bits, dtype=np.uint8)
        for index, (start, stop) in enumerate(self.spans):
            stop = min(stop, n_bits)
            if stop <= start:
                break
            count = self.shard_words[index]
            bits = np.unpackbits(
                matrix[index, :count].view(np.uint8), bitorder="little")
            out[start:stop] = bits[: stop - start]
        return out

    def popcounts(self, matrix: np.ndarray) -> np.ndarray:
        """Per-shard popcount of a result matrix (masked, vectorized)."""
        if not self._full:  # mask padding / tail garbage out
            matrix = np.bitwise_and(matrix, self._mask)
        return popcount_words(matrix).sum(axis=1, dtype=np.int64)

    def match(self, names, key, mask=None, *,
              out: np.ndarray | None = None) -> np.ndarray:
        """One-pass CAM search of a key against a column group.

        Treats the columns in ``names`` as bit positions of row-major
        records (record *i* = bit *i* of each column) and returns the
        packed hit matrix: bit *i* is 1 when every cared column equals
        its key bit.  ``key``/``mask`` follow the positional convention
        of :class:`repro.arch.expr.Match` (``mask`` bit 1 = compare;
        a key bit masked out is ignored).  The whole search is an
        AND-fold of ``np.bitwise_*`` kernels over the packed matrices —
        no per-row work, one pass over each cared column.
        """
        from repro.arch.expr import _parse_key_bits

        names = list(names)
        key, care = _parse_key_bits(key, len(names), what="key")
        if mask is not None:
            mbits, _ = _parse_key_bits(mask, len(names), what="mask",
                                       allow_x=False)
            care = tuple(c & m for c, m in zip(care, mbits))
        literals = [(self.matrix(name), k)
                    for name, k, m in zip(names, key, care) if m]
        if out is None:
            out = np.empty(self.shape, dtype=np.uint64)
        if not literals:  # all-masked key matches every record
            out.fill(np.uint64(0xFFFFFFFFFFFFFFFF))
            return out
        first, k0 = literals[0]
        if k0:
            np.copyto(out, first)
        else:
            np.bitwise_not(first, out=out)
        scratch = None
        for matrix, k in literals[1:]:
            if k:
                np.bitwise_and(out, matrix, out=out)
            else:
                if scratch is None:
                    scratch = np.empty(self.shape, dtype=np.uint64)
                np.bitwise_not(matrix, out=scratch)
                np.bitwise_and(out, scratch, out=out)
        return out

    # ------------------------------------------------------------------
    # column management
    # ------------------------------------------------------------------
    def add(self, name: str, bits: np.ndarray) -> None:
        if name in self._matrices:
            raise QueryError(f"column {name!r} already exists")
        packed = self._pack(bits)  # validates before allocating
        segment, matrix = self._allocate()
        np.copyto(matrix, packed)
        if segment is not None:
            self._segments[name] = segment
        self._matrices[name] = matrix
        self.generations[name] = 1

    def drop(self, name: str) -> str | None:
        """Remove a column; returns its retired segment name (if any).

        A retired segment is unlinked now but stays mapped until
        :meth:`close`, so a query that bound the matrix before the drop
        still reads valid pages.
        """
        if name not in self._matrices:
            raise QueryError(f"no column {name!r}")
        del self._matrices[name]
        del self.generations[name]
        segment = self._segments.pop(name, None)
        if segment is not None:
            self._arena.retire(segment)
        return segment

    def matrix(self, name: str) -> np.ndarray:
        try:
            return self._matrices[name]
        except KeyError:
            raise QueryError(f"no column {name!r}") from None

    def bits(self, name: str) -> np.ndarray:
        return self.unpack(self.matrix(name))

    def snapshot(self) -> dict[str, np.ndarray]:
        """Binding of every column to its current matrix.

        Survives later drops and re-adds (they rebind names, never
        reuse a matrix), but not :meth:`write`, which writes in place.
        """
        return dict(self._matrices)

    def __contains__(self, name: str) -> bool:
        return name in self._matrices

    def __len__(self) -> int:
        return len(self._matrices)

    def close(self) -> None:
        """Unlink every shared-memory segment (idempotent; heap
        matrices are left to the garbage collector)."""
        if self._arena is not None:
            self._matrices.clear()
            self._mask = None
            self._arena.close()
