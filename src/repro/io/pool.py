"""A shared buffer pool on the block device: readahead, write coalescing,
and an optional LRU block cache.

:class:`~repro.io.cache.BufferPool` (the per-file, mutable, write-back pool
the DFS baseline's structures use) solves a different problem — this module
generalizes the *read side* to the whole device.  A
:class:`SharedBufferPool` attached via :meth:`BlockDevice.attach_pool`
gives every :class:`~repro.io.files.ExternalFile` on the device:

* **sequential readahead** — scans fetch up to ``readahead`` blocks per
  batch ahead of consumption.  Every block is still charged to
  :class:`~repro.io.stats.IOStats` exactly once, as a *sequential* read, at
  fetch time: the ledger of a pooled run is identical, counter for counter,
  to the unpooled run (the trace test in ``tests/test_io_pool.py`` pins
  this).  What changes is the shape of the request stream a real disk would
  see — ``readahead``-deep batches instead of single-block calls;
* **write coalescing** — the file layer buffers up to ``coalesce_writes``
  blocks before flushing them back-to-back (each block still charged as
  one sequential write at flush), modelling batched submission;
* **optional LRU caching** (``cache_blocks > 0``) — a shared
  last-recently-used cache over clean blocks.  A hit is served from memory
  and charged *nothing*; a miss is charged with the access pattern the
  caller declared.  Because cached blocks are read-only copies and every
  mutation path (:meth:`BlockDevice.overwrite_block`, ``delete``,
  ``rename`` over an existing target) invalidates them, honesty is
  preserved: the ledger never counts an I/O that did not happen and never
  misclassifies one that did.

Cache entries are keyed by :attr:`DiskFile.uid` — a monotonic id that is
never reused.  The previous ``id(file)`` keys could collide when a deleted
file's object was garbage collected and a new :class:`DiskFile` landed at
the same address (most easily provoked through ``rename(overwrite=True)``,
which silently dropped the clobbered target without invalidation), serving
the dead file's blocks as the new file's content.  A lock guards the shared
structures, so the pool stays consistent if several threads read through
it.

The Ext-SCC pipeline attaches a readahead/coalescing pool (cache off) so
its ledger keeps reproducing the paper's sequential/random split exactly;
the cache mode is for workloads that genuinely re-read hot blocks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterator, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.io.blocks import BlockDevice, DiskFile

__all__ = ["SharedBufferPool"]

Record = Tuple[int, ...]


class SharedBufferPool:
    """Device-wide buffer pool: readahead, coalescing, optional LRU cache.

    Args:
        device: the :class:`BlockDevice` to serve (the pool registers
            itself via :meth:`BlockDevice.attach_pool`).
        readahead: blocks fetched per batch on sequential scans (1 disables
            readahead).
        coalesce_writes: blocks the file layer may buffer before flushing
            (1 disables coalescing).
        cache_blocks: capacity of the shared LRU block cache (0 disables
            caching; readahead and coalescing never change I/O counts, the
            cache does — by serving repeated reads for free).
    """

    def __init__(
        self,
        device: "BlockDevice",
        readahead: int = 8,
        coalesce_writes: int = 1,
        cache_blocks: int = 0,
    ) -> None:
        if readahead < 1:
            raise ValueError("readahead must be at least 1 block")
        if coalesce_writes < 1:
            raise ValueError("coalesce_writes must be at least 1 block")
        if cache_blocks < 0:
            raise ValueError("cache_blocks must be non-negative")
        self.device = device
        self.readahead = readahead
        self.coalesce_writes = coalesce_writes
        self.cache_blocks = cache_blocks
        self._cache: "OrderedDict[Tuple[int, int], Sequence[Record]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.readahead_batches = 0
        self.coalesced_flushes = 0
        device.attach_pool(self)

    # -- reading -----------------------------------------------------------

    def read_block(self, f: "DiskFile", index: int, sequential: bool) -> Sequence[Record]:
        """One block through the cache (if enabled); misses hit the device
        and are charged with the caller's declared access pattern."""
        if self.cache_blocks:
            key = (f.uid, index)
            with self._lock:
                block = self._cache.get(key)
                if block is not None:
                    self.hits += 1
                    self._cache.move_to_end(key)
                    return block
                self.misses += 1
        block = self.device.read_block(f, index, sequential=sequential)
        if self.cache_blocks:
            with self._lock:
                self._cache[(f.uid, index)] = block
                while len(self._cache) > self.cache_blocks:
                    self._cache.popitem(last=False)
        return block

    def scan_blocks(self, f: "DiskFile") -> Iterator[Sequence[Record]]:
        """Sequential scan with readahead: blocks are fetched (and charged,
        sequentially, once each) in ``readahead``-deep batches; the
        charges are exactly those of scanning the file without a pool.
        """
        index = 0
        end = f.num_blocks
        while index < end:
            batch_end = min(end, index + self.readahead)
            batch = [
                self.read_block(f, j, sequential=True)
                for j in range(index, batch_end)
            ]
            with self._lock:
                self.readahead_batches += 1
            for block in batch:
                yield block
            index = batch_end

    # -- invalidation (called by the device) -------------------------------

    def invalidate_file(self, f: "DiskFile") -> None:
        """Drop every cached block of ``f`` (deleted, truncated, or
        clobbered by a rename)."""
        with self._lock:
            if not self._cache:
                return
            uid = f.uid
            for key in [k for k in self._cache if k[0] == uid]:
                del self._cache[key]

    def invalidate_block(self, f: "DiskFile", index: int) -> None:
        """Drop one cached block of ``f`` (overwritten in place)."""
        with self._lock:
            self._cache.pop((f.uid, index), None)

    # -- reporting ---------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups served from memory (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
