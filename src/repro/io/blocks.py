"""Simulated block device.

The device stores named files as sequences of fixed-capacity blocks.  A block
nominally holds ``block_size`` bytes; a file created with ``record_size = r``
therefore packs ``block_size // r`` records per block.  Records themselves
are kept as Python tuples (serialization is *accounted*, not performed — the
quantity under study is the number of block I/Os, and packing bytes in pure
Python would only slow the simulation without changing any counter).

Every block read/write is reported to the device's :class:`IOStats` with its
access pattern; callers declare the pattern through the API they use
(``append_block``/``read_block(..., sequential=True)`` for scans,
``sequential=False`` for seeks), which keeps the classification deterministic
and independent of interleaving between files.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import (
    CorruptBlockError,
    RetryExhaustedError,
    StorageError,
    TransientIOError,
)
from repro.io.stats import IOBudget, IOStats, RETRY_PHASE

__all__ = ["BlockDevice", "DiskFile", "DEFAULT_BLOCK_SIZE"]

DEFAULT_BLOCK_SIZE = 4096
"""Default simulated block size in bytes (the paper uses 256 KB blocks on a
2008-era disk; 4 KB keeps the block count meaningful at simulation scale)."""

Record = Tuple[int, ...]


class DiskFile:
    """A named file on the simulated device: a list of record blocks.

    Not created directly — use :meth:`BlockDevice.create`.
    """

    # Monotonic ids: unlike ``id()``, a uid is never reused after a file is
    # garbage collected, so it is a safe cache key (the buffer pool keys
    # on it).
    _uids = itertools.count()

    def __init__(self, name: str, record_size: int, block_capacity: int) -> None:
        if block_capacity < 1:
            raise StorageError(
                f"record of {record_size} bytes does not fit in one block"
            )
        self.uid = next(DiskFile._uids)
        self.name = name
        self.record_size = record_size
        self.block_capacity = block_capacity
        self.blocks: List[Sequence[Record]] = []
        self.num_records = 0
        # CRC32 of each block's *intended* content, maintained on every
        # write; a torn write stores the checksum of what should have
        # landed, so verify_block can detect the damage.
        self.block_checksums: List[int] = []

    @property
    def num_blocks(self) -> int:
        """Number of blocks currently held by the file."""
        return len(self.blocks)


class BlockDevice:
    """A simulated disk: named record files plus an I/O ledger.

    Args:
        block_size: bytes per block; record capacity of each file is
            ``block_size // record_size``.
        stats: the :class:`IOStats` ledger to charge; a fresh one is created
            when omitted.
        budget: optional I/O budget installed on the ledger.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        stats: Optional[IOStats] = None,
        budget: Optional[IOBudget] = None,
    ) -> None:
        if block_size <= 0:
            raise StorageError(f"block size must be positive, got {block_size}")
        self.block_size = block_size
        self.stats = stats if stats is not None else IOStats()
        if budget is not None:
            self.stats.budget = budget
        self._files: Dict[str, DiskFile] = {}
        self._tmp_counter = 0
        self._tmp_lock = threading.Lock()
        self.pool = None  # optional SharedBufferPool (see attach_pool)
        self.injector = None  # optional FaultInjector (see attach_injector)
        self.fault_schedule = None  # optional FaultSchedule (attach_schedule)
        self.fault_policy = None  # optional FaultPolicy (attach_policy)
        # True when any fault machinery is attached; the block-I/O fast
        # path branches on this single flag so a fault-free run pays one
        # attribute check per operation and nothing else.
        self._fault_active = False
        # In-memory blocks are only checksum-verified on read while a
        # schedule is attached (injected bit-rot must surface through the
        # CRC layer); the persistent backend verifies every read always.
        self._verify_reads = False
        # Codec name applied when operators create intermediates without an
        # explicit codec argument; None falls through to the module default
        # in repro.io.codecs.  ExtSCC.run sets this from its config so one
        # knob switches the whole pipeline.
        self.default_codec: Optional[str] = None
        # The checkpoint journal (list of JSON-able entries) lives on the
        # device so it shares the data's fate: in RAM here, inside the
        # manifest on PersistentBlockDevice.  CheckpointManager owns the
        # format; the device only stores it.
        self.checkpoint_journal: List[dict] = []

    def attach_pool(self, pool) -> None:
        """Install a :class:`~repro.io.pool.SharedBufferPool` on the device.

        Scans and random reads of every file are then routed through the
        pool (readahead / optional caching); file deletions and in-place
        overwrites invalidate it.  Passing ``None`` detaches the pool.
        """
        self.pool = pool

    def attach_injector(self, injector) -> None:
        """Install a :class:`~repro.recovery.fault.FaultInjector`.

        Every subsequent block read/write first passes through the
        injector, which may raise
        :class:`~repro.exceptions.SimulatedCrash` (optionally leaving a
        torn block first).  Passing ``None`` detaches it.
        """
        self.injector = injector
        self._refresh_fault_path()

    def attach_schedule(self, schedule) -> None:
        """Install a :class:`~repro.recovery.fault.FaultSchedule`.

        Every block-operation *attempt* is then first offered to the
        schedule, which may raise transient faults or damage a block's
        stored payload; the device's retry wrapper (governed by the
        attached :class:`FaultPolicy`, or the package defaults) absorbs
        what it can.  Passing ``None`` detaches.
        """
        self.fault_schedule = schedule
        self._verify_reads = schedule is not None
        self._refresh_fault_path()

    def attach_policy(self, policy) -> None:
        """Install a :class:`~repro.recovery.policy.FaultPolicy` governing
        retries/backoff for transient faults.  Passing ``None`` reverts to
        the package defaults (used only while a schedule or injector is
        attached — a policy alone also activates the guarded I/O path)."""
        self.fault_policy = policy
        self._refresh_fault_path()

    def _refresh_fault_path(self) -> None:
        self._fault_active = (
            self.injector is not None
            or self.fault_schedule is not None
            or self.fault_policy is not None
        )

    # -- file namespace ----------------------------------------------------

    def create(self, name: str, record_size: int, overwrite: bool = False) -> DiskFile:
        """Create an empty file of ``record_size``-byte records."""
        if name in self._files and not overwrite:
            raise StorageError(f"file {name!r} already exists")
        f = DiskFile(name, record_size, self.block_size // record_size)
        self._files[name] = f
        return f

    def open(self, name: str) -> DiskFile:
        """Look up an existing file by name."""
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        """Return True when ``name`` is a file on this device."""
        return name in self._files

    def delete(self, name: str) -> None:
        """Remove a file (its blocks are freed; deleting is not an I/O)."""
        if name not in self._files:
            raise StorageError(f"no such file: {name!r}")
        if self.pool is not None:
            self.pool.invalidate_file(self._files[name])
        del self._files[name]

    def rename(self, old: str, new: str, overwrite: bool = True) -> None:
        """Rename a file in place (metadata only, no I/O)."""
        f = self.open(old)
        if new in self._files:
            if not overwrite:
                raise StorageError(f"file {new!r} already exists")
            # The clobbered target's blocks may still sit in the buffer
            # pool; drop them, or a later lookup that collides on the dead
            # file's identity would be served stale content.
            if self.pool is not None and self._files[new] is not f:
                self.pool.invalidate_file(self._files[new])
        del self._files[old]
        f.name = new
        self._files[new] = f

    def temp_name(self, prefix: str = "tmp") -> str:
        """Return a fresh unused file name for intermediates."""
        with self._tmp_lock:
            while True:
                self._tmp_counter += 1
                name = f"{prefix}.{self._tmp_counter}"
                if name not in self._files:
                    return name

    def list_files(self) -> List[str]:
        """Names of all files on the device."""
        return sorted(self._files)

    # -- block I/O ---------------------------------------------------------

    def _assert_live(self, f: DiskFile) -> None:
        """Reject I/O on files that were deleted from the namespace."""
        if self._files.get(f.name) is not f:
            raise StorageError(f"file {f.name!r} is not open on this device")

    @staticmethod
    def _block_checksum(records: Sequence[Record]) -> int:
        """Content checksum of a block (the in-memory backend has no byte
        serialization to hash, so the tuple hash stands in — content-based
        and, for the integer records every pipeline file holds, stable
        across processes; only str/bytes hashing is salted).  Masked to 32
        bits so :meth:`file_checksum` can pack it."""
        return hash(tuple(records)) & 0xFFFFFFFF

    def append_block(self, f: DiskFile, records: Sequence[Record]) -> None:
        """Append one block of records to ``f`` (a sequential write)."""
        self._assert_live(f)
        if len(records) > f.block_capacity:
            raise StorageError(
                f"{len(records)} records exceed block capacity {f.block_capacity}"
            )
        if self._fault_active:
            return self._run_io(
                lambda: self._append_impl(f, records),
                f, is_write=True, sequential=True, records=records,
            )
        self._append_impl(f, records)

    def _append_impl(self, f: DiskFile, records: Sequence[Record]) -> None:
        f.blocks.append(tuple(records))
        f.num_records += len(records)
        f.block_checksums.append(self._block_checksum(records))
        self.stats.record_write(sequential=True)

    def read_block(self, f: DiskFile, index: int, sequential: bool) -> Sequence[Record]:
        """Read block ``index`` of ``f``, charging one read of the given pattern."""
        self._assert_live(f)
        if not 0 <= index < len(f.blocks):
            raise StorageError(
                f"block {index} out of range for {f.name!r} ({f.num_blocks} blocks)"
            )
        if self._fault_active:
            return self._run_io(
                lambda: self._read_impl(f, index, sequential),
                f, is_write=False, sequential=sequential, index=index,
            )
        return self._read_impl(f, index, sequential)

    def _read_impl(self, f: DiskFile, index: int, sequential: bool) -> Sequence[Record]:
        block = f.blocks[index]
        if self._verify_reads and self._block_checksum(block) != f.block_checksums[index]:
            raise CorruptBlockError(f.name, index)
        self.stats.record_read(sequential=sequential)
        return block

    def overwrite_block(self, f: DiskFile, index: int, records: Sequence[Record], sequential: bool = False) -> None:
        """Overwrite block ``index`` in place (a random write by default).

        Only the DFS baseline's mutable structures (external stack, buffered
        repository tree) use in-place writes; the Ext-SCC pipeline never
        does.
        """
        self._assert_live(f)
        if len(records) > f.block_capacity:
            raise StorageError(
                f"{len(records)} records exceed block capacity {f.block_capacity}"
            )
        if not 0 <= index < len(f.blocks):
            raise StorageError(f"block {index} out of range for {f.name!r}")
        if self._fault_active:
            return self._run_io(
                lambda: self._overwrite_impl(f, index, records, sequential),
                f, is_write=True, sequential=sequential,
                records=records, index=index,
            )
        self._overwrite_impl(f, index, records, sequential)

    def _overwrite_impl(self, f: DiskFile, index: int, records: Sequence[Record],
                        sequential: bool) -> None:
        old_len = len(f.blocks[index])
        f.blocks[index] = tuple(records)
        f.num_records += len(records) - old_len
        f.block_checksums[index] = self._block_checksum(records)
        if self.pool is not None:
            self.pool.invalidate_block(f, index)
        self.stats.record_write(sequential=sequential)

    # -- fault tolerance ---------------------------------------------------

    def _run_io(self, impl, f: DiskFile, *, is_write: bool, sequential: bool,
                records: Optional[Sequence[Record]] = None,
                index: Optional[int] = None):
        """Run one block operation through the fault machinery.

        Order of business per operation: the PR 3 crash injector first
        (fail-stop semantics are unchanged — a crash leaves the operation
        uncharged), then, per *attempt*, the fault schedule (which may
        raise transient faults or damage the target block), then the
        storage implementation itself.  Transient faults are retried under
        the attached :class:`FaultPolicy` with each failed attempt charged
        to the ``retry`` ledger label.  A ``CorruptBlockError`` propagates:
        the device keeps no redundancy, so a damaged block is answered by
        resuming from the checkpoint journal.
        """
        if self.injector is not None:
            self.injector.on_io(self, f, is_write=is_write, records=records, index=index)
        attempt = 0
        while True:
            if self.fault_schedule is not None:
                try:
                    self.fault_schedule.on_io(
                        self, f, is_write=is_write, records=records,
                        index=index, attempt=attempt,
                    )
                except TransientIOError as exc:
                    attempt = self._next_attempt(exc, f, is_write, sequential, attempt)
                    continue
            return impl()

    def _next_attempt(self, exc: TransientIOError, f: DiskFile,
                      is_write: bool, sequential: bool, attempt: int) -> int:
        """Account a failed attempt; backoff and return the next attempt
        number, or escalate :class:`RetryExhaustedError` past the policy."""
        from repro.recovery.policy import DEFAULT_FAULT_POLICY  # lazy: no cycle

        policy = self.fault_policy or DEFAULT_FAULT_POLICY
        health = self.stats.health
        # The failed attempt consumed a device operation: charge it, so
        # fault-tolerance overhead is a measured quantity (and counts
        # toward the I/O budget — a run cannot retry its way past INF).
        self.stats.record_fault_io(RETRY_PHASE, not is_write, sequential)
        attempt += 1
        if attempt > policy.max_retries:
            health.escalations += 1
            raise RetryExhaustedError(attempt, exc) from exc
        health.retries += 1
        seconds = policy.apply_backoff(attempt, token=getattr(f, "uid", 0))
        health.backoff_seconds += seconds
        stack = self.stats._phase_stack
        top = stack[0] if stack else ""
        spent = health.backoff_by_phase.get(top, 0.0) + seconds
        health.backoff_by_phase[top] = spent
        if policy.phase_deadline is not None and spent > policy.phase_deadline:
            health.escalations += 1
            raise RetryExhaustedError(
                attempt, exc,
                reason=f"phase {top or '<none>'} backoff deadline "
                       f"{policy.phase_deadline}s exceeded",
            ) from exc
        return attempt

    def _damage_block(self, f: DiskFile, index: int) -> None:
        """Flip a bit in the stored content of block ``index`` without
        touching its recorded checksum — simulated bit-rot, surfaced as a
        :class:`CorruptBlockError` by the checksum layer on read."""
        block = f.blocks[index]
        damaged = self._flip_first_field(block)
        if damaged == block:
            # Nothing flippable in the payload (empty block): rot the
            # stored checksum instead — the mismatch is the same.
            f.block_checksums[index] ^= 1
        else:
            f.blocks[index] = damaged
        if self.pool is not None:
            self.pool.invalidate_block(f, index)

    @classmethod
    def _flip_first_field(cls, value):
        if isinstance(value, tuple):
            for pos, item in enumerate(value):
                flipped = cls._flip_first_field(item)
                if flipped != item:
                    return value[:pos] + (flipped,) + value[pos + 1:]
            return value
        return value ^ 1

    # -- crash surface -----------------------------------------------------

    def _torn_write(self, f: DiskFile, records: Sequence[Record],
                    index: Optional[int] = None) -> None:
        """Leave a half-written block behind, as a mid-write power loss
        would: only the first half of the records land, while the recorded
        checksum is that of the *intended* content — so the block fails
        :meth:`verify_block`.  No I/O is charged (the machine died)."""
        torn = tuple(records)[: len(records) // 2]
        checksum = self._block_checksum(records)
        if index is None:
            f.blocks.append(torn)
            f.num_records += len(torn)
            f.block_checksums.append(checksum)
        else:
            f.num_records += len(torn) - len(f.blocks[index])
            f.blocks[index] = torn
            f.block_checksums[index] = checksum
            if self.pool is not None:
                self.pool.invalidate_block(f, index)

    def verify_block(self, f: DiskFile, index: int) -> Sequence[Record]:
        """Read block ``index`` and check it against its stored checksum.

        Charges one sequential read (recovery validation is a scan);
        raises :class:`~repro.exceptions.CorruptBlockError` on mismatch.
        """
        self._assert_live(f)
        if not 0 <= index < len(f.blocks):
            raise StorageError(f"block {index} out of range for {f.name!r}")
        block = f.blocks[index]
        self.stats.record_read(sequential=True)
        if self._block_checksum(block) != f.block_checksums[index]:
            raise CorruptBlockError(f.name, index)
        return block

    def file_checksum(self, f: DiskFile) -> Optional[int]:
        """Combined CRC32 over the file's per-block checksums, or ``None``
        when the per-block list is incomplete (a reopened legacy file) —
        callers then fall back to metadata-only validation."""
        if len(f.block_checksums) != f.num_blocks:
            return None
        crc = 0
        for checksum in f.block_checksums:
            crc = zlib.crc32(checksum.to_bytes(4, "big"), crc)
        return crc

    # -- reporting ---------------------------------------------------------

    def total_blocks(self) -> int:
        """Total number of blocks across all files (simulated disk usage)."""
        return sum(f.num_blocks for f in self._files.values())
