"""Record-oriented files over the simulated block device.

:class:`ExternalFile` is the unit every external algorithm in this package
manipulates: an immutable-once-written sequence of fixed-width integer-tuple
records.  Appending goes through a one-block write buffer (sequential
writes); :meth:`scan` streams records back with sequential reads;
:meth:`read_block_random` models a disk seek and charges a random read.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.exceptions import StorageError
from repro.io.blocks import BlockDevice, DiskFile

__all__ = ["ExternalFile"]

Record = Tuple[int, ...]


class ExternalFile:
    """A fixed-width record file on a :class:`BlockDevice`.

    Typical lifecycle::

        ef = ExternalFile.create(device, "edges", record_size=8)
        ef.extend((u, v) for u, v in edges)
        ef.close()                       # flush the partial tail block
        for u, v in ef.scan():           # sequential re-read
            ...

    Args:
        device: the block device holding the file.
        disk_file: the underlying :class:`DiskFile`.
    """

    def __init__(self, device: BlockDevice, disk_file: DiskFile) -> None:
        self.device = device
        self._file = disk_file
        self._write_buffer: List[Record] = []
        self._closed = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def create(
        cls,
        device: BlockDevice,
        name: str,
        record_size: int,
        overwrite: bool = False,
    ) -> "ExternalFile":
        """Create a new empty file of ``record_size``-byte records."""
        return cls(device, device.create(name, record_size, overwrite=overwrite))

    @classmethod
    def from_records(
        cls,
        device: BlockDevice,
        name: str,
        records: Iterable[Record],
        record_size: int,
        overwrite: bool = False,
    ) -> "ExternalFile":
        """Create a file, write all ``records`` sequentially, and close it."""
        ef = cls.create(device, name, record_size, overwrite=overwrite)
        ef.extend(records)
        ef.close()
        return ef

    @classmethod
    def open(cls, device: BlockDevice, name: str) -> "ExternalFile":
        """Open an existing file for reading."""
        ef = cls(device, device.open(name))
        ef._closed = True
        return ef

    # -- metadata ----------------------------------------------------------

    @property
    def name(self) -> str:
        """The file's name on the device."""
        return self._file.name

    @property
    def record_size(self) -> int:
        """Width of one record in (simulated) bytes."""
        return self._file.record_size

    @property
    def num_records(self) -> int:
        """Number of records written (including any still buffered)."""
        return self._file.num_records + len(self._write_buffer)

    @property
    def num_blocks(self) -> int:
        """Number of blocks on disk (excludes the unflushed write buffer)."""
        return self._file.num_blocks

    @property
    def nbytes(self) -> int:
        """Logical payload size in bytes (records * record width)."""
        return self.num_records * self.record_size

    def __len__(self) -> int:
        return self.num_records

    # -- writing -----------------------------------------------------------

    def _flush_threshold(self) -> int:
        """Records buffered before flushing: one block, or — with a
        coalescing pool attached — ``coalesce_writes`` blocks batched."""
        pool = self.device.pool
        coalesce = pool.coalesce_writes if pool is not None else 1
        return self._file.block_capacity * coalesce

    def _flush_full_blocks(self, final: bool = False) -> None:
        """Write buffered records out as whole blocks, back to back.  Each
        block is charged one sequential write, exactly as without
        coalescing; only the submission batching changes."""
        capacity = self._file.block_capacity
        buffer = self._write_buffer
        flushed = 0
        pool = self.device.pool
        if pool is not None and len(buffer) > capacity:
            pool.coalesced_flushes += 1
        while len(buffer) - flushed >= capacity:
            self.device.append_block(self._file, buffer[flushed : flushed + capacity])
            flushed += capacity
        if final and len(buffer) > flushed:
            self.device.append_block(self._file, buffer[flushed:])
            flushed = len(buffer)
        if flushed:
            # Fixed-width storage: stored bytes equal the logical footprint.
            nbytes = flushed * self.record_size
            self.device.stats.record_payload_write(
                flushed, nbytes, nbytes, self.record_size
            )
        self._write_buffer = buffer[flushed:]

    def append(self, record: Record) -> None:
        """Append one record through the sequential write buffer."""
        if self._closed:
            raise StorageError(f"file {self.name!r} is closed for writing")
        self._write_buffer.append(record)
        if len(self._write_buffer) >= self._flush_threshold():
            self._flush_full_blocks()

    def extend(self, records: Iterable[Record]) -> None:
        """Append many records through the sequential write buffer.

        Batched: the buffer is filled to exactly the flush threshold per
        step, so full blocks flush in the same buffer states as per-record
        :meth:`append` calls — identical block cuts, identical coalesced
        flush counts — without a Python-level call per record.
        """
        if self._closed:
            raise StorageError(f"file {self.name!r} is closed for writing")
        if isinstance(records, (list, tuple)):
            position = 0
            remaining = len(records)
        else:
            iterator = iter(records)
            position = remaining = None
        while True:
            threshold = self._flush_threshold()
            buffer = self._write_buffer
            take = threshold - len(buffer)
            if take <= 0:  # threshold shrank under a full buffer
                self._flush_full_blocks()
                continue
            if position is not None:
                if not remaining:
                    return
                buffer.extend(records[position : position + take])
                taken = min(take, remaining)
                position += taken
                remaining -= taken
            else:
                chunk = list(islice(iterator, take))
                if not chunk:
                    return
                buffer.extend(chunk)
            if len(buffer) >= threshold:
                self._flush_full_blocks()

    def close(self) -> None:
        """Flush the partial tail block; the file becomes read-only."""
        if self._write_buffer:
            self._flush_full_blocks(final=True)
        self._closed = True

    # -- reading -----------------------------------------------------------

    def scan(self) -> Iterator[Record]:
        """Stream all records front to back with sequential block reads.

        With a :class:`~repro.io.pool.SharedBufferPool` attached, blocks
        arrive through its readahead path (same charges, batched fetches).
        """
        if not self._closed:
            raise StorageError(f"close {self.name!r} before scanning it")
        return chain.from_iterable(self.scan_blocks())

    def scan_reverse(self) -> Iterator[Record]:
        """Stream all records back to front (a backward sequential scan;
        each block is still read exactly once)."""
        if not self._closed:
            raise StorageError(f"close {self.name!r} before scanning it")
        for index in range(self._file.num_blocks - 1, -1, -1):
            block = self.device.read_block(self._file, index, sequential=True)
            yield from reversed(block)

    def scan_blocks(self) -> Iterator[Sequence[Record]]:
        """Stream whole blocks sequentially (for block-granular algorithms)."""
        return self.scan_block_range()

    def scan_block_range(self) -> Iterator[Sequence[Record]]:
        """Stream every block front to back with sequential reads."""
        if not self._closed:
            raise StorageError(f"close {self.name!r} before scanning it")
        pool = self.device.pool
        if pool is not None:
            yield from pool.scan_blocks(self._file)
            return
        for index in range(self._file.num_blocks):
            yield self.device.read_block(self._file, index, sequential=True)

    def read_block_random(self, index: int) -> Sequence[Record]:
        """Read one block by index, charging a *random* read (a seek) —
        unless a caching pool serves it from memory for free."""
        pool = self.device.pool
        if pool is not None:
            return pool.read_block(self._file, index, sequential=False)
        return self.device.read_block(self._file, index, sequential=False)

    def read_record_random(self, position: int) -> Record:
        """Read the record at ``position`` via a random block read."""
        if not 0 <= position < self._file.num_records:
            raise StorageError(
                f"record {position} out of range for {self.name!r} "
                f"({self._file.num_records} records)"
            )
        capacity = self._file.block_capacity
        block = self.read_block_random(position // capacity)
        return block[position % capacity]

    # -- management --------------------------------------------------------

    def delete(self) -> None:
        """Remove the file from the device (no I/O is charged)."""
        self.device.delete(self.name)

    def rename(self, new_name: str, overwrite: bool = True) -> None:
        """Rename the file on the device (metadata only)."""
        self.device.rename(self.name, new_name, overwrite=overwrite)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExternalFile({self.name!r}, records={self.num_records}, "
            f"blocks={self.num_blocks}, record_size={self.record_size})"
        )
