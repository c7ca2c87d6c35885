"""Variable-length-record files: the substrate for compressed storage.

The fixed-width :class:`~repro.io.files.ExternalFile` charges every record
the same accounted bytes.  Compressed formats (gap-encoded edge lists,
varint record streams) produce records of varying width, so this module
provides :class:`VarRecordFile`: records are byte strings, blocks are
filled to the block size by *accounted* byte length, and the ledger charges
exactly the blocks a real encoder would produce.

Like the fixed-width file, payloads are held as Python objects and only
their sizes are accounted — the compression *ratio* and the resulting
block-I/O savings are real; the CPU cost of bit-twiddling is not simulated.
(The codecs in :mod:`repro.io.codecs` do implement the real byte encoding,
and their property tests pin the accounted sizes to the encoded lengths.)
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Sequence, Tuple

from repro.exceptions import StorageError
from repro.io.blocks import BlockDevice

__all__ = ["VarRecordFile", "varint_size"]


def varint_size(value: int) -> int:
    """Bytes a LEB128-style varint needs for ``value`` (>= 0)."""
    if value < 0:
        raise ValueError(f"varints encode non-negative integers, got {value}")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


class VarRecordFile:
    """An append-only file of variable-size records.

    Records are arbitrary Python payloads tagged with their accounted byte
    size; blocks close when the next record would overflow ``block_size``.
    A record whose accounted size alone exceeds the block size raises
    :class:`~repro.exceptions.StorageError` — records are never silently
    truncated or split across blocks.

    Args:
        device: the simulated disk.
        name: file name on the device.
        overwrite: replace an existing file of the same name.
    """

    def __init__(self, device: BlockDevice, name: str, overwrite: bool = False) -> None:
        self.device = device
        # Payload slot width 1: we pack (payload,) tuples and track bytes
        # ourselves, so capacity checks are done here, not in the device.
        self._file = device.create(name, record_size=1, overwrite=overwrite)
        self._file.block_capacity = device.block_size  # up to B one-byte units
        self._buffer: List[Tuple[object]] = []
        self._buffer_bytes = 0
        self._closed = False
        self.num_records = 0
        self.payload_bytes = 0

    @classmethod
    def open(cls, device: BlockDevice, name: str) -> "VarRecordFile":
        """Reattach to an existing var-record file, read-only.

        ``payload_bytes`` is 0 on a reopened file (the accounted sizes were
        charged when the file was written and are not recorded per record);
        only scanning and metadata are supported.
        """
        vf = cls.__new__(cls)
        vf.device = device
        vf._file = device.open(name)
        vf._file.block_capacity = device.block_size
        vf._buffer = []
        vf._buffer_bytes = 0
        vf._closed = True
        vf.num_records = vf._file.num_records
        vf.payload_bytes = 0
        return vf

    @property
    def name(self) -> str:
        """The file's name on the device."""
        return self._file.name

    @property
    def num_blocks(self) -> int:
        """Blocks written so far (excluding the open tail buffer)."""
        return self._file.num_blocks

    @property
    def tail_bytes(self) -> int:
        """Accounted bytes sitting in the open (unflushed) tail block.

        Codec-aware writers use this to detect block boundaries: a record
        that does not fit in the tail starts a fresh block, so gap chains
        must restart there.
        """
        return self._buffer_bytes

    def append(self, payload: object, nbytes: int) -> None:
        """Append one record whose accounted size is ``nbytes``."""
        if self._closed:
            raise StorageError(f"file {self.name!r} is closed for writing")
        if nbytes <= 0:
            raise ValueError("record size must be positive")
        if nbytes > self.device.block_size:
            raise StorageError(
                f"record of {nbytes} bytes exceeds the block size "
                f"{self.device.block_size}"
            )
        if self._buffer_bytes + nbytes > self.device.block_size:
            self._flush()
        self._buffer.append((payload,))
        self._buffer_bytes += nbytes
        self.num_records += 1
        self.payload_bytes += nbytes

    def append_batch(
        self,
        payloads: Sequence[object],
        sizes: Sequence[int],
        cuts: Sequence[int],
    ) -> None:
        """Append many records with pre-cut block boundaries.

        ``sizes[i]`` is payload ``i``'s accounted bytes and ``cuts`` lists
        the indices whose payload opens a new block (the tail flushes just
        before it lands) — exactly the flush points per-record
        :meth:`append` calls would hit, so blocks, counters, and charges
        are identical.  Size validation (positive, at most one block) is
        the caller's job: the codec layer's greedy walk already performed
        it while computing the cuts.
        """
        if self._closed:
            raise StorageError(f"file {self.name!r} is closed for writing")
        total = 0
        start = 0
        for cut in cuts:
            if cut > start:
                segment = sum(sizes[start:cut])
                # zip(seq) wraps each payload in a 1-tuple slot in C
                self._buffer.extend(zip(payloads[start:cut]))
                self._buffer_bytes += segment
                total += segment
            self._flush()
            start = cut
        segment = sum(sizes[start:])
        self._buffer.extend(zip(payloads[start:]))
        self._buffer_bytes += segment
        total += segment
        self.num_records += len(payloads)
        self.payload_bytes += total

    def _flush(self) -> None:
        if self._buffer:
            self.device.append_block(self._file, self._buffer)
            self._buffer = []
            self._buffer_bytes = 0

    def close(self) -> None:
        """Flush the tail block; the file becomes read-only."""
        if self._closed:
            return
        self._flush()
        self._closed = True

    def scan(self) -> Iterator[object]:
        """Stream payloads front to back with sequential block reads.

        Blocks hold ``(payload,)`` slots, so two nested C-level flattens
        stream the payloads without a per-record Python step."""
        return chain.from_iterable(chain.from_iterable(self.scan_blocks()))

    def scan_blocks(self) -> Iterator[Sequence[Tuple[object]]]:
        """Stream whole blocks sequentially — the block-granular iterator
        symmetric with :meth:`repro.io.files.ExternalFile.scan_blocks`.

        With a :class:`~repro.io.pool.SharedBufferPool` attached, blocks
        arrive through its readahead path (same charges, batched fetches).
        """
        yield from self.scan_block_range()

    def scan_block_range(self) -> Iterator[Sequence[Tuple[object]]]:
        """Stream every block front to back with sequential reads,
        mirroring :meth:`ExternalFile.scan_block_range`."""
        if not self._closed:
            raise StorageError(f"close {self.name!r} before scanning it")
        pool = self.device.pool
        if pool is not None:
            yield from pool.scan_blocks(self._file)
            return
        for index in range(self._file.num_blocks):
            yield self.device.read_block(self._file, index, sequential=True)

    def rename(self, new_name: str, overwrite: bool = True) -> None:
        """Rename the file on the device (metadata only)."""
        self.device.rename(self.name, new_name, overwrite=overwrite)

    def delete(self) -> None:
        """Remove the file from the device."""
        self.device.delete(self.name)
