"""Simulated external-memory subsystem (the Aggarwal–Vitter I/O model).

Public surface:

* :class:`~repro.io.blocks.BlockDevice` — the simulated disk;
* :class:`~repro.io.files.ExternalFile` — fixed-width record files;
* :class:`~repro.io.memory.MemoryBudget` — main-memory budget ``M``;
* :class:`~repro.io.stats.IOStats` / :class:`~repro.io.stats.IOBudget` —
  the block-I/O ledger and the INF cutoff;
* :func:`~repro.io.sort.external_sort` and the merge-join helpers in
  :mod:`repro.io.join`.
"""

from repro.io.blocks import DEFAULT_BLOCK_SIZE, BlockDevice, DiskFile
from repro.io.cache import BufferPool, LabelCache
from repro.io.files import ExternalFile
from repro.io.persistent import (
    DeviceHandle,
    PersistentBlockDevice,
    ReadOnlyView,
    open_shared,
)
from repro.io.pool import SharedBufferPool
from repro.io.varfile import VarRecordFile, varint_size
from repro.io.join import anti_join, cogroup, grouped, lookup_join, merge_join, semi_join
from repro.io.memory import MemoryBudget
from repro.io.sort import external_sort, external_sort_records, external_sort_stream
from repro.io.stats import IOBudget, IOSnapshot, IOStats

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "BlockDevice",
    "PersistentBlockDevice",
    "DeviceHandle",
    "ReadOnlyView",
    "open_shared",
    "DiskFile",
    "ExternalFile",
    "BufferPool",
    "LabelCache",
    "SharedBufferPool",
    "VarRecordFile",
    "varint_size",
    "MemoryBudget",
    "IOStats",
    "IOSnapshot",
    "IOBudget",
    "external_sort",
    "external_sort_records",
    "external_sort_stream",
    "grouped",
    "cogroup",
    "lookup_join",
    "merge_join",
    "semi_join",
    "anti_join",
]
