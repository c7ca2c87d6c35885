"""Edge and node files on the simulated disk.

:class:`EdgeFile` wraps an :class:`~repro.io.files.ExternalFile` of
``(u, v)`` records and provides the handful of external operations every
algorithm in the paper starts from: sequential scans, sorting by source or
destination, reversal, deduplication, and derivation of the (sorted, unique)
node file.  :class:`NodeFile` wraps a sorted file of ``(v,)`` records.
"""

from __future__ import annotations

from operator import itemgetter

from typing import Iterable, Iterator, Optional, Tuple

from repro.constants import EDGE_RECORD_BYTES, NODE_RECORD_BYTES
from repro.io.blocks import BlockDevice
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.sort import KEY_DST_SRC, external_sort_records

__all__ = ["EdgeFile", "NodeFile"]

Edge = Tuple[int, int]


class NodeFile:
    """A sorted, duplicate-free file of node ids.

    Args:
        file: the underlying external file of ``(v,)`` records, already
            sorted and unique.
    """

    def __init__(self, file: ExternalFile) -> None:
        self.file = file

    @classmethod
    def from_ids(
        cls,
        device: BlockDevice,
        name: str,
        ids: Iterable[int],
        memory: MemoryBudget,
        presorted: bool = False,
    ) -> "NodeFile":
        """Build a node file from an id stream, externally sorting unless
        the caller guarantees the stream is already sorted and unique."""
        records = ((v,) for v in ids)
        if presorted:
            return cls(ExternalFile.from_records(device, name, records, NODE_RECORD_BYTES))
        sorted_file = external_sort_records(
            device, records, NODE_RECORD_BYTES, memory, unique=True, out_name=name
        )
        return cls(sorted_file)

    @property
    def num_nodes(self) -> int:
        """Number of node ids in the file."""
        return self.file.num_records

    def scan(self) -> Iterator[int]:
        """Stream node ids in increasing order (sequential reads)."""
        return map(itemgetter(0), self.file.scan())

    def delete(self) -> None:
        """Remove the file from the device."""
        self.file.delete()

    def __len__(self) -> int:
        return self.num_nodes


class EdgeFile:
    """A file of directed edges ``(u, v)`` on the simulated disk."""

    def __init__(self, file: ExternalFile) -> None:
        self.file = file

    @classmethod
    def from_edges(
        cls,
        device: BlockDevice,
        name: str,
        edges: Iterable[Edge],
        overwrite: bool = False,
    ) -> "EdgeFile":
        """Write an edge stream to a new file with sequential writes."""
        return cls(
            ExternalFile.from_records(
                device, name, edges, EDGE_RECORD_BYTES, overwrite=overwrite
            )
        )

    @property
    def device(self) -> BlockDevice:
        """The device the file lives on."""
        return self.file.device

    @property
    def num_edges(self) -> int:
        """Number of edge records (parallel edges counted separately)."""
        return self.file.num_records

    @property
    def name(self) -> str:
        """The file's name on the device."""
        return self.file.name

    def scan(self) -> Iterator[Edge]:
        """Stream edges front to back with sequential reads."""
        return self.file.scan()  # type: ignore[return-value]

    def scan_blocks(self) -> Iterator[Tuple[Edge, ...]]:
        """Stream whole blocks of ``(u, v)`` records sequentially."""
        return self.scan_block_range()

    def scan_block_range(self) -> Iterator[Tuple[Edge, ...]]:
        """Stream every block of ``(u, v)`` records.

        Normalizes the two store kinds to one block shape: fixed-width
        blocks hold the records directly, compressed blocks hold
        ``(record,)`` slots (unwrapped here — an edge record always has
        two fields, a slot exactly one, so the shapes cannot collide).
        The block-granular primitive of the semi-external reachability
        kernels; block counts and charges match :meth:`scan` exactly.
        """
        for block in self.file.scan_block_range():
            if block and len(block[0]) == 1:
                yield tuple(slot[0] for slot in block)
            else:
                yield block  # type: ignore[misc]

    # -- external derivations ----------------------------------------------

    def sorted_by_src(
        self, memory: MemoryBudget, unique: bool = False, out_name: Optional[str] = None
    ) -> "EdgeFile":
        """``E_out``: edges sorted by ``(id(u), id(v))`` (paper, Alg. 3 l.3)."""
        return EdgeFile(
            external_sort_records(
                self.device, self.scan(), EDGE_RECORD_BYTES, memory,
                key=None, unique=unique, out_name=out_name, sort_field=0,
            )
        )

    def sorted_by_dst(
        self, memory: MemoryBudget, unique: bool = False, out_name: Optional[str] = None
    ) -> "EdgeFile":
        """``E_in``: edges sorted by ``(id(v), id(u))`` (paper, Alg. 3 l.2).

        Records stay in ``(u, v)`` orientation; only the sort key flips.
        """
        return EdgeFile(
            external_sort_records(
                self.device, self.scan(), EDGE_RECORD_BYTES, memory,
                key=KEY_DST_SRC, unique=unique, out_name=out_name,
                sort_field=1,
            )
        )

    def reversed_copy(self, out_name: Optional[str] = None) -> "EdgeFile":
        """``Ē``: every edge flipped, written with one scan + one write pass."""
        name = out_name if out_name is not None else self.device.temp_name("rev")
        return EdgeFile.from_edges(
            self.device, name, ((v, u) for u, v in self.scan())
        )

    def node_file(
        self, memory: MemoryBudget, out_name: Optional[str] = None
    ) -> NodeFile:
        """The sorted unique set of endpoint ids (``V`` derived from ``E``)."""
        ids: Iterator[int] = (x for u, v in self.scan() for x in (u, v))
        name = out_name if out_name is not None else self.device.temp_name("nodes")
        return NodeFile.from_ids(self.device, name, ids, memory)

    def deduplicated(
        self, memory: MemoryBudget, out_name: Optional[str] = None
    ) -> "EdgeFile":
        """Remove parallel edges with one external sort (Section VII)."""
        return self.sorted_by_src(memory, unique=True, out_name=out_name)

    def count_self_loops(self) -> int:
        """Number of ``(v, v)`` records, via one sequential scan."""
        return sum(1 for u, v in self.scan() if u == v)

    def delete(self) -> None:
        """Remove the file from the device."""
        self.file.delete()

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeFile({self.name!r}, edges={self.num_edges})"
