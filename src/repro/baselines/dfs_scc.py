"""DFS-SCC: external Kosaraju–Sharir via external DFS (Buchsbaum et al. [8]).

Algorithm 1 of the paper: an external DFS of ``G`` yields a postorder; a
second external DFS of the transpose, restarted in decreasing postorder,
yields one SCC per DFS tree.  The external DFS follows [8]:

* per-node state (adjacency extent, visited flag) lives in a
  :class:`~repro.baselines.node_table.NodeTable` on disk, reached through a
  bounded LRU cache — every cache miss is a *random* read/write;
* adjacency lists are fetched block-by-block with random reads as the DFS
  jumps around the graph;
* when a node ``w`` is visited, a "delete w" message is inserted into a
  :class:`~repro.baselines.brt.BufferedRepositoryTree` keyed by each
  in-neighbor of ``w``; when the DFS resumes a node it extracts its pending
  messages (O(log) random I/Os) instead of re-checking children — the [8]
  mechanism.

Known simplifications versus a production [8] implementation, all noted in
DESIGN.md: the DFS stack and the per-frame deletion sets are held in memory
(their I/O is lower-order, so the ledger *under*-counts DFS-SCC — i.e. the
comparison is conservative in DFS-SCC's favor), and leaf buffers in the BRT
are rewritten wholesale rather than amortized.  The profile the paper plots
— I/O dominated by random accesses, growing with ``|V|`` — is preserved.
"""

from __future__ import annotations

from operator import itemgetter

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.constants import NODE_RECORD_BYTES, SCC_RECORD_BYTES
from repro.core.result import SCCResult
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.baselines.brt import BufferedRepositoryTree
from repro.baselines.node_table import NodeTable
from repro.io.blocks import BlockDevice
from repro.io.files import ExternalFile
from repro.io.join import cogroup
from repro.io.memory import MemoryBudget
from repro.io.sort import external_sort_records
from repro.io.stats import IOSnapshot

__all__ = ["dfs_scc", "DFSSCCOutput"]

_TABLE_RECORD_BYTES = 16  # (node, adj_start, adj_count, visited)


@dataclass
class DFSSCCOutput:
    """Result bundle of a DFS-SCC run."""

    result: SCCResult
    io: IOSnapshot
    wall_seconds: float
    brt_messages: int = 0


class _Adjacency:
    """An adjacency store: targets sorted by source + a node table."""

    def __init__(
        self,
        device: BlockDevice,
        edges: EdgeFile,
        nodes: NodeFile,
        memory: MemoryBudget,
        name: str,
        reverse: bool,
    ) -> None:
        key = (itemgetter(1, 0)) if reverse else None
        sorted_edges = external_sort_records(
            device, edges.scan(), 8, memory, key=key
        )
        self.targets = ExternalFile.create(device, f"{name}.adj", NODE_RECORD_BYTES)
        spill = ExternalFile.create(device, f"{name}.table.build", _TABLE_RECORD_BYTES)

        def source(e: Tuple[int, int]) -> int:
            return e[1] if reverse else e[0]

        def target(e: Tuple[int, int]) -> int:
            return e[0] if reverse else e[1]

        position = 0
        node_stream: Iterator[Tuple[int, ...]] = ((v,) for v in nodes.scan())
        for node, node_group, edge_group in cogroup(
            node_stream, sorted_edges.scan(), itemgetter(0), source
        ):
            if not node_group:
                continue  # edge endpoint outside the node file: ignore
            start = position
            for edge in edge_group:
                self.targets.append((target(edge),))
                position += 1
            spill.append((node, start, position - start, 0))
        self.targets.close()
        spill.close()
        sorted_edges.delete()
        self.table = NodeTable(
            device, spill.scan(), _TABLE_RECORD_BYTES, memory, name=f"{name}.table"
        )
        spill.delete()
        self._capacity = self.targets._file.block_capacity

    def read_targets(self, start: int, count: int, offset: int) -> Tuple[List[int], int]:
        """Targets from ``start+offset`` to the end of that disk block.

        Returns the targets and the new offset; one random block read.
        """
        position = start + offset
        block_index = position // self._capacity
        block = self.targets.read_block_random(block_index)
        block_end = (block_index + 1) * self._capacity
        end = min(start + count, block_end)
        targets = [block[p % self._capacity][0] for p in range(position, end)]
        return targets, end - start

    def neighbors(self, start: int, count: int) -> List[int]:
        """All targets of one node (random block reads)."""
        out: List[int] = []
        offset = 0
        while offset < count:
            chunk, offset = self.read_targets(start, count, offset)
            out.extend(chunk)
        return out

    def delete(self) -> None:
        self.targets.delete()
        self.table.delete()


class _Frame:
    """One external-DFS stack frame."""

    __slots__ = ("node", "start", "count", "offset", "buffer", "deleted")

    def __init__(self, node: int, start: int, count: int) -> None:
        self.node = node
        self.start = start
        self.count = count
        self.offset = 0
        self.buffer: List[int] = []
        self.deleted: Set[int] = set()


def _external_dfs(
    forward: _Adjacency,
    backward: _Adjacency,
    roots: Iterable[int],
    brt: BufferedRepositoryTree,
    on_visit,
    on_finish,
) -> int:
    """Generic external DFS over ``forward``, with [8]'s BRT mechanism.

    ``backward`` supplies in-neighbors for visited-message insertion.
    Returns the number of BRT messages inserted.
    """
    messages = 0

    def visit(node: int, record: Tuple[int, ...]) -> _Frame:
        nonlocal messages
        forward.table.update(node, (node, record[1], record[2], 1))
        rev_record = backward.table.get(node)
        if rev_record is not None and rev_record[2] > 0:
            for in_neighbor in backward.neighbors(rev_record[1], rev_record[2]):
                if in_neighbor != node:
                    brt.insert(in_neighbor, node)
                    messages += 1
        on_visit(node)
        return _Frame(node, record[1], record[2])

    for root in roots:
        record = forward.table.get(root)
        if record is None or record[3]:
            continue
        stack: List[_Frame] = [visit(root, record)]
        while stack:
            frame = stack[-1]
            frame.deleted.update(brt.extract_all(frame.node))
            child: Optional[int] = None
            while child is None:
                if not frame.buffer:
                    if frame.offset >= frame.count:
                        break
                    frame.buffer, frame.offset = forward.read_targets(
                        frame.start, frame.count, frame.offset
                    )
                candidate = frame.buffer.pop(0)
                if candidate == frame.node or candidate in frame.deleted:
                    continue
                child = candidate
            if child is None:
                on_finish(frame.node)
                stack.pop()
                continue
            child_record = forward.table.get(child)
            if child_record is None or child_record[3]:
                # Visited before this frame's messages could name it; the
                # BRT message is still in flight — skip directly.
                frame.deleted.add(child)
                continue
            stack.append(visit(child, child_record))
    return messages


def dfs_scc(
    device: BlockDevice,
    edges: EdgeFile,
    nodes: NodeFile,
    memory: MemoryBudget,
    brt_buffer_blocks: int = 4,
) -> DFSSCCOutput:
    """Compute all SCCs with external Kosaraju (Algorithm 1 / [8]).

    Args:
        device: the simulated disk (its I/O budget, if any, applies —
            exceeding it raises
            :class:`~repro.exceptions.IOBudgetExceeded`, reported as INF).
        edges: the edge file.
        nodes: the node file (sorted unique ids).
        memory: the budget ``M``.
        brt_buffer_blocks: BRT flush threshold.

    Returns:
        A :class:`DFSSCCOutput` with the labeling and I/O counts.
    """
    start_time = time.perf_counter()
    run_start = device.stats.snapshot()
    max_id = 0
    for v in nodes.scan():
        max_id = v if v > max_id else max_id

    forward = _Adjacency(device, edges, nodes, memory, "dfs.fwd", reverse=False)
    backward = _Adjacency(device, edges, nodes, memory, "dfs.bwd", reverse=True)

    # Pass 1: postorder of G.
    postorder = ExternalFile.create(device, "dfs.postorder", NODE_RECORD_BYTES)
    brt1 = BufferedRepositoryTree(device, max_id + 1, brt_buffer_blocks,
                                  name="store1")
    messages = _external_dfs(
        forward,
        backward,
        nodes.scan(),
        brt1,
        on_visit=lambda node: None,
        on_finish=lambda node: postorder.append((node,)),
    )
    brt1.drop()
    postorder.close()

    # Pass 2: DFS of the transpose in decreasing postorder; each tree is an
    # SCC.  The roles of the two adjacency stores swap, and the transpose
    # table carries the fresh visited flags.
    labels = ExternalFile.create(device, "dfs.labels", SCC_RECORD_BYTES)
    brt2 = BufferedRepositoryTree(device, max_id + 1, brt_buffer_blocks,
                                  name="store2")
    current_root: List[int] = [0]

    def on_visit(node: int) -> None:
        labels.append((node, current_root[0]))

    def roots() -> Iterator[int]:
        for (node,) in postorder.scan_reverse():
            current_root[0] = node
            yield node

    messages += _external_dfs(
        backward, forward, roots(), brt2, on_visit=on_visit, on_finish=lambda n: None
    )
    brt2.drop()
    labels.close()

    result = SCCResult.from_pairs(labels.scan())
    labels.delete()
    postorder.delete()
    forward.delete()
    backward.delete()
    return DFSSCCOutput(
        result=result,
        io=device.stats.snapshot() - run_start,
        wall_seconds=time.perf_counter() - start_time,
        brt_messages=messages,
    )
