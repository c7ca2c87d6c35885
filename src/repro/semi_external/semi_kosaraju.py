"""DFS-based semi-external SCC (the Section III comparison point).

Section III describes the semi-external *DFS* route to SCCs: run
Kosaraju–Sharir (Algorithm 1) with node state in memory and the edges on
disk.  With O(|V|) memory the visited flags, the DFS stack and the
postorder fit in RAM, but each node expansion must fetch its adjacency
list from disk — a *random* block read per node, unlike the scan-only
spanning-tree and FW-BW solvers.

The paper's [26] (whose mechanism `spanning_tree_scc` reproduces) was
motivated precisely by this: the DFS route cannot contract partial SCCs
early and pays random I/O per node.  `benchmarks/test_semi_solvers.py`
measures the gap.

This solver is exported separately from :data:`SEMI_SCC_SOLVERS` because
its I/O profile is intentionally different (random reads); plugging it
into Ext-SCC still yields correct results.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.constants import NODE_RECORD_BYTES, SEMI_EXTERNAL_BYTES_PER_NODE
from repro.graph.edge_file import EdgeFile
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.sort import external_sort_records

__all__ = ["semi_kosaraju_scc"]


class _DiskAdjacency:
    """Adjacency lists on disk with an in-memory (node -> extent) index.

    The index is O(|V|) integers — the semi-external allowance; the target
    lists are fetched with random block reads on demand.
    """

    def __init__(self, edge_file: EdgeFile, memory: Optional[MemoryBudget],
                 reverse: bool) -> None:
        device = edge_file.device
        sort_memory = memory if memory is not None else MemoryBudget(
            max(4 * device.block_size, 4096)
        )
        key = (lambda e: (e[1], e[0])) if reverse else None
        sorted_edges = external_sort_records(
            device, edge_file.scan(), 8, sort_memory, key=key
        )
        self.targets = ExternalFile.create(
            device, device.temp_name("skadj"), NODE_RECORD_BYTES
        )
        self.index: Dict[int, Tuple[int, int]] = {}
        position = 0
        current: Optional[int] = None
        start = 0
        for u, v in sorted_edges.scan():
            src, dst = (v, u) if reverse else (u, v)
            if src != current:
                if current is not None:
                    self.index[current] = (start, position - start)
                current, start = src, position
            self.targets.append((dst,))
            position += 1
        if current is not None:
            self.index[current] = (start, position - start)
        self.targets.close()
        sorted_edges.delete()
        self._capacity = self.targets._file.block_capacity

    def neighbors(self, node: int) -> List[int]:
        """Fetch ``node``'s targets (random block reads)."""
        extent = self.index.get(node)
        if extent is None:
            return []
        start, count = extent
        out: List[int] = []
        position = start
        end = start + count
        while position < end:
            block_index = position // self._capacity
            block = self.targets.read_block_random(block_index)
            block_end = (block_index + 1) * self._capacity
            for p in range(position, min(end, block_end)):
                out.append(block[p % self._capacity][0])
            position = min(end, block_end)
        return out

    def delete(self) -> None:
        self.targets.delete()


def _dfs_postorder(adjacency: _DiskAdjacency, roots: Iterable[int],
                   visited: Set[int]) -> List[int]:
    order: List[int] = []
    for root in roots:
        if root in visited:
            continue
        visited.add(root)
        stack: List[Tuple[int, List[int], int]] = [
            (root, adjacency.neighbors(root), 0)
        ]
        while stack:
            node, targets, cursor = stack.pop()
            advanced = False
            while cursor < len(targets):
                child = targets[cursor]
                cursor += 1
                if child not in visited:
                    visited.add(child)
                    stack.append((node, targets, cursor))
                    stack.append((child, adjacency.neighbors(child), 0))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
    return order


def semi_kosaraju_scc(
    edge_file: EdgeFile,
    node_ids: Iterable[int],
    memory: Optional[MemoryBudget] = None,
) -> Dict[int, int]:
    """Kosaraju–Sharir with in-memory node state and on-disk adjacency.

    Args:
        edge_file: the graph's edges on the simulated disk.
        node_ids: all node ids (isolated nodes included).
        memory: when given, assert the semi-external requirement first.

    Returns:
        Canonical labeling ``node -> min id of its SCC``.
    """
    nodes = list(node_ids)
    if memory is not None:
        memory.require_at_least(
            SEMI_EXTERNAL_BYTES_PER_NODE * len(nodes)
            + edge_file.device.block_size,
            what="semi-external Kosaraju SCC",
        )
    forward = _DiskAdjacency(edge_file, memory, reverse=False)
    backward = _DiskAdjacency(edge_file, memory, reverse=True)

    postorder = _dfs_postorder(forward, nodes, set())

    labels: Dict[int, int] = {}
    visited: Set[int] = set()
    for root in reversed(postorder):
        if root in visited:
            continue
        component = _dfs_postorder(backward, [root], visited)
        rep = min(component)
        for node in component:
            labels[node] = rep
    forward.delete()
    backward.delete()
    return labels
