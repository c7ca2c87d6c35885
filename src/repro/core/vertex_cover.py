"""External vertex cover selection (the node-selection core of Get-V).

The paper adapts Angel–Campigotto–Laforest [7]: scan every edge and add the
*larger* endpoint under the ``>`` operator to the cover.  The result is a
vertex cover (every edge contributes one endpoint) that provably excludes
the globally smallest node, which is what makes contraction progress
(Lemma 5.2).

:class:`BoundedCoverTable` implements the Type-2 reduction's in-memory
dictionary ``T``: it remembers up to ``s`` cover members, keeping the ``s``
*smallest* under ``>`` (small nodes are the likely removal candidates, so
remembering them prevents the most redundant cover additions).  Lookups may
miss (the table is bounded), which only ever makes the cover larger —
never incorrect.

:func:`external_vertex_cover` exposes the cover computation as a standalone
primitive over an edge file; it is the same external pipeline Get-V runs
(sorts + merge joins, O(sort(|E|)) I/Os, no O(|V|) memory).
"""

from __future__ import annotations

import heapq
from operator import neg
from typing import List, Set, Tuple

from repro.core.operators import NodeKey
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.memory import MemoryBudget

__all__ = ["BoundedCoverTable", "external_vertex_cover"]

_TABLE_ENTRY_BYTES = 16
"""Accounted size of one table entry (node id + key fields)."""


class BoundedCoverTable:
    """Bounded in-memory set of cover members, keeping the smallest keys.

    Args:
        capacity: maximum number of remembered nodes (``s`` in the paper).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(0, capacity)
        self._members: Set[int] = set()
        # Max-heap on keys via negated tuples, one entry per member, so
        # the root is always the member to evict.
        self._heap: List[Tuple[NodeKey, int]] = []

    @classmethod
    def from_memory(cls, nbytes: int) -> "BoundedCoverTable":
        """Size the table so it fits in ``nbytes`` of main memory."""
        return cls(nbytes // _TABLE_ENTRY_BYTES)

    def __contains__(self, node: int) -> bool:
        return node in self._members

    def __len__(self) -> int:
        return len(self._members)

    def add(self, node: int, key: NodeKey) -> None:
        """Remember ``node``; evict the largest-key member when full."""
        if self.capacity == 0 or node in self._members:
            return
        self._members.add(node)
        heapq.heappush(self._heap, (tuple(map(neg, key)), node))
        if len(self._members) > self.capacity:
            self._members.remove(heapq.heappop(self._heap)[1])


def external_vertex_cover(
    edge_file: EdgeFile,
    memory: MemoryBudget,
    product_operator: bool = False,
    type2_reduction: bool = False,
) -> NodeFile:
    """Compute a vertex cover of ``edge_file`` with the [7] scheme.

    Runs Get-V's external pipeline (degree file, degree-augmented edge
    file, one cover scan, sort + dedupe) as a standalone primitive.

    Args:
        edge_file: the graph's edges on a simulated device.
        memory: the external-memory budget.
        product_operator: use Definition 7.1 instead of 5.1.
        type2_reduction: drop redundant cover members via the bounded table.

    Returns:
        A sorted, unique :class:`NodeFile` covering every non-self-loop
        edge.
    """
    from repro.core.config import ExtSCCConfig
    from repro.core.contraction import get_v

    config = ExtSCCConfig(
        product_operator=product_operator, type2_reduction=type2_reduction
    )
    eout = edge_file.sorted_by_src(memory)
    ein = edge_file.sorted_by_dst(memory)
    cover = get_v(edge_file.device, edge_file, ein, eout, memory, config)
    ein.delete()
    eout.delete()
    return cover
