"""Graph statistics: degrees and arboricity bounds.

The contraction analysis of Section V runs on two quantities — node
degrees (the ``>`` operator, Theorem 5.3) and the graph's arboricity
(Theorem 5.4's edge-growth bound).  This module measures both, externally
for degree statistics (sorts + one co-scan over the edge file) and via the
Chiba–Nishizeki bound ``α ≤ min(⌈√|E|⌉, deg_max)`` for arboricity.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict

from repro.graph.edge_file import EdgeFile
from repro.io.join import cogroup
from repro.io.memory import MemoryBudget

__all__ = ["DegreeStats", "degree_stats", "arboricity_upper_bound"]


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a graph's degree structure (from one external pass)."""

    num_nodes: int            # nodes incident to at least one edge
    num_edges: int            # edge records (parallels counted)
    max_in_degree: int
    max_out_degree: int
    max_total_degree: int
    num_sources: int          # deg_in = 0 (Type-1 candidates)
    num_sinks: int            # deg_out = 0 (Type-1 candidates)
    histogram: Dict[int, int]  # total degree -> node count

    @property
    def average_degree(self) -> float:
        """|E| / |V| over the touched nodes."""
        return self.num_edges / self.num_nodes if self.num_nodes else 0.0


def degree_stats(edge_file: EdgeFile, memory: MemoryBudget) -> DegreeStats:
    """Degree statistics with two external sorts and one co-scan."""
    ein = edge_file.sorted_by_dst(memory)
    eout = edge_file.sorted_by_src(memory)
    histogram: Counter = Counter()
    num_nodes = 0
    max_in = max_out = max_total = 0
    sources = sinks = 0
    for _node, in_group, out_group in cogroup(
        ein.scan(), eout.scan(), lambda e: e[1], lambda e: e[0]
    ):
        deg_in, deg_out = len(in_group), len(out_group)
        num_nodes += 1
        max_in = max(max_in, deg_in)
        max_out = max(max_out, deg_out)
        max_total = max(max_total, deg_in + deg_out)
        sources += deg_in == 0
        sinks += deg_out == 0
        histogram[deg_in + deg_out] += 1
    ein.delete()
    eout.delete()
    return DegreeStats(
        num_nodes=num_nodes,
        num_edges=edge_file.num_edges,
        max_in_degree=max_in,
        max_out_degree=max_out,
        max_total_degree=max_total,
        num_sources=sources,
        num_sinks=sinks,
        histogram=dict(histogram),
    )


def arboricity_upper_bound(stats: DegreeStats) -> int:
    """Chiba–Nishizeki: ``α ≤ min(⌈√|E|⌉, deg_max)`` — the quantity in
    Theorem 5.4's edge-growth bound."""
    if stats.num_edges == 0:
        return 0
    return min(math.ceil(math.sqrt(stats.num_edges)), stats.max_total_degree)

