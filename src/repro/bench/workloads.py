"""Benchmark workloads: the paper's datasets at simulation scale.

The paper's sweeps are re-expressed in scale-free terms so they survive the
10^-3 node-count scaling (DESIGN.md):

* memory is swept as a *ratio* of the semi-external threshold
  ``8 * |V| + B`` (Table I's 200M–600M at |V|=100M are ratios 0.25–0.75 of
  ``8|V|``; Figure 7's 400M–1G on WEBSPAM are ratios ~0.47–1.21);
* graph size (Figure 6) is swept as a percentage of the edge file;
* everything else (degree, SCC size/count sweeps) carries over directly.

``REPRO_BENCH_NODES`` scales every workload up or down (default 4000
nodes; the paper's default |V| is 100M).
"""

from __future__ import annotations

import os
import random
from typing import List, Optional, Tuple

from repro.graph.datasets import build_dataset
from repro.graph.generators import GeneratedGraph, webspam_like

__all__ = [
    "BENCH_NODES",
    "BLOCK_SIZE",
    "semi_threshold",
    "memory_for_ratio",
    "MEMORY_RATIOS",
    "WEBSPAM_MEMORY_RATIOS",
    "shuffled_edges",
    "webspam_graph",
    "subsample_edges",
    "family_graph",
]

BENCH_NODES = int(os.environ.get("REPRO_BENCH_NODES", "4000"))
"""Node count for the default-sized benchmark graphs (paper: 100M)."""

BLOCK_SIZE = 1024
"""Simulated block size used by the benchmarks."""

MEMORY_RATIOS = (0.4, 0.45, 0.5, 0.625, 0.75)
"""Table I's memory sweep as ratios of the semi-external threshold.

The paper sweeps 200M..600M at 8|V| = 800M, i.e. ratios 0.25..0.75; at
simulation scale the deepest ratios densify the contracted graph beyond
what pure Python finishes in minutes (the same densification the paper
observes as "the contraction rate decreases ... since the graph becomes
denser"), so the sweep starts at 0.4.  EXPERIMENTS.md records this."""

WEBSPAM_MEMORY_RATIOS = (0.47, 0.71, 0.94, 1.21)
"""Figure 7's 400M..1G sweep against WEBSPAM's 8|V| = 847M."""

DEFAULT_MEMORY_RATIO = 0.5
"""Table I's default memory (400M at 8|V|=800M)."""


def semi_threshold(num_nodes: int, block_size: int = BLOCK_SIZE) -> int:
    """Memory needed to run Semi-SCC directly: ``8|V| + B``."""
    return 8 * num_nodes + block_size


def memory_for_ratio(
    num_nodes: int, ratio: float, block_size: int = BLOCK_SIZE
) -> int:
    """A memory budget at ``ratio`` times the semi-external threshold."""
    return max(2 * block_size, int(ratio * semi_threshold(num_nodes, block_size)))


def shuffled_edges(graph: GeneratedGraph, seed: int = 12345) -> List[Tuple[int, int]]:
    """The graph's edges in a deterministic random on-disk order.

    Generators emit planted-SCC edges contiguously; real edge files are not
    ordered that way, and EM-SCC's behaviour "relies largely on the order
    of edges stored on disk" (Section IV) — so benchmarks store shuffled
    files.
    """
    edges = list(graph.edges)
    random.Random(seed).shuffle(edges)
    return edges


def webspam_graph(num_nodes: Optional[int] = None, seed: int = 7) -> GeneratedGraph:
    """The WEBSPAM-UK2007 stand-in at benchmark scale.

    The real crawl averages 35 edges per page; pure-Python contraction on
    a degree-35 graph is infeasible, so the stand-in uses degree 6 and the
    memory sweep keeps the paper's M / 8|V| ratios (see DESIGN.md).
    """
    return webspam_like(num_nodes or BENCH_NODES, avg_degree=6.0, seed=seed)


def subsample_edges(
    edges: List[Tuple[int, int]], percent: int, seed: int = 99
) -> List[Tuple[int, int]]:
    """Keep ``percent``% of the edges (Figure 6 varies graph size this way)."""
    if percent >= 100:
        return list(edges)
    rng = random.Random(seed)
    keep = int(len(edges) * percent / 100)
    return rng.sample(edges, keep)


def family_graph(
    family: str,
    num_nodes: Optional[int] = None,
    avg_degree: Optional[float] = None,
    scc_size: Optional[int] = None,
    scc_count: Optional[int] = None,
    seed: int = 0,
) -> GeneratedGraph:
    """A Table I dataset at benchmark scale (``BENCH_NODES`` by default)."""
    return build_dataset(
        family,
        num_nodes=num_nodes or BENCH_NODES,
        avg_degree=avg_degree,
        scc_size=scc_size,
        scc_count=scc_count,
        seed=seed,
    )
