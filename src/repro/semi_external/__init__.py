"""Semi-external SCC solvers: all node state in memory (``c*|V| <= M``),
edges streamed from disk with sequential scans only.

Two solvers are registered in :data:`SEMI_SCC_SOLVERS`:

* ``spanning-tree`` — the mechanism of the paper's Semi-SCC substrate
  (1PB-SCC [26]) and the default;
* ``forward-backward`` — the simplest independent implementation, kept
  as the oracle that cross-checks it.

Both return identical canonical labels (min member per SCC).
"""

from typing import Callable, Dict, Iterable, Optional

from repro.constants import SCC_RECORD_BYTES
from repro.graph.edge_file import EdgeFile
from repro.io.blocks import BlockDevice
from repro.io.codecs import RecordStore, record_file_from_records
from repro.io.memory import MemoryBudget
from repro.plan import ExtPlan
from repro.semi_external.forward_backward import forward_backward_scc
from repro.semi_external.semi_kosaraju import semi_kosaraju_scc
from repro.semi_external.spanning_tree import SpanningTreeStats, spanning_tree_scc
from repro.semi_external.union_find import UnionFind

__all__ = [
    "spanning_tree_scc",
    "forward_backward_scc",
    "semi_kosaraju_scc",
    "SpanningTreeStats",
    "UnionFind",
    "SEMI_SCC_SOLVERS",
    "SemiSCCSolver",
    "run_semi_scc_to_file",
    "build_semi_plan",
    "SEMI_SCC_PRICED_PASSES",
]

SEMI_SCC_PRICED_PASSES = 3
"""Edge scans the cost model prices a semi-external solver at (matches
``CostModel.semi_scc``'s default caller; actual solver passes are
data-dependent)."""

SemiSCCSolver = Callable[..., Dict[int, int]]
"""A semi-external solver: ``(edge_file, node_ids, memory=...) -> labels``."""

SEMI_SCC_SOLVERS: Dict[str, SemiSCCSolver] = {
    "spanning-tree": spanning_tree_scc,
    "forward-backward": forward_backward_scc,
}
"""Scan-only semi-external solvers by name; ``"spanning-tree"`` is the
default Semi-SCC used by Ext-SCC (mirrors the paper's choice of 1PB-SCC).
The DFS-based :func:`semi_kosaraju_scc` is kept out of this map because
its I/O profile is random-read-bound — it is the Section III comparison
point, not a scan-only substrate."""


def run_semi_scc_to_file(
    solver: SemiSCCSolver,
    edge_file: EdgeFile,
    node_ids: Iterable[int],
    memory: MemoryBudget,
    out_name: Optional[str] = None,
) -> RecordStore:
    """Run a semi-external solver and persist ``(node, scc)`` records.

    The labels live in memory while the solver runs (the semi-external
    allowance); they are written back sorted by node id with sequential
    writes, which is the format the expansion phase consumes.
    """
    labels = solver(edge_file, node_ids, memory=memory)
    device: BlockDevice = edge_file.device
    name = out_name if out_name is not None else device.temp_name("scc")
    records = ((node, labels[node]) for node in sorted(labels))
    return record_file_from_records(device, name, records, SCC_RECORD_BYTES, sort_field=0)


def build_semi_plan(
    device: BlockDevice,
    edges: EdgeFile,
    nodes,
    memory: MemoryBudget,
    solver_name: str,
) -> "ExtPlan":
    """The semi-external hand-off as a one-stage plan.

    The stage is priced at the cost model's
    :data:`SEMI_SCC_PRICED_PASSES` sequential edge scans (the in-memory
    label computation and write-back are free in the model) and declares
    the ``semi`` checkpoint role.
    """
    e = edges.num_edges
    plan = ExtPlan("semi-scc", phase="semi-scc")

    def run_semi(ctx: dict) -> RecordStore:
        solver = SEMI_SCC_SOLVERS[solver_name]
        return run_semi_scc_to_file(solver, edges, nodes.scan(), memory)

    plan.stage("semi-scc", run_semi, checkpoint="semi",
               predict=lambda m: m.semi_scc(e, SEMI_SCC_PRICED_PASSES))
    return plan
