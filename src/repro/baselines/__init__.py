"""External-memory baselines the paper compares against: the EM-SCC
contraction heuristic [13] and DFS-SCC, external Kosaraju over the external
DFS of [8] with its buffered repository tree."""

from repro.baselines.brt import BufferedRepositoryTree
from repro.baselines.dfs_scc import DFSSCCOutput, dfs_scc
from repro.baselines.em_scc import EMSCCOutput, em_scc
from repro.baselines.node_table import NodeTable

__all__ = [
    "BufferedRepositoryTree",
    "NodeTable",
    "dfs_scc",
    "DFSSCCOutput",
    "em_scc",
    "EMSCCOutput",
]
