"""In-memory reference SCC algorithms (Tarjan, Kosaraju) and the
condensation DAG they enable."""

from repro.memory_scc.condensation import condensation, is_dag, topological_order
from repro.memory_scc.dfs import dfs_postorder, dfs_preorder, reachable_from
from repro.memory_scc.kosaraju import kosaraju_scc
from repro.memory_scc.tarjan import tarjan_scc

__all__ = [
    "tarjan_scc",
    "kosaraju_scc",
    "condensation",
    "topological_order",
    "is_dag",
    "dfs_postorder",
    "dfs_preorder",
    "reachable_from",
]
