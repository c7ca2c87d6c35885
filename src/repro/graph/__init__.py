"""Graph layer: in-memory digraphs, graph files on the simulated disk,
synthetic generators, named datasets, and interchange formats."""

from repro.graph.digraph import DiGraph
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.graph.generators import (
    GeneratedGraph,
    complete_digraph,
    cycle_graph,
    large_scc_graph,
    massive_scc_graph,
    path_graph,
    planted_scc_graph,
    random_dag,
    random_digraph,
    rmat_graph,
    small_scc_graph,
    webspam_like,
)
from repro.graph.datasets import (
    DATASET_FAMILIES,
    FIGURE1_SCCS,
    TABLE1,
    Table1Row,
    build_dataset,
    figure1_graph,
)
from repro.graph.io_formats import (
    dump_edge_file,
    load_edge_file,
    read_edge_binary,
    read_edge_text,
    write_edge_binary,
    write_edge_text,
)

__all__ = [
    "DiGraph",
    "EdgeFile",
    "NodeFile",
    "GeneratedGraph",
    "planted_scc_graph",
    "massive_scc_graph",
    "large_scc_graph",
    "small_scc_graph",
    "webspam_like",
    "random_digraph",
    "random_dag",
    "rmat_graph",
    "cycle_graph",
    "path_graph",
    "complete_digraph",
    "figure1_graph",
    "FIGURE1_SCCS",
    "TABLE1",
    "Table1Row",
    "build_dataset",
    "DATASET_FAMILIES",
    "write_edge_text",
    "read_edge_text",
    "write_edge_binary",
    "read_edge_binary",
    "load_edge_file",
    "dump_edge_file",
]
