"""EM-SCC: the whole-graph-contraction heuristic (Cosgaya-Lozano & Zeh [13]).

EM-SCC compresses the graph iteratively: partition the edge file into
memory-sized chunks, find the SCCs *inside* each chunk with an in-memory
algorithm, contract every non-trivial chunk-local SCC into a super-node,
rewrite the edge file through the contraction map, and repeat until the
whole graph fits in memory — then finish in memory.

The paper's critique, which this implementation deliberately preserves:

* **Case-1** — an SCC that straddles every chunk boundary is never detected
  inside a chunk, so no contraction happens;
* **Case-2** — a DAG has no SCCs at all, so nothing ever contracts;

in either case an iteration makes no progress while the graph still does
not fit, and the loop would run forever.  We detect a zero-contraction
iteration and raise :class:`~repro.exceptions.NonTermination` (the
benchmark harness reports it like the paper does: the algorithm "cannot
stop in all cases").

The contraction map for each iteration is chunk-local (each chunk fits in
memory, so its map does too); the cumulative original-node → super-node map
is maintained externally and composed with sorts and merge joins.
"""

from __future__ import annotations

from operator import itemgetter

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.constants import EDGE_RECORD_BYTES, NODE_RECORD_BYTES, SCC_RECORD_BYTES
from repro.core.result import SCCResult
from repro.exceptions import NonTermination
from repro.graph.digraph import DiGraph
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.codecs import RecordStore, create_record_file, record_file_from_records
from repro.io.join import cogroup
from repro.io.memory import MemoryBudget
from repro.io.sort import KEY_DST_SRC, KEY_SRC_DST, external_sort_records, external_sort_stream
from repro.io.stats import IOSnapshot
from repro.memory_scc.tarjan import tarjan_scc
from repro.plan import ExtPlan, PlanExecutor, TraceLedger

__all__ = ["em_scc", "EMSCCOutput", "build_em_iteration_plan"]

_GRAPH_BYTES_PER_EDGE = EDGE_RECORD_BYTES
_WORKING_FACTOR = 4
"""In-memory expansion factor for adjacency structures over raw records:
the chunk size is ``M / (edge bytes * factor)`` edges."""


@dataclass
class EMSCCOutput:
    """Result bundle of an EM-SCC run (when it terminates)."""

    result: SCCResult
    io: IOSnapshot
    wall_seconds: float
    iterations: int
    contractions: int


def _graph_fits(num_nodes: int, num_edges: int, memory: MemoryBudget) -> bool:
    """EM-SCC's stop condition: the *whole graph* must fit in memory
    (stricter than Ext-SCC's nodes-only condition — the paper's point)."""
    footprint = _WORKING_FACTOR * (
        num_edges * EDGE_RECORD_BYTES + num_nodes * NODE_RECORD_BYTES
    )
    return footprint <= memory.nbytes


def _rewrite_endpoint(
    device: BlockDevice,
    edges: RecordStore,
    mapping: RecordStore,
    memory: MemoryBudget,
    endpoint: int,
) -> RecordStore:
    """Map one endpoint of every edge through a sorted (old, new) file.

    The by-endpoint sort streams straight into the rewrite co-scan; no
    sorted copy of the edge file is materialized.
    """
    sorted_edges = external_sort_stream(
        device, edges.scan(), EDGE_RECORD_BYTES, memory,
        key=(KEY_SRC_DST if endpoint == 0 else KEY_DST_SRC), sort_field=endpoint,
    )
    # The rewritten endpoint breaks the scan order, so no gap field.
    out = create_record_file(
        device, device.temp_name("emrw"), EDGE_RECORD_BYTES, sort_field=None
    )
    for _, edge_group, map_group in cogroup(
        sorted_edges, mapping.scan(), itemgetter(endpoint), itemgetter(0)
    ):
        new_id = map_group[0][1] if map_group else None
        for edge in edge_group:
            if new_id is None:
                out.append(edge)
            elif endpoint == 0:
                out.append((new_id, edge[1]))
            else:
                out.append((edge[0], new_id))
    out.close()
    return out


def build_em_iteration_plan(
    device: BlockDevice,
    current_edges: RecordStore,
    cumulative: RecordStore,
    memory: MemoryBudget,
    iteration: int,
    num_nodes: int,
    chunk_size: int,
    owns_edges: bool,
) -> ExtPlan:
    """One EM-SCC compression pass as a six-stage plan.

    The stages run in the order of the original loop body.  The
    edge-file- and map-sized stages are priced (the two endpoint-rewrite
    sorts and the map sort stream into their consumers); the chunk-map
    dedupe is data-dependent and stays unpriced.  The final stage returns
    ``(cleaned_edges, composed_map, contractions, nodes_removed)``.
    """
    e = current_edges.num_records
    n_map = cumulative.num_records
    t = iteration
    plan = ExtPlan(f"em-scc-{t}", phase=f"em-scc/iter-{t}")

    # -- stage 1: partition the edge file, contract chunk-local SCCs -------
    def run_partition(ctx: dict):
        pairs = create_record_file(
            device, device.temp_name("empairs"), SCC_RECORD_BYTES, sort_field=None
        )
        contractions = 0
        chunk: List[Tuple[int, int]] = []

        def contract_chunk(chunk_edges_list: List[Tuple[int, int]]) -> int:
            found = 0
            graph = DiGraph(chunk_edges_list)
            labels = tarjan_scc(graph)
            for node, rep in labels.items():
                if node != rep:
                    pairs.append((node, rep))
                    found += 1
            return found

        for edge in current_edges.scan():
            if edge[0] == edge[1]:
                continue
            chunk.append(edge)
            if len(chunk) >= chunk_size:
                contractions += contract_chunk(chunk)
                chunk = []
        if chunk:
            contractions += contract_chunk(chunk)
        pairs.close()
        if contractions == 0:
            pairs.delete()
            raise NonTermination(
                f"EM-SCC made no progress in iteration {t} "
                f"({num_nodes} nodes, {current_edges.num_records} edges still "
                "exceed memory): the paper's Case-1/Case-2"
            )
        return pairs, contractions

    plan.stage("partition-contract", run_partition,
               predict=lambda m: m.scan(e, EDGE_RECORD_BYTES))

    # -- stage 2: first-wins dedupe of the chunk maps ----------------------

    def run_dedupe(ctx: dict) -> RecordStore:
        pairs, _ = ctx["partition-contract"]
        # Chunk maps may disagree when a node is contracted in two chunks;
        # resolving that needs transitive information the heuristic does
        # not have, so like [13] we keep the first mapping per node.  The
        # sort streams into the first-wins dedupe scan.
        mapping = external_sort_stream(
            device, pairs.scan(), SCC_RECORD_BYTES, memory, unique=True
        )
        deduped = create_record_file(
            device, device.temp_name("emmap1"), SCC_RECORD_BYTES, sort_field=0
        )
        last_node = None
        for node, rep in mapping:
            if node != last_node:
                deduped.append((node, rep))
                last_node = node
        deduped.close()
        pairs.delete()
        return deduped

    plan.stage("dedupe-map", run_dedupe)

    # -- stages 3+4: rewrite both endpoints through the mapping ------------
    def rewrite_stage(endpoint: int) -> None:
        side = "src" if endpoint == 0 else "dst"

        def run_rewrite(ctx: dict) -> RecordStore:
            deduped = ctx["dedupe-map"]
            if endpoint == 0:
                rewritten = _rewrite_endpoint(
                    device, current_edges, deduped, memory, endpoint=0
                )
                if owns_edges:
                    current_edges.delete()
            else:
                prev_store = ctx["rewrite-src"]
                rewritten = _rewrite_endpoint(
                    device, prev_store, deduped, memory, endpoint=1
                )
                prev_store.delete()
            return rewritten

        # The streamed by-endpoint sort, then the rewritten file's write.
        plan.stage(f"rewrite-{side}", run_rewrite, predict=lambda m: (
            m.sort_streamed(e, EDGE_RECORD_BYTES) + m.scan(e, EDGE_RECORD_BYTES)
        ))

    rewrite_stage(0)
    rewrite_stage(1)

    # -- stage 5: drop self-loops + duplicates from the contraction --------
    def run_clean(ctx: dict) -> RecordStore:
        rewritten2 = ctx["rewrite-dst"]
        cleaned = external_sort_records(
            device,
            ((u, v) for u, v in rewritten2.scan() if u != v),
            EDGE_RECORD_BYTES,
            memory,
            unique=True,
        )
        rewritten2.delete()
        return cleaned

    plan.stage("clean-edges", run_clean,
               predict=lambda m: m.sort(e, EDGE_RECORD_BYTES))

    # -- stage 6: compose the cumulative map with this contraction ---------

    def run_compose(ctx: dict):
        _, contractions = ctx["partition-contract"]
        deduped = ctx["dedupe-map"]
        cleaned = ctx["clean-edges"]
        nodes_removed = sum(1 for _ in deduped.scan())
        # The by-current sort streams into the composition co-scan.
        by_current = external_sort_stream(
            device, cumulative.scan(), SCC_RECORD_BYTES, memory,
            key=KEY_DST_SRC, sort_field=1,
        )
        composed = create_record_file(
            device, device.temp_name("emmap2"), SCC_RECORD_BYTES, sort_field=None
        )
        for _, cum_group, map_group in cogroup(
            by_current, deduped.scan(), itemgetter(1), itemgetter(0)
        ):
            new_id = map_group[0][1] if map_group else None
            for orig, current in cum_group:
                composed.append((orig, new_id if new_id is not None else current))
        composed.close()
        cumulative.delete()
        deduped.delete()
        return cleaned, composed, contractions, nodes_removed

    # The streamed by-current map sort, then the composed map's write.
    plan.stage("compose-map", run_compose, predict=lambda m: (
        m.sort_streamed(n_map, SCC_RECORD_BYTES)
        + m.scan(n_map, SCC_RECORD_BYTES)
    ))
    return plan


def em_scc(
    device: BlockDevice,
    edges: EdgeFile,
    nodes: NodeFile,
    memory: MemoryBudget,
    max_iterations: int = 1000,
    trace: Optional[TraceLedger] = None,
) -> EMSCCOutput:
    """Run EM-SCC; raises :class:`NonTermination` on a no-progress pass.

    Args:
        device: the simulated disk.
        edges: the edge file.
        nodes: the node file (sorted unique ids).
        memory: the budget ``M``.
        max_iterations: hard cap (the non-termination detector normally
            fires long before).
        trace: optional ledger collecting one span per executed plan stage
            (predicted vs. measured I/Os), as for Ext-SCC.

    Returns:
        An :class:`EMSCCOutput` when the heuristic converges.
    """
    # Local import: keeps baselines importable without analysis.
    from repro.analysis.cost_model import CostModel

    start_time = time.perf_counter()
    run_start = device.stats.snapshot()
    chunk_size = max(16, memory.nbytes // (_GRAPH_BYTES_PER_EDGE * _WORKING_FACTOR))
    model = CostModel(device.block_size, memory.nbytes)
    executor = PlanExecutor(device, trace=trace)

    # Cumulative map (original -> current super-node), kept sorted by the
    # *current* id so it can be composed with each iteration's contraction.
    cumulative = record_file_from_records(
        device,
        device.temp_name("emmap"),
        ((v, v) for v in nodes.scan()),
        SCC_RECORD_BYTES,
        sort_field=0,
    )
    current_edges: RecordStore = edges.file
    owns_edges = False
    num_nodes = nodes.num_nodes
    iterations = 0
    total_contractions = 0

    while not _graph_fits(num_nodes, current_edges.num_records, memory):
        iterations += 1
        if iterations > max_iterations:
            raise NonTermination(f"EM-SCC exceeded {max_iterations} iterations")
        plan = build_em_iteration_plan(
            device, current_edges, cumulative, memory, iterations,
            num_nodes, chunk_size, owns_edges,
        )
        plan.price(model)
        cleaned, composed, contractions, nodes_removed = executor.execute(plan)
        total_contractions += contractions
        current_edges = cleaned
        owns_edges = True
        num_nodes -= nodes_removed
        cumulative = composed

    # --- the remainder fits: finish in memory.
    final_graph = DiGraph(current_edges.scan())
    final_labels = tarjan_scc(final_graph)
    if owns_edges:
        current_edges.delete()

    by_current = external_sort_records(
        device, cumulative.scan(), SCC_RECORD_BYTES, memory,
        key=KEY_DST_SRC, sort_field=1,
    )
    cumulative.delete()
    labels: Dict[int, int] = {}
    for orig, current in by_current.scan():
        labels[orig] = final_labels.get(current, current)
    by_current.delete()

    return EMSCCOutput(
        result=SCCResult(labels),
        io=device.stats.snapshot() - run_start,
        wall_seconds=time.perf_counter() - start_time,
        iterations=iterations,
        contractions=total_contractions,
    )
