"""Graph contraction: Get-V (Algorithm 3) and Get-E (Algorithm 4).

One contraction iteration turns ``G_i`` into ``G_{i+1}``:

1. **Get-V** selects ``V_{i+1}`` as a vertex cover of ``G_i`` — externally:
   sort edges into ``E_in``/``E_out``, co-scan them into a degree file
   ``V_d``, augment both endpoints of every edge with their degrees
   (``E_d``), then a single scan adds each edge's larger endpoint under the
   ``>`` operator.  The cover is sorted and deduplicated.  This guarantees
   the **recoverable** (cover) and **contractible** (the smallest node is
   never picked) properties — Lemmas 5.1/5.2.

2. **Get-E** builds ``E_{i+1}``: the preserved edges with both endpoints in
   ``V_{i+1}`` (two semi-joins and a sort), plus, for every removed node
   ``v``, the bypass edges ``nbr_in(v) × nbr_out(v)`` (a co-scan of the
   removed in- and out-edge groups).  This yields the **SCC-preservable**
   property — Lemma 5.3.

Section VII reductions hook in where the paper puts them: Type-1 trimming
inside the ``V_d`` co-scan, Type-2 inside the cover scan via the bounded
table, self-loop removal inside the ``E_add`` emission, parallel-edge
removal inside the ``E_in``/``E_out`` sorts, and the product-aware operator
inside the cover comparison.

Every step is a sequential scan or an external sort on the simulated
device; the I/O ledger shows zero random accesses.
"""

from __future__ import annotations

from itertools import chain, groupby, product
from operator import itemgetter

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.constants import EDGE_RECORD_BYTES, NODE_RECORD_BYTES
from repro.core.config import ExtSCCConfig
from repro.core.operators import make_key_fn
from repro.core.vertex_cover import BoundedCoverTable
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.codecs import RecordStore, create_record_file, record_file_from_records
from repro.io.join import anti_join, cogroup, lookup_join, semi_join
from repro.io.memory import MemoryBudget
from repro.io.sort import KEY_DST_SRC, KEY_SRC_DST, external_sort_records, external_sort_stream
from repro.plan import ExtPlan, PlanExecutor

__all__ = [
    "ContractionLevel",
    "contract",
    "build_contract_plan",
    "get_v",
    "get_e",
    "build_degree_file",
]

# Default next-level size coefficients for the Get-E terms whose inputs
# do not exist until the iteration runs (measured medians of the
# contraction traces; ``analysis.planner.plan_ext_scc`` uses the same).
NODE_RETENTION_EST = 0.72
EDGE_GROWTH_EST = 1.25

Record = Tuple[int, ...]


@dataclass
class ContractionLevel:
    """Everything one contraction iteration leaves behind for expansion.

    Attributes:
        level: iteration number ``i`` (1-based).
        edges: ``E_i`` — the edge file of ``G_i`` (input of the iteration).
        next_nodes: ``V_{i+1}`` — the cover, sorted.
        removed: ``V_i - V_{i+1}`` — the removed nodes, sorted.
        next_edges: ``E_{i+1}``.
        num_nodes: ``|V_i|``.
        num_edges: ``|E_i|`` (records, incl. duplicates).
    """

    level: int
    edges: EdgeFile
    next_nodes: NodeFile
    removed: NodeFile
    next_edges: EdgeFile
    num_nodes: int
    num_edges: int

    def cleanup(self) -> None:
        """Delete this level's output files after its expansion step.

        ``edges`` is intentionally not deleted here: it is either the
        caller's input file or the previous level's ``next_edges``, which
        that level's own cleanup removes.
        """
        self.next_nodes.delete()
        self.removed.delete()
        self.next_edges.delete()

    def stores(self) -> dict:
        """The level's files by role, as raw record stores — what the
        checkpoint journal describes and resume reopens."""
        return {
            "edges": self.edges.file,
            "next_nodes": self.next_nodes.file,
            "removed": self.removed.file,
            "next_edges": self.next_edges.file,
        }


def build_degree_file(
    device: BlockDevice,
    ein: EdgeFile,
    eout: EdgeFile,
    config: ExtSCCConfig,
    memory: Optional[MemoryBudget] = None,
) -> RecordStore:
    """``V_d``: one record per node with its degree fields, sorted by id.

    Records are ``(v, deg)`` under Definition 5.1 and ``(v, deg,
    deg_in*deg_out)`` under Definition 7.1.  With Type-1 trimming enabled,
    nodes with ``deg_in == 0`` or ``deg_out == 0`` are omitted, which
    removes them (and their edges) from the contracted graph — they are
    singleton SCCs (Lemma 7.1) and the expansion phase labels them so.

    With ``config.trim_rounds > 1`` (and ``memory`` provided for the extra
    sorts) the trimming *cascades*: after dropping the dead-end nodes, the
    incident edges are filtered out and degrees recomputed, exposing the
    next layer of dead ends — an extension beyond the paper's single pass.
    """
    current_ein, current_eout = ein, eout
    owns_edges = False
    rounds = max(1, config.trim_rounds) if config.trim_type1 else 1
    for round_number in range(1, rounds + 1):
        vd, trimmed = _degree_pass(device, current_ein, current_eout, config)
        last_round = (
            not config.trim_type1
            or not trimmed
            or round_number == rounds
            or memory is None
        )
        if last_round:
            if owns_edges:
                current_ein.delete()
                current_eout.delete()
            return vd
        next_ein, next_eout = _filter_to_survivors(
            device, current_eout, vd, memory
        )
        vd.delete()
        if owns_edges:
            current_ein.delete()
            current_eout.delete()
        current_ein, current_eout = next_ein, next_eout
        owns_edges = True
    raise AssertionError("unreachable")  # the loop always returns


def _degree_pass(
    device: BlockDevice,
    ein: EdgeFile,
    eout: EdgeFile,
    config: ExtSCCConfig,
) -> Tuple[RecordStore, bool]:
    """One degree-computation co-scan; returns (V_d, any-node-trimmed)."""
    in_counts = _count_groups(ein.scan(), key_index=1)
    out_counts = _count_groups(eout.scan(), key_index=0)

    record_size = 12 if config.product_operator else 8
    trim = config.trim_type1
    product_op = config.product_operator
    trimmed = False

    def surviving() -> Iterator[Record]:
        # Full-outer merge of the two sorted (node, count) streams —
        # the count-level equivalent of the original edge-level cogroup —
        # inlined with the trim filter: one generator resumption per node
        # instead of two.  One-sided nodes are type-1 trimmable by
        # definition, so with ``trim`` they never even allocate a record.
        nonlocal trimmed
        a = next(in_counts, None)
        b = next(out_counts, None)
        while a is not None or b is not None:
            if b is None or (a is not None and a[0] < b[0]):
                node, deg_in, deg_out = a[0], a[1], 0
                a = next(in_counts, None)
            elif a is None or b[0] < a[0]:
                node, deg_in, deg_out = b[0], 0, b[1]
                b = next(out_counts, None)
            else:
                node, deg_in, deg_out = a[0], a[1], b[1]
                a = next(in_counts, None)
                b = next(out_counts, None)
            if trim and (deg_in == 0 or deg_out == 0):
                trimmed = True
                continue
            if product_op:
                yield node, deg_in + deg_out, deg_in * deg_out
            else:
                yield node, deg_in + deg_out

    vd = create_record_file(device, device.temp_name("vd"), record_size, sort_field=0)
    vd.extend(surviving())
    vd.close()
    return vd, trimmed


def _count_groups(records, key_index: int) -> Iterator[Tuple[int, int]]:
    """``(node, count)`` pairs of a stream sorted on field ``key_index``.

    ``groupby`` buckets the consecutive equal-key runs in C; Python
    resumes once per node, not once per edge.
    """
    return (
        (node, len(list(group)))
        for node, group in groupby(records, itemgetter(key_index))
    )


def _filter_to_survivors(
    device: BlockDevice,
    eout: EdgeFile,
    vd: RecordStore,
    memory: MemoryBudget,
) -> Tuple[EdgeFile, EdgeFile]:
    """Drop edges touching trimmed nodes; return fresh (E_in, E_out).

    Fused pipeline: the by-destination sort streams straight into the
    destination semi-join, and the surviving records are *teed* — written
    to the new ``E_in`` file while simultaneously feeding the by-source
    sort's run formation — so neither the intermediate by-dst file nor a
    re-read of ``E_in`` is ever materialized.
    """
    survivors = lambda: (r[0] for r in vd.scan())  # noqa: E731 - tiny closure
    src_ok = semi_join(eout.scan(), survivors(), itemgetter(0))
    by_dst = external_sort_stream(
        device, src_ok, 8, memory, key=KEY_DST_SRC, sort_field=1
    )
    fully_ok = semi_join(by_dst, survivors(), itemgetter(1))
    filtered_ein = create_record_file(device, device.temp_name("tein"), 8, sort_field=1)

    def tee() -> Iterator[Record]:
        # Chunked so the E_in copy goes through the batch extend path; the
        # records, their order, and every block cut are those of per-record
        # appends — only the pricing granularity changes.
        chunk: List[Record] = []
        for record in fully_ok:
            chunk.append(record)
            if len(chunk) >= 1024:
                filtered_ein.extend(chunk)
                yield from chunk
                chunk = []
        if chunk:
            filtered_ein.extend(chunk)
            yield from chunk

    new_eout = external_sort_records(device, tee(), 8, memory)
    filtered_ein.close()
    return EdgeFile(filtered_ein), EdgeFile(new_eout)


def get_v(
    device: BlockDevice,
    edges: EdgeFile,
    ein: EdgeFile,
    eout: EdgeFile,
    memory: MemoryBudget,
    config: ExtSCCConfig,
) -> NodeFile:
    """Algorithm 3: select ``V_{i+1}`` (sorted, unique) from ``G_i``.

    Args:
        device: the simulated disk.
        edges: ``E_i`` (only used for naming; scans use ``ein``/``eout``).
        ein: ``E_i`` sorted by ``(dst, src)``.
        eout: ``E_i`` sorted by ``(src, dst)``.
        memory: the budget ``M``.
        config: toggles (see :class:`ExtSCCConfig`).
    """
    vd = build_degree_file(device, ein, eout, config, memory=memory)
    key_fn = make_key_fn(config.product_operator)
    info_width = 2 if config.product_operator else 1

    # E_d step 1: augment deg(u) on every edge (E_out join V_d on u) —
    # a lookup join, since V_d holds exactly one record per node.
    def ed1_records() -> Iterator[Record]:
        return (
            (edge[0], edge[1]) + node_rec[1:]  # (u, v, deg_u[, prod_u])
            for edge, node_rec in lookup_join(
                eout.scan(), vd.scan(), itemgetter(0), itemgetter(0)
            )
        )

    # E_d step 2, fused: the build join feeds the by-v sort's run formation
    # directly, and the sorted stream feeds the cover scan — neither E_d
    # copy (pre- or post-sort) is materialized.
    ed2_stream = external_sort_stream(
        device, ed1_records(), 8 + 4 * info_width, memory,
        key=KEY_DST_SRC, sort_field=1,
    )

    # E_d step 3 + cover scan fused: augment deg(v) and pick the larger
    # endpoint of every edge under the > operator.
    table_bytes = (
        config.type2_table_bytes if config.type2_table_bytes is not None else memory.nbytes
    )
    table = BoundedCoverTable.from_memory(table_bytes) if config.type2_reduction else None

    def cover_records() -> Iterator[Record]:
        for ed_rec, node_rec in lookup_join(
            ed2_stream, vd.scan(), itemgetter(1), itemgetter(0)
        ):
            u, v = ed_rec[0], ed_rec[1]
            if u == v:
                # A self-loop never forces its node into the cover
                # (Definition 5.1 compares distinct nodes; Lemma 5.2's
                # progress argument depends on this).
                continue
            ku = key_fn(u, ed_rec[2:])
            kv = key_fn(v, node_rec[1:])
            if ku > kv:
                larger, larger_key = u, ku
                smaller, smaller_key = v, kv
            else:
                larger, larger_key = v, kv
                smaller, smaller_key = u, ku
            if table is not None:
                if smaller in table or larger in table:
                    # Type-2: the edge is already covered.
                    continue
                table.add(larger, larger_key)
            yield (larger,)

    cover = external_sort_records(
        device,
        cover_records(),
        NODE_RECORD_BYTES,
        memory,
        unique=True,
        out_name=device.temp_name("vnext"),
    )
    vd.delete()
    return NodeFile(cover)


def get_e(
    device: BlockDevice,
    ein: EdgeFile,
    eout: EdgeFile,
    v_next: NodeFile,
    memory: MemoryBudget,
    config: ExtSCCConfig,
) -> EdgeFile:
    """Algorithm 4: build ``E_{i+1}`` from ``G_i`` and ``V_{i+1}``.

    ``E_{i+1} = E_pre ∪ E_add`` where ``E_pre`` keeps the edges with both
    endpoints in the cover and ``E_add`` bypasses every removed node ``v``
    with ``nbr_in(v) × nbr_out(v)``.
    """
    out = create_record_file(device, device.temp_name("enext"), 8, sort_field=None)

    # E_del (in): edges (u, v) with v removed, grouped by v (E_in order).
    def removed_in() -> Iterator[Record]:
        return anti_join(ein.scan(), v_next.scan(), itemgetter(1))

    # E_del (out): edges (v, w) with v removed, grouped by v (E_out order).
    def removed_out() -> Iterator[Record]:
        return anti_join(eout.scan(), v_next.scan(), itemgetter(0))

    in_stream: Iterator[Record] = removed_in()
    out_stream: Iterator[Record] = removed_out()
    if config.trim_type1:
        # Type-1 trimming can remove two adjacent nodes in one iteration,
        # so a removed node's neighbor is no longer guaranteed to be in the
        # cover.  Filter the deleted-edge lists down to cover neighbors
        # (sort + semi-join + sort back); a dropped neighbor is a trimmed
        # dead-end node whose paths cannot participate in any SCC.
        in_stream = _filter_neighbors(device, in_stream, v_next, memory, side=0, by_dst=True)
        out_stream = _filter_neighbors(device, out_stream, v_next, memory, side=1, by_dst=False)

    # E_add: for each removed v, bypass edges nbr_in(v) x nbr_out(v).
    drop_loops = config.remove_self_loops

    def bypass_groups() -> Iterator[Iterable[Record]]:
        for v, in_group, out_group in cogroup(
            in_stream, out_stream, itemgetter(1), itemgetter(0)
        ):
            # A self-loop on the removed node is not a neighbor.
            srcs = [u for u, _v in in_group if u != v]
            dsts = [w for _v2, w in out_group if w != v]
            if not srcs or not dsts:
                continue
            if drop_loops and not set(srcs).isdisjoint(dsts):
                yield [p for p in product(srcs, dsts) if p[0] != p[1]]
            else:
                # No endpoint is on both sides, so the cross product
                # cannot contain a self-loop; hand the C-level iterator
                # straight to the flattener — one generator resumption
                # per removed node, not one per bypass edge.
                yield product(srcs, dsts)

    out.extend(chain.from_iterable(bypass_groups()))

    # E_pre: edges with both endpoints in the cover — a fused
    # semi-join → sort → semi-join chain with no intermediate files.
    pre_sorted = external_sort_stream(
        device,
        semi_join(eout.scan(), v_next.scan(), itemgetter(0)),
        8,
        memory,
        key=KEY_DST_SRC,
        sort_field=1,
    )
    out.extend(semi_join(pre_sorted, v_next.scan(), itemgetter(1)))
    out.close()
    return EdgeFile(out)


def _filter_neighbors(
    device: BlockDevice,
    edges: Iterator[Record],
    v_next: NodeFile,
    memory: MemoryBudget,
    side: int,
    by_dst: bool,
) -> Iterator[Record]:
    """Keep deleted edges whose *neighbor* endpoint (``side``) is in the
    cover, restoring the original grouping order afterwards.

    A fully fused sort → semi-join → sort chain: the only blocks on disk
    are the two sorts' run files; no spill, filter, or regroup copies.
    """
    by_neighbor = external_sort_stream(
        device, edges, 8, memory, key=(KEY_SRC_DST if side == 0 else KEY_DST_SRC),
        sort_field=side,
    )
    filtered = semi_join(by_neighbor, v_next.scan(), itemgetter(side))
    group_key = KEY_DST_SRC if by_dst else None
    yield from external_sort_stream(
        device, filtered, 8, memory, key=group_key,
        sort_field=1 if by_dst else None,
    )


def build_contract_plan(
    device: BlockDevice,
    edges: EdgeFile,
    nodes: NodeFile,
    memory: MemoryBudget,
    config: ExtSCCConfig,
    level: int,
) -> ExtPlan:
    """One contraction iteration ``G_i -> G_{i+1}`` as a four-stage plan.

    The stages keep every fused sort chain intact, so executing the plan
    is byte-identical to calling the pipeline directly; their predictions
    split :meth:`CostModel.contraction_iteration` term for term (fused
    boundaries at :meth:`CostModel.sort_streamed`).  Get-E's terms over
    the not-yet-built ``G_{i+1}`` read ``plan.estimates``, which start at
    the planner's retention/growth coefficients; the executing caller
    overwrites them with the measured sizes once the level has run.
    """
    e, v = edges.num_edges, nodes.num_nodes
    vd_width = 12 if config.product_operator else 8
    ed_width = EDGE_RECORD_BYTES + (8 if config.product_operator else 4)
    plan = ExtPlan(f"contract-{level}", phase=f"contraction/contract-{level}")
    est = plan.estimates
    est["next_nodes"] = max(1, int(v * NODE_RETENTION_EST))
    est["next_edges"] = max(0, int(e * EDGE_GROWTH_EST))

    def run_sort_edges(ctx: dict):
        unique = config.dedupe_parallel_edges
        eout = edges.sorted_by_src(memory, unique=unique)
        ein = edges.sorted_by_dst(memory, unique=unique)
        return eout, ein

    # E_out and E_in, both materialized.
    plan.stage("sort-edges", run_sort_edges,
               predict=lambda m: 2 * m.sort(e, EDGE_RECORD_BYTES))

    def run_get_v(ctx: dict):
        eout, ein = ctx["sort-edges"]
        return get_v(device, edges, ein, eout, memory, config)

    # Degree co-scan, V_d write, E_d build, the fused E_d resort, and the
    # cover sort + dedupe.
    plan.stage("get-v", run_get_v, predict=lambda m: (
        2 * m.scan(e, EDGE_RECORD_BYTES) + m.scan(v, vd_width)
        + m.scan(e, ed_width) + m.sort_streamed(e, ed_width)
        + m.sort(e, NODE_RECORD_BYTES)
    ))

    def run_get_e(ctx: dict):
        eout, ein = ctx["sort-edges"]
        return get_e(device, ein, eout, ctx["get-v"], memory, config)

    # E_del co-scans, the fused E_pre sort, cover scans, E_{i+1} write.
    plan.stage("get-e", run_get_e, predict=lambda m: (
        2 * m.scan(e, EDGE_RECORD_BYTES)
        + m.sort_streamed(e, EDGE_RECORD_BYTES)
        + m.scan(est["next_nodes"], NODE_RECORD_BYTES)
        + m.scan(est["next_edges"], EDGE_RECORD_BYTES)
    ))

    def run_level(ctx: dict) -> ContractionLevel:
        eout, ein = ctx["sort-edges"]
        v_next: NodeFile = ctx["get-v"]
        removed_file = record_file_from_records(
            device,
            device.temp_name("removed"),
            anti_join(((v_,) for v_ in nodes.scan()), v_next.scan(),
                      itemgetter(0)),
            NODE_RECORD_BYTES,
            sort_field=0,
        )
        ein.delete()
        eout.delete()
        return ContractionLevel(
            level=level,
            edges=edges,
            next_nodes=v_next,
            removed=NodeFile(removed_file),
            next_edges=ctx["get-e"],
            num_nodes=nodes.num_nodes,
            num_edges=edges.num_edges,
        )

    # The removed set is unpriced by the model.
    plan.stage("removed-set", run_level, checkpoint="contract")
    return plan


def contract(
    device: BlockDevice,
    edges: EdgeFile,
    nodes: NodeFile,
    memory: MemoryBudget,
    config: ExtSCCConfig,
    level: int,
) -> ContractionLevel:
    """One full contraction iteration ``G_i -> G_{i+1}``.

    Builds ``E_in``/``E_out`` once and shares them between Get-V and Get-E
    (as the paper does), derives the removed set by an anti-join of the two
    sorted node files, and returns the :class:`ContractionLevel` bundle the
    expansion phase will need.

    Convenience wrapper: builds the iteration's plan and executes it.
    :class:`~repro.core.ext_scc.ExtSCC` calls the builder directly so it
    can price the stages and attach tracing and checkpoint hooks.
    """
    plan = build_contract_plan(device, edges, nodes, memory, config, level)
    return PlanExecutor(device).execute(plan)
