"""Graph expansion: Algorithm 5.

Given ``G_i``, its contraction ``G_{i+1}``, and the SCC labels of every node
of ``V_{i+1}``, the expansion step labels the removed nodes
``V_i - V_{i+1}``.  By Lemma 6.4 a removed node ``v`` only needs the SCC
labels of its in- and out-neighbors (all of which are in ``V_{i+1}`` by the
recoverable property):

* if some SCC appears among both the in-neighbors and the out-neighbors,
  that SCC is ``SCC(v)`` — and by Lemma 6.2 it is the *only* such SCC;
* otherwise ``v`` is a singleton SCC.

Externally this is two ``augment`` pipelines (paper lines 8–14) — keep the
edges into removed nodes, attach ``SCC(u)`` to each by a sort + merge join,
regroup by ``(v, SCC, u)`` — one over ``E_i`` for in-neighbors and one over
the reversed ``E_i`` for out-neighbors, followed by a single co-scan that
intersects the two sorted SCC lists per removed node.  Sequential scans and
external sorts only.
"""

from __future__ import annotations

from operator import itemgetter

from typing import Iterable, Iterator, Tuple, Union

from repro.constants import AUGMENTED_EDGE_BYTES, EDGE_RECORD_BYTES, SCC_RECORD_BYTES
from repro.core.config import ExtSCCConfig
from repro.core.contraction import ContractionLevel
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.codecs import RecordStore, record_file_from_records
from repro.io.join import anti_join, cogroup, lookup_join
from repro.io.memory import MemoryBudget
from repro.io.sort import KEY_DST_AUX_SRC, KEY_DST_SRC, external_sort_records, external_sort_stream, merge_runs
from repro.plan import ExtPlan, PlanExecutor

__all__ = ["expand_level", "build_expand_plan", "augment"]

Record = Tuple[int, ...]


def augment(
    device: BlockDevice,
    edges: Union[EdgeFile, Iterable[Record]],
    v_next: NodeFile,
    scc_next: RecordStore,
    memory: MemoryBudget,
) -> RecordStore:
    """The paper's ``augment(E)`` (Algorithm 5, lines 8–14).

    Produces records ``(u, v, SCC(u))`` for every edge ``(u, v)`` of
    ``edges`` — an :class:`EdgeFile` or any edge-record stream (the caller
    passes a flipping generator for the reverse-graph augment, saving the
    reversed copy) — whose destination ``v`` is a *removed* node, sorted
    by ``(v, SCC(u), u)`` so a single scan can read each removed node's
    neighbor-SCC list in sorted order.

    The whole chain is one fused pipeline: the by-destination sort streams
    into the anti-join, the by-source sort streams into the label merge
    join, and only the final grouped file is materialized.

    Edges whose source has no label in ``scc_next`` (possible only for
    Type-1-trimmed neighbors, which are singleton SCCs that can never
    witness a shared SCC) are dropped by the inner merge join.
    """
    source = edges.scan() if isinstance(edges, EdgeFile) else iter(edges)
    # line 9: group edges by destination (streamed, not materialized).
    by_dst = external_sort_stream(
        device, source, 8, memory, key=KEY_DST_SRC, sort_field=1
    )
    # line 10: keep edges into removed nodes (V_{i+1} anti-join).
    into_removed = anti_join(by_dst, v_next.scan(), itemgetter(1))
    # line 11: re-sort by the source endpoint (streamed).
    by_src = external_sort_stream(device, into_removed, 8, memory)

    # line 12: attach SCC(u) via a join with the label file — a lookup
    # join, since the label file holds exactly one record per node.
    def augmented() -> Iterator[Record]:
        return (
            (edge[0], edge[1], label_rec[1])
            for edge, label_rec in lookup_join(
                by_src, scc_next.scan(), itemgetter(0), itemgetter(0)
            )
        )

    # line 13: group by (v, SCC(u), u).
    return external_sort_records(
        device,
        augmented(),
        AUGMENTED_EDGE_BYTES,
        memory,
        key=KEY_DST_AUX_SRC,
        sort_field=1,
    )


def build_expand_plan(
    device: BlockDevice,
    level: ContractionLevel,
    scc_next: RecordStore,
    memory: MemoryBudget,
    config: ExtSCCConfig,
    delete_input: bool = True,
) -> ExtPlan:
    """One expansion step ``SCC_{i+1} -> SCC_i`` as a three-stage plan.

    The two augment pipelines, the removed-label co-scan, and the label
    merge, which declares the ``expand`` checkpoint role.  The stage
    predictions split :meth:`CostModel.expansion_iteration` term for term.
    """
    e, v = level.num_edges, level.num_nodes
    i = level.level
    plan = ExtPlan(f"expand-{i}", phase=f"expansion/expand-{i}")

    # E'_in: in-neighbor SCCs of removed nodes (over E_i).
    def augment_in() -> RecordStore:
        return augment(device, level.edges, level.next_nodes, scc_next, memory)

    # E'_out: out-neighbor SCCs (over reversed E_i — in-neighbors of the
    # reverse graph are out-neighbors of G_i).  The flip happens in-flight
    # on the way into augment's first sort; no reversed copy hits the disk.
    def augment_out() -> RecordStore:
        # itemgetter(1, 0) flips each edge in C — no per-edge generator.
        flipped = map(itemgetter(1, 0), level.edges.scan())
        return augment(device, flipped, level.next_nodes, scc_next, memory)

    def run_augments(ctx: dict):
        return augment_in(), augment_out()

    # Per augment: two fused edge sorts, the label merge join, and the
    # materialized (v, SCC, u) grouping sort.
    plan.stage("augment", run_augments, predict=lambda m: 2 * (
        2 * m.sort_streamed(e, EDGE_RECORD_BYTES)
        + m.scan(v, SCC_RECORD_BYTES)
        + m.sort(e, AUGMENTED_EDGE_BYTES)
    ))

    def run_labels(ctx: dict) -> RecordStore:
        e_in, e_out = ctx["augment"]

        def removed_labels() -> Iterator[Record]:
            """Labels for removed nodes: 3-way co-scan, singleton default."""
            scc_of = itemgetter(2)
            groups = cogroup(
                e_in.scan(), e_out.scan(), itemgetter(1), itemgetter(1)
            )
            current = next(groups, None)
            for node in level.removed.scan():
                while current is not None and current[0] < node:  # type: ignore[operator]
                    current = next(groups, None)
                if current is not None and current[0] == node:
                    # Set intersection of the two sides' SCC labels; only
                    # the minimum (and, under validation, the count) is
                    # needed, so the sorted-list walk is unnecessary.
                    common = set(map(scc_of, current[1])) & set(
                        map(scc_of, current[2])
                    )
                    if config.validate and len(common) > 1:
                        raise AssertionError(
                            f"Lemma 6.2 violated: node {node} sees "
                            f"{len(common)} shared SCCs"
                        )
                    yield (node, min(common)) if common else (node, node)
                else:
                    # No surviving in- or out-edges: singleton SCC.
                    yield (node, node)

        scc_del = record_file_from_records(
            device, device.temp_name("sccdel"), removed_labels(),
            SCC_RECORD_BYTES, sort_field=0,
        )
        e_in.delete()
        e_out.delete()
        return scc_del

    # The SCC_del write.
    plan.stage("label-removed", run_labels,
               predict=lambda m: m.scan(v, SCC_RECORD_BYTES))

    def run_merge(ctx: dict) -> RecordStore:
        scc_del = ctx["label-removed"]
        # SCC_i = SCC_{i+1} ∪ SCC_del, sorted by node id.  Both inputs are
        # already node-sorted, so one merge pass suffices (paper line 6
        # sorts).
        merged = merge_runs([scc_next.scan(), scc_del.scan()])
        scc_i = record_file_from_records(
            device, device.temp_name("scc"), merged, SCC_RECORD_BYTES,
            sort_field=0,
        )
        scc_del.delete()
        if delete_input:
            scc_next.delete()
        return scc_i

    # The merged SCC_i write.
    plan.stage("merge-labels", run_merge, checkpoint="expand",
               predict=lambda m: m.scan(v, SCC_RECORD_BYTES))
    return plan


def expand_level(
    device: BlockDevice,
    level: ContractionLevel,
    scc_next: RecordStore,
    memory: MemoryBudget,
    config: ExtSCCConfig,
    delete_input: bool = True,
) -> RecordStore:
    """One expansion step: compute ``SCC_i`` from ``SCC_{i+1}``.

    Args:
        device: the simulated disk.
        level: the bundle produced by the matching contraction iteration.
        scc_next: ``(node, scc)`` records for ``V_{i+1}``, sorted by node.
        memory: the budget ``M``.
        config: pipeline configuration (``validate`` enables the Lemma 6.2
            uniqueness assertion).
        delete_input: delete ``scc_next`` once merged (the default).  A
            checkpointing caller passes ``False`` and deletes it only
            *after* the step's journal commit, so a crash mid-expansion
            still finds the previous level's labels intact.

    Returns:
        ``(node, scc)`` records for all of ``V_i``, sorted by node id.

    Convenience wrapper over :func:`build_expand_plan` + the executor,
    mirroring :func:`~repro.core.contraction.contract`.
    """
    plan = build_expand_plan(
        device, level, scc_next, memory, config, delete_input=delete_input
    )
    return PlanExecutor(device).execute(plan)
