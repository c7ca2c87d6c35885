"""An EXPLAIN for Ext-SCC: predicted iterations and I/O before running.

Given a graph's size, the memory budget, and two empirical contraction
coefficients (the per-iteration node-retention ratio of the vertex cover
and the edge-growth factor of the bypass construction), the planner
simulates the contraction schedule *analytically* and prices every
iteration with the :class:`~repro.analysis.cost_model.CostModel` — the
database-style "query plan" a user inspects before paying for the run.

Defaults for the coefficients come from the measured contraction traces
(`benchmarks/results/contraction_trace_*.txt`): covers retain ~72% of the
nodes and Ext-SCC-Op holds edge growth to ~1.25x per iteration on the
Table I workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.cost_model import CostModel
from repro.constants import SEMI_EXTERNAL_BYTES_PER_NODE
from repro.core.ext_scc import IterationRecord

__all__ = [
    "ExtSCCPlan",
    "PlannedIteration",
    "plan_ext_scc",
]


@dataclass(frozen=True)
class PlannedIteration:
    """One predicted contraction level."""

    level: int
    num_nodes: int
    num_edges: int
    next_num_nodes: int
    next_num_edges: int
    predicted_ios: int


@dataclass
class ExtSCCPlan:
    """The full predicted schedule of an Ext-SCC run."""

    num_nodes: int
    num_edges: int
    memory_bytes: int
    block_size: int
    iterations: List[PlannedIteration] = field(default_factory=list)
    semi_scc_ios: int = 0
    feasible: bool = True

    @property
    def num_iterations(self) -> int:
        """Predicted contraction depth."""
        return len(self.iterations)

    @property
    def total_ios(self) -> int:
        """Predicted total block I/Os."""
        return sum(i.predicted_ios for i in self.iterations) + self.semi_scc_ios

    def render(self) -> str:
        """A printable plan, one row per predicted iteration."""
        lines = [
            f"Ext-SCC plan: |V|={self.num_nodes:,} |E|={self.num_edges:,} "
            f"M={self.memory_bytes:,}B B={self.block_size}B",
            f"semi-external threshold: "
            f"{SEMI_EXTERNAL_BYTES_PER_NODE * self.num_nodes + self.block_size:,}B",
        ]
        if not self.feasible:
            lines.append(
                "NOT FEASIBLE: contraction is predicted to densify before "
                "the node set fits — raise M or enable more reductions"
            )
            return "\n".join(lines)
        lines.append(f"{'iter':>4} {'|V|':>10} {'|E|':>11} {'pred. I/Os':>11}")
        for it in self.iterations:
            lines.append(
                f"{it.level:>4} {it.num_nodes:>10,} {it.num_edges:>11,} "
                f"{it.predicted_ios:>11,}"
            )
        lines.append(f"semi-SCC on the final graph: ~{self.semi_scc_ios:,} I/Os")
        lines.append(f"TOTAL predicted: ~{self.total_ios:,} block I/Os "
                     f"({self.num_iterations} iterations)")
        return "\n".join(lines)


def plan_ext_scc(
    num_nodes: int,
    num_edges: int,
    memory_bytes: int,
    block_size: int = 4096,
    node_retention: float = 0.72,
    edge_growth: float = 1.25,
    semi_passes: int = 3,
    product_operator: bool = False,
    max_iterations: int = 200,
    model: Optional[CostModel] = None,
) -> ExtSCCPlan:
    """Predict an Ext-SCC run's schedule and I/O.

    Args:
        num_nodes, num_edges: the input graph's size.
        memory_bytes: the budget ``M``.
        block_size: the block size ``B``.
        node_retention: predicted ``|V_{i+1}| / |V_i|`` (vertex-cover size).
        edge_growth: predicted ``|E_{i+1}| / |E_i|``.
        semi_passes: edge scans the semi-external solver is priced at.
        product_operator: price the Definition 7.1 record widths.
        max_iterations: give up (``feasible=False``) past this depth.
        model: price with this model (e.g. one given measured
            ``bytes_per_record``) instead of the analytic default.

    Returns:
        An :class:`ExtSCCPlan`; ``feasible`` is False when the predicted
        schedule never satisfies the stop condition.
    """
    if model is None:
        model = CostModel(block_size, memory_bytes)
    plan = ExtSCCPlan(num_nodes, num_edges, memory_bytes, block_size)
    threshold = memory_bytes - block_size
    nodes, edges = num_nodes, num_edges
    while SEMI_EXTERNAL_BYTES_PER_NODE * nodes > threshold:
        level = len(plan.iterations) + 1
        if level > max_iterations:
            plan.feasible = False
            return plan
        record = IterationRecord(
            level=level, num_nodes=nodes, num_edges=edges,
            next_num_nodes=max(1, int(nodes * node_retention)),
            next_num_edges=max(0, int(edges * edge_growth)),
            io=None,  # type: ignore[arg-type]
        )
        ios = model.contraction_iteration(record, product_operator)
        ios += model.expansion_iteration(record)
        plan.iterations.append(PlannedIteration(
            record.level, record.num_nodes, record.num_edges,
            record.next_num_nodes, record.next_num_edges, ios,
        ))
        if record.next_num_nodes >= nodes:
            plan.feasible = False
            return plan
        nodes, edges = record.next_num_nodes, record.next_num_edges
    plan.semi_scc_ios = model.semi_scc(edges, semi_passes)
    return plan
