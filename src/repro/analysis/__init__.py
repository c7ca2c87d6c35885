"""Analysis layer: the analytic I/O cost model (Theorems 5.1/5.2/6.1),
the Ext-SCC planner, and graph statistics (degrees, arboricity bound)."""

from repro.analysis.cost_model import CostModel
from repro.analysis.graph_stats import (
    DegreeStats,
    arboricity_upper_bound,
    degree_stats,
)
from repro.analysis.planner import (
    ExtSCCPlan,
    PlannedIteration,
    plan_ext_scc,
)

__all__ = [
    "ExtSCCPlan",
    "PlannedIteration",
    "plan_ext_scc",
    "CostModel",
    "DegreeStats",
    "degree_stats",
    "arboricity_upper_bound",
]
