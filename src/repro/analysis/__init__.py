"""Analysis layer: the analytic I/O cost model (Theorems 5.1/5.2/6.1),
the Ext-SCC planner, graph statistics (degrees, arboricity bound,
bow-tie), and time-forward processing over external DAGs."""

from repro.analysis.cost_model import CostModel
from repro.analysis.graph_stats import (
    BowTie,
    DegreeStats,
    arboricity_upper_bound,
    bowtie_decomposition,
    degree_stats,
)
from repro.analysis.planner import (
    ExtSCCPlan,
    PlannedIteration,
    plan_ext_scc,
)
from repro.analysis.time_forward import dag_levels

__all__ = [
    "ExtSCCPlan",
    "PlannedIteration",
    "plan_ext_scc",
    "CostModel",
    "DegreeStats",
    "degree_stats",
    "arboricity_upper_bound",
    "BowTie",
    "bowtie_decomposition",
    "dag_levels",
]
