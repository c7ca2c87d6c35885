"""The plan layer: the stage list each pipeline phase executes.

Pipelines build an :class:`ExtPlan` — an ordered list of stages, each a
label, a thunk running the fused external pipeline, an optional
checkpoint role and a predicted-I/O function of a
:class:`~repro.analysis.cost_model.CostModel`.  The
:class:`PlanExecutor` runs the stages, emits one span per stage into a
:class:`TraceLedger` (measured I/O beside the prediction), and fires the
checkpoint commit a stage declares as soon as it finishes.
"""

from repro.plan.executor import PlanExecutor
from repro.plan.plan import ExtPlan, PlanStage
from repro.plan.trace import Span, TraceLedger

__all__ = [
    "ExtPlan",
    "PlanStage",
    "PlanExecutor",
    "Span",
    "TraceLedger",
]
