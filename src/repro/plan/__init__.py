"""The declarative external-operator plan layer.

Pipelines build an :class:`ExtPlan` — a DAG over the seven-operator
vocabulary of :mod:`repro.plan.ops` — instead of calling ``io/``
functions directly; the planner (:func:`repro.analysis.planner.optimize_plan`)
applies fusion and codec rewrites with cost predictions, and
the :class:`PlanExecutor` runs the stages, emits per-operator spans into
a :class:`TraceLedger`, and fires checkpoint commits declared on
``Materialize`` nodes.
"""

from repro.plan.executor import PlanExecutor
from repro.plan.ops import (
    Dedupe,
    Materialize,
    MergeJoin,
    MergePasses,
    PlanOp,
    Rewrite,
    Scan,
    SortRuns,
)
from repro.plan.plan import ExtPlan, PlanStage
from repro.plan.trace import Span, TraceLedger

__all__ = [
    "ExtPlan",
    "PlanStage",
    "PlanExecutor",
    "Span",
    "TraceLedger",
    "PlanOp",
    "Scan",
    "SortRuns",
    "MergePasses",
    "MergeJoin",
    "Dedupe",
    "Rewrite",
    "Materialize",
]
