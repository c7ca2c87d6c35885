"""The declarative plan: an operator DAG plus its executable stages.

An :class:`ExtPlan` has two synchronized views of one external pipeline:

* ``ops`` — the declarative operator DAG (:mod:`repro.plan.ops`): what
  the pipeline does, operator by operator, with per-operator cost
  predictions filled in by the planner.  This is what ``--explain``
  renders and the plan-golden CI job snapshots.
* ``stages`` — the executable groups.  PR 1 fuses sorts into their
  consumers with streaming generators, so a fused chain is *one*
  execution unit: splitting it would materialize intermediates and
  change the I/O ledger.  Each stage's ``run`` thunk executes the
  existing fused pipeline verbatim, which is
  what keeps a plan-built run byte-identical to the hand-threaded one.

Stage thunks take a ``ctx`` dict; each stage's result is stored under
its label so later stages can consume it, and the last stage's result is
the plan's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.plan.ops import PlanOp

__all__ = ["ExtPlan", "PlanStage"]

StageFn = Callable[[dict], object]


@dataclass
class PlanStage:
    """One executable unit covering a slice of the operator DAG.

    Attributes:
        label: stage name (unique within the plan; the ctx key).
        op_ids: ids of the DAG operators this stage executes.
        run: the thunk (``None`` for declarative-only plans, e.g. the
            ones ``--explain`` builds and renders without running).
    """

    label: str
    op_ids: Tuple[int, ...]
    run: Optional[StageFn] = None


class ExtPlan:
    """A declarative external-operator plan for one pipeline phase."""

    def __init__(self, name: str, phase: str = "") -> None:
        self.name = name
        self.phase = phase or name
        self.ops: List[PlanOp] = []
        self.stages: List[PlanStage] = []
        self.rewrites: List[str] = []

    # -- construction --------------------------------------------------------

    def add(self, op: PlanOp) -> PlanOp:
        """Append an operator to the DAG and assign its id."""
        op.id = len(self.ops)
        self.ops.append(op)
        return op

    def stage(
        self,
        label: str,
        ops: Sequence[PlanOp],
        run: Optional[StageFn] = None,
    ) -> PlanStage:
        """Group already-added operators into one executable stage."""
        stage = PlanStage(label=label, op_ids=tuple(op.id for op in ops), run=run)
        self.stages.append(stage)
        return stage

    # -- views ---------------------------------------------------------------

    def op_by_label(self, label: str) -> PlanOp:
        for op in self.ops:
            if op.label == label:
                return op
        raise KeyError(label)

    def stage_ops(self, stage: PlanStage) -> List[PlanOp]:
        return [self.ops[i] for i in stage.op_ids]

    def materialize_ops(self) -> List[PlanOp]:
        """Non-elided ``Materialize`` operators (checkpoint candidates)."""
        return [
            op for op in self.ops if op.kind == "materialize" and not op.elided
        ]

    def checkpoint_roles(self) -> List[str]:
        """Journal roles declared on this plan's ``Materialize`` nodes."""
        return [
            op.checkpoint for op in self.materialize_ops()
            if op.checkpoint is not None
        ]

    @property
    def optimized(self) -> bool:
        return bool(self.rewrites)

    @property
    def total_predicted(self) -> int:
        """Predicted blocks summed over the live (non-elided) operators."""
        return sum(
            op.predicted_ios or 0 for op in self.ops if not op.elided
        )

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """The operator DAG as a deterministic table.

        Labels are stable and no runtime identifiers (temp-file names,
        object ids) appear, so the rendering of an optimized plan can be
        committed as a golden file and exact-matched in CI.
        """
        stage_of: Dict[int, str] = {}
        for stage in self.stages:
            for op_id in stage.op_ids:
                stage_of[op_id] = stage.label
        lines = [f"plan {self.name} (phase {self.phase})"]
        if self.rewrites:
            lines.append(f"  rewrites: {', '.join(self.rewrites)}")
        lines.append(
            f"  {'id':>3} {'operator':<13} {'label':<28} {'stage':<16} "
            f"{'records':>10} {'w':>3} {'attrs':<18} {'pred.I/Os':>10}"
        )
        for op in self.ops:
            attrs = []
            if op.elided:
                attrs.append("elided")
            elif op.fused:
                attrs.append("fused")
            if op.codec is not None:
                attrs.append(op.codec)
            if op.checkpoint is not None:
                attrs.append(f"ckpt:{op.checkpoint}")
            pred = (
                "-" if op.elided or op.predicted_ios is None
                else f"{op.predicted_ios:,}"
            )
            lines.append(
                f"  {op.id:>3} {op.kind:<13} {op.label:<28} "
                f"{stage_of.get(op.id, '-'):<16} {op.records:>10,} "
                f"{op.record_size:>3} {','.join(attrs) or '-':<18} {pred:>10}"
            )
        lines.append(f"  predicted total: {self.total_predicted:,} blocks")
        return "\n".join(lines)
