"""The plan: an ordered list of the stages a pipeline phase runs.

An :class:`ExtPlan` is exactly what the executor runs.  Sorts are fused
into their consumers with streaming generators, so a fused chain is *one*
execution unit: splitting it would materialize intermediates and change
the I/O ledger.  Each stage's ``run`` thunk executes the fused pipeline
verbatim; its ``predict`` function prices the same work with direct
:class:`~repro.analysis.cost_model.CostModel` calls, so the stages of a
contract/expand/semi plan sum to exactly the model's phase formula.

Stage thunks take a ``ctx`` dict; each stage's result is stored under
its label so later stages can consume it, and the last stage's result is
the plan's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = ["ExtPlan", "PlanStage"]

StageFn = Callable[[dict], object]
PredictFn = Callable[[object], int]


@dataclass
class PlanStage:
    """One executable unit of a plan.

    A plain (mutable) dataclass on purpose: tracers swap ``run`` in place
    around an execution, and the executor reads it at call time.

    Attributes:
        label: stage name (unique within the plan; the ctx key).
        run: the thunk (``None`` for plans that are only priced and
            rendered, e.g. the ones ``--explain`` builds).
        checkpoint: journal role (``"contract"`` / ``"semi"`` /
            ``"expand"``) whose commit hook the executor fires with the
            stage's result as soon as the stage finishes.
        predict: blocks the stage costs under a given ``CostModel``
            (``None``: the model prices nothing here).
        predicted_ios: the last :meth:`ExtPlan.price` result (``None``
            until the plan is priced).
    """

    label: str
    run: Optional[StageFn] = None
    checkpoint: Optional[str] = None
    predict: Optional[PredictFn] = None
    predicted_ios: Optional[int] = None


class ExtPlan:
    """An ordered list of stages for one pipeline phase.

    ``estimates`` holds sizes the builder could only estimate (the next
    level's ``|V|``/``|E|`` before the iteration runs); ``predict``
    functions read them from here, so overwriting them with measured
    sizes and calling :meth:`price` again re-prices the executed plan.
    """

    def __init__(self, name: str, phase: str = "") -> None:
        self.name = name
        self.phase = phase or name
        self.stages: List[PlanStage] = []
        self.estimates: Dict[str, int] = {}

    def stage(
        self,
        label: str,
        run: Optional[StageFn] = None,
        checkpoint: Optional[str] = None,
        predict: Optional[PredictFn] = None,
    ) -> PlanStage:
        """Append one stage."""
        stage = PlanStage(label, run, checkpoint, predict)
        self.stages.append(stage)
        return stage

    def price(self, model) -> int:
        """Fill every stage's ``predicted_ios`` under ``model``; returns
        the plan's predicted total."""
        for stage in self.stages:
            stage.predicted_ios = stage.predict(model) if stage.predict else 0
        return self.total_predicted

    @property
    def total_predicted(self) -> int:
        """Predicted blocks summed over the stages."""
        return sum(stage.predicted_ios or 0 for stage in self.stages)

    def render(self) -> str:
        """The stages as a deterministic table.

        Labels are stable and no runtime identifiers (temp-file names,
        object ids) appear, so the rendering of a priced plan can be
        committed as a golden file and exact-matched in CI.
        """
        lines = [
            f"plan {self.name} (phase {self.phase})",
            f"  {'stage':<16} {'checkpoint':<14} {'pred.I/Os':>10}",
        ]
        for stage in self.stages:
            ckpt = f"ckpt:{stage.checkpoint}" if stage.checkpoint else "-"
            pred = (
                "-" if stage.predicted_ios is None
                else f"{stage.predicted_ios:,}"
            )
            lines.append(f"  {stage.label:<16} {ckpt:<14} {pred:>10}")
        lines.append(f"  predicted total: {self.total_predicted:,} blocks")
        return "\n".join(lines)
