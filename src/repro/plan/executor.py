"""The plan executor: runs stages, emits spans, fires checkpoint hooks.

The executor walks a plan's stages in order, running each thunk with a
shared ``ctx`` dict.  Around every stage it snapshots the device's I/O
ledger (snapshots are free — no simulated I/O), so each stage's measured
delta lands in the :class:`~repro.plan.trace.TraceLedger` as one span
with the planner's prediction beside it.

Checkpoint boundaries are *declared on the plan*: a stage carrying a
``checkpoint`` role makes the executor call the matching commit hook
with the stage's result as soon as that stage finishes —
commit-then-delete ordering falls out of stage order.
Journal commits perform no simulated I/O, so a hooked run's ledger is
identical to an unhooked one.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.io.blocks import BlockDevice
from repro.plan.plan import ExtPlan
from repro.plan.trace import Span, TraceLedger

__all__ = ["PlanExecutor"]

CommitHook = Callable[[object], None]


class PlanExecutor:
    """Executes :class:`~repro.plan.ExtPlan` stages against a device.

    Args:
        device: the simulated disk the stage thunks operate on.
        trace: optional ledger collecting one :class:`Span` per stage.
    """

    def __init__(
        self,
        device: BlockDevice,
        trace: Optional[TraceLedger] = None,
    ) -> None:
        self.device = device
        self.trace = trace

    def execute(
        self,
        plan: ExtPlan,
        ctx: Optional[dict] = None,
        commit_hooks: Optional[Dict[str, CommitHook]] = None,
    ) -> object:
        """Run every stage; returns the last stage's result.

        Args:
            plan: the plan (stages must carry ``run`` thunks).
            ctx: optional initial context; each stage's result is stored
                under its label for downstream stages.
            commit_hooks: ``{checkpoint role: hook}``.  When a stage
                declaring that role finishes, the hook is called with the
                stage's result.
        """
        ctx = {} if ctx is None else ctx
        hooks = commit_hooks or {}
        stats = self.device.stats
        result: object = None
        for stage in plan.stages:
            if stage.run is None:
                raise ValueError(
                    f"plan {plan.name!r} stage {stage.label!r} has no "
                    "thunk; a plan built only for pricing cannot be executed"
                )
            before = stats.snapshot()
            records_before = stats.records_written
            bytes_before = stats.bytes_stored
            started = time.perf_counter()
            result = stage.run(ctx)
            wall = time.perf_counter() - started
            ctx[stage.label] = result
            hook = hooks.get(stage.checkpoint)
            if hook is not None:
                hook(result)
            if self.trace is not None:
                delta = stats.snapshot() - before
                self.trace.record(Span(
                    plan=plan.name,
                    stage=stage.label,
                    phase=stats.current_phase,
                    predicted_ios=stage.predicted_ios,
                    reads=delta.seq_reads + delta.rand_reads,
                    writes=delta.seq_writes + delta.rand_writes,
                    random_ios=delta.random,
                    records=stats.records_written - records_before,
                    bytes_stored=stats.bytes_stored - bytes_before,
                    wall_seconds=wall,
                ))
        return result
