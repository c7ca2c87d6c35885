"""The external-operator vocabulary of an :class:`~repro.plan.ExtPlan`.

Every pipeline in this repo — contraction's Get-V/Get-E, expansion's
augments, the EM-SCC rewrites, the semi-external hand-off — is a
composition of seven external operators:

* :class:`Scan` — one sequential pass over a record stream;
* :class:`SortRuns` — replacement-selection run formation of an external
  sort (the formation *writes*; reading the producer is the producer's
  scan);
* :class:`MergePasses` — the merge levels of an external sort (each level
  reads and writes every block; the final level only reads when the sort
  is fused into its consumer);
* :class:`MergeJoin` — a co-scan of sorted streams (merge / semi / anti
  join, cogroup); free when both inputs are already streaming;
* :class:`Dedupe` — duplicate elimination inside a sorted stream;
* :class:`Rewrite` — a record-level transform (endpoint mapping, label
  attachment, degree augmentation);
* :class:`Materialize` — writing a result file.  ``fusable`` marks the
  sort outputs PR 1 fusion can elide; ``checkpoint`` names the journal
  role PR 3 commits when the file is durable.

Operators are *declarative*: they describe what an executed stage does
(and what it should cost) — the executable side lives in the plan's
stages, whose thunks run the existing fused pipelines verbatim so a
plan-built run is byte-identical to the hand-threaded one.

Costing is attached as a small spec tuple interpreted by
:func:`repro.analysis.planner.predict_plan`:

``("scan", records, width)``
    one sequential pass: ``CostModel.scan``-priced blocks.
``("sort-runs", records, width)``
    formation writes of an external sort (one pass worth of blocks).
``("merge-passes", records, width)``
    every merge level's reads+writes; the final level's write belongs to
    the matching ``("sort-final", ...)`` Materialize unless the group is
    fused, in which case the final level only reads.
``("sort-final", records, width)``
    the final merge's output write of a *materialized* sort.
``("write", records, width)``
    a plain sequential write (scan-priced).
``("free",)``
    no block I/O of its own (in-flight transforms, fused co-scans).

The specs of one sort are tied together by ``group`` so the planner's
fusion rewrite can re-price the whole chain; by construction the group's
parts always sum to exactly :meth:`CostModel.sort` (materialized) or
:meth:`CostModel.sort_streamed` (fused).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "PlanOp",
    "Scan",
    "SortRuns",
    "MergePasses",
    "MergeJoin",
    "Dedupe",
    "Rewrite",
    "Materialize",
]

CostSpec = Tuple


@dataclass
class PlanOp:
    """One node of the operator DAG.

    Attributes:
        label: stable human-readable name (``"E_out by (src,dst)"``) —
            also the DAG edge target other ops name in ``inputs``.  Labels
            are deterministic (no temp-file names) so a rendered plan can
            be snapshot-tested.
        inputs: labels of the upstream operators.
        records: estimated records flowing through the operator.
        record_size: logical bytes per record.
        cost: the cost spec (see module docstring).
        group: sort-group id tying ``SortRuns``/``MergePasses`` and the
            ``Materialize`` of one external sort together for the fusion
            rewrite.
        fusable: a ``Materialize`` the executed pipeline *can* stream away
            (PR 1); the fusion rewrite elides it when that is cheaper.
        fused: set by the fusion rewrite on the surviving sort parts.
        elided: set by the fusion rewrite on the removed ``Materialize``.
        codec: storage codec assigned by the codec rewrite to writing ops.
        checkpoint: journal role (``"contract"`` / ``"semi"`` /
            ``"expand"``) a ``Materialize`` declares; the executor commits
            the matching checkpoint entry when the owning stage finishes.
        predicted_ios: blocks the planner predicts for this operator.
        id: position in the owning plan (assigned by ``ExtPlan.add``).
    """

    label: str
    inputs: Tuple[str, ...] = ()
    records: int = 0
    record_size: int = 0
    cost: CostSpec = ("free",)
    group: Optional[str] = None
    fusable: bool = False
    fused: bool = False
    elided: bool = False
    codec: Optional[str] = None
    checkpoint: Optional[str] = None
    predicted_ios: Optional[int] = None
    id: int = field(default=-1, compare=False)

    kind = "op"

    @property
    def writes(self) -> bool:
        """Does this operator write blocks (and therefore take a codec)?"""
        return self.cost[0] in ("sort-runs", "merge-passes", "sort-final", "write")


@dataclass
class Scan(PlanOp):
    kind = "scan"


@dataclass
class SortRuns(PlanOp):
    kind = "sort-runs"


@dataclass
class MergePasses(PlanOp):
    kind = "merge-passes"


@dataclass
class MergeJoin(PlanOp):
    kind = "merge-join"


@dataclass
class Dedupe(PlanOp):
    kind = "dedupe"


@dataclass
class Rewrite(PlanOp):
    kind = "rewrite"


@dataclass
class Materialize(PlanOp):
    kind = "materialize"
