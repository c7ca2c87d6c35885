"""Per-stage execution tracing: spans and the trace ledger.

Every stage a :class:`~repro.plan.PlanExecutor` runs emits one
:class:`Span` — the stage, the phase it was charged to, the cost
model's predicted blocks, and the measured I/O delta (blocks, payload
bytes, wall time).  The ledger is
surfaced by ``repro scc --trace-json`` and by bench reporting, and the
trace-envelope benchmark checks the predictions against the
measurements.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

__all__ = ["Span", "TraceLedger"]


@dataclass
class Span:
    """One executed plan stage's measurements.

    Attributes:
        plan: name of the owning plan (``"contract-1"``).
        stage: stage label within the plan (``"get-v"``).
        phase: innermost I/O-ledger phase the blocks were charged to.
        predicted_ios: the stage's cost-model prediction (``None`` when
            the plan was executed without being priced).
        reads / writes: measured blocks.
        random_ios: measured non-sequential accesses (zero by design).
        records: records appended to files during the stage.
        bytes_stored: stored payload bytes written during the stage.
        wall_seconds: host wall-clock time of the stage.
    """

    plan: str
    stage: str
    phase: str
    predicted_ios: Optional[int]
    reads: int
    writes: int
    random_ios: int
    records: int
    bytes_stored: int
    wall_seconds: float

    @property
    def measured_ios(self) -> int:
        """Total measured blocks of the stage."""
        return self.reads + self.writes


class TraceLedger:
    """A list of executed spans with aggregate views.

    Args:
        window: keep only the most recent ``window`` spans in
            :attr:`spans` (``None`` keeps every span).  The count
            (:attr:`recorded`) and the aggregate views are running totals
            over every span ever recorded, so a long-lived process — the
            query daemon records one span per batch flush — holds flat
            memory however long it runs.

    :meth:`record` may be called from several threads (the daemon's
    batch engines share one ledger); the running totals are updated
    under a lock.
    """

    def __init__(self, window: Optional[int] = None) -> None:
        self.spans: List[Span] = []
        self.window = window
        self.recorded = 0
        self._phases: Dict[str, Dict[str, float]] = {}
        self._lock = threading.Lock()

    def record(self, span: Span) -> None:
        top = span.phase.split("/", 1)[0] if span.phase else ""
        with self._lock:
            self.spans.append(span)
            if self.window is not None and len(self.spans) > self.window:
                del self.spans[0]
            self.recorded += 1
            bucket = self._phases.setdefault(
                top,
                {"predicted": 0, "measured": 0, "wall_seconds": 0.0},
            )
            bucket["predicted"] += span.predicted_ios or 0
            bucket["measured"] += span.measured_ios
            bucket["wall_seconds"] += span.wall_seconds

    @property
    def total_measured(self) -> int:
        """Measured blocks across every span."""
        return sum(int(b["measured"]) for b in self.by_phase().values())

    @property
    def total_predicted(self) -> int:
        """Predicted blocks across every span with a prediction."""
        return sum(int(b["predicted"]) for b in self.by_phase().values())

    def by_phase(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {predicted, measured, wall_seconds}}`` over
        the run's top-level phases (the prefix before the first ``/``).
        ``wall_seconds`` is the one float — a host measurement riding along
        with the simulated counters."""
        with self._lock:
            return {top: dict(bucket) for top, bucket in self._phases.items()}

    def render(self) -> str:
        """A printable per-span table (predicted vs. measured blocks)."""
        lines = [
            f"{'plan':<14} {'stage':<18} {'pred.':>8} {'meas.':>8} "
            f"{'Δ%':>7} {'bytes':>12}"
        ]
        for s in self.spans:
            if s.predicted_ios is None:
                delta = "-"
            elif s.predicted_ios == 0:
                delta = "0.0" if s.measured_ios == 0 else "inf"
            else:
                delta = f"{100 * (s.measured_ios - s.predicted_ios) / s.predicted_ios:+.1f}"
            pred = "-" if s.predicted_ios is None else f"{s.predicted_ios:,}"
            lines.append(
                f"{s.plan:<14} {s.stage:<18} {pred:>8} {s.measured_ios:>8,} "
                f"{delta:>7} {s.bytes_stored:>12,}"
            )
        lines.append(
            f"{'TOTAL':<14} {'':<18} {self.total_predicted:>8,} "
            f"{self.total_measured:>8,}"
        )
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 1, plans=None,
                context: Optional[dict] = None) -> str:
        """The full ledger as JSON (spans plus per-phase aggregates).

        Args:
            indent: JSON indentation.
            plans: optional executed :class:`~repro.plan.ExtPlan` list —
                each is serialized with its stages (label, checkpoint
                role, ``predicted_ios``), so one artifact carries
                everything offline analysis needs.
            context: optional run context (knobs, sizes, the payload
                ledger).
        """
        payload: dict = {
            "spans": [asdict(s) for s in self.spans],
            "by_phase": self.by_phase(),
            "total_predicted": self.total_predicted,
            "total_measured": self.total_measured,
        }
        if plans is not None:
            payload["plans"] = [
                {
                    "name": plan.name,
                    "phase": plan.phase,
                    "predicted_total": plan.total_predicted,
                    "stages": [
                        {
                            "label": stage.label,
                            "checkpoint": stage.checkpoint,
                            "predicted_ios": stage.predicted_ios,
                        }
                        for stage in plan.stages
                    ],
                }
                for plan in plans
            ]
        if context is not None:
            payload["context"] = context
        return json.dumps(payload, indent=indent)
