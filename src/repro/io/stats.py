"""I/O accounting for the simulated external-memory model.

The paper evaluates algorithms by the number of block I/Os they perform and
distinguishes the *sequential* access pattern of scans and external sorts
from the *random* accesses of external DFS.  :class:`IOStats` is the ledger
every simulated device writes into; it tracks reads/writes split by
sequential/random, optionally broken down by a user-pushed *phase* label
(e.g. ``"contraction"`` / ``"expansion"``), and enforces an optional
:class:`IOBudget`.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.exceptions import IOBudgetExceeded

__all__ = [
    "IOBudget",
    "IOStats",
    "IOSnapshot",
    "HealthLedger",
    "RECOVERY_PHASE",
    "RETRY_PHASE",
    "FAULT_PHASES",
]

RECOVERY_PHASE = "recovery"
"""Phase label for checkpoint-resume work: journal validation reads on
restart are charged here, so recovery overhead is separable from the
algorithm's own ledger (the MTTR report subtracts it)."""

RETRY_PHASE = "retry"
"""Phase label for block I/Os burned on failed transient attempts.  Charged
via :meth:`IOStats.record_fault_io` outside the phase stack, so a faulty
run's per-phase ledger stays equal to the fault-free run's and the *only*
delta is this label."""

FAULT_PHASES = (RETRY_PHASE,)
"""The labels fault handling may charge; every other label must be
byte-identical between a faulty and a fault-free run."""


class HealthLedger:
    """Counters for fault-tolerance work, kept next to the I/O ledger.

    Everything here is *bookkeeping about degradation*, not block I/O:
    how many transient attempts were retried or escalated, how many
    simulated backoff seconds the retry policy charged, and which
    degradation events happened.
    Surfaced in ``scc -v``, bench tables/JSON, and ``--trace-json``.
    """

    _COUNTERS = (
        "retries",
        "escalations",
    )

    def __init__(self) -> None:
        self.retries = 0
        self.escalations = 0
        self.backoff_seconds = 0.0
        # top-level phase label -> simulated backoff seconds spent there
        # (the policy's per-phase deadline is enforced against this).
        self.backoff_by_phase: Dict[str, float] = {}
        # Human-readable degradation events, in order.
        self.events: List[str] = []

    def record_event(self, message: str) -> None:
        self.events.append(message)

    def snapshot(self) -> dict:
        """A JSON-friendly copy of the ledger (events included)."""
        out = {name: getattr(self, name) for name in self._COUNTERS}
        out["backoff_seconds"] = self.backoff_seconds
        out["events"] = list(self.events)
        return out

    def delta(self, start: dict) -> dict:
        """The ledger delta since a :meth:`snapshot` taken earlier."""
        now = self.snapshot()
        out = {
            name: now[name] - start.get(name, 0) for name in self._COUNTERS
        }
        out["backoff_seconds"] = now["backoff_seconds"] - start.get(
            "backoff_seconds", 0.0
        )
        out["events"] = now["events"][len(start.get("events", ())) :]
        return out

    @property
    def faulted(self) -> bool:
        """True when any fault-tolerance machinery actually fired."""
        return bool(
            self.retries
            or self.escalations
            or self.events
        )

    def reset(self) -> None:
        for name in self._COUNTERS:
            setattr(self, name, 0)
        self.backoff_seconds = 0.0
        self.backoff_by_phase.clear()
        self.events.clear()


@dataclass
class IOBudget:
    """A cap on the total number of block I/Os a run may perform.

    This is the deterministic analogue of the paper's 24-hour wall-clock
    limit: once ``max_ios`` block operations have been counted, the next
    operation raises :class:`~repro.exceptions.IOBudgetExceeded` and the
    benchmark harness reports the run as ``INF``.
    """

    max_ios: int

    def check(self, used: int) -> None:
        """Raise :class:`IOBudgetExceeded` if ``used`` exceeds the cap."""
        if used > self.max_ios:
            raise IOBudgetExceeded(used, self.max_ios)


@dataclass(frozen=True)
class IOSnapshot:
    """An immutable copy of the four I/O counters at a point in time."""

    seq_reads: int = 0
    seq_writes: int = 0
    rand_reads: int = 0
    rand_writes: int = 0

    @property
    def total(self) -> int:
        """Total number of block I/Os."""
        return self.seq_reads + self.seq_writes + self.rand_reads + self.rand_writes

    @property
    def sequential(self) -> int:
        """Number of sequential block I/Os (scans, sort runs, appends)."""
        return self.seq_reads + self.seq_writes

    @property
    def random(self) -> int:
        """Number of random block I/Os (seeks into the middle of files)."""
        return self.rand_reads + self.rand_writes

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            seq_reads=self.seq_reads - other.seq_reads,
            seq_writes=self.seq_writes - other.seq_writes,
            rand_reads=self.rand_reads - other.rand_reads,
            rand_writes=self.rand_writes - other.rand_writes,
        )

    def __add__(self, other: "IOSnapshot") -> "IOSnapshot":
        """Counter-wise sum — how the service rolls per-tenant ledgers up
        into one service-level view."""
        return IOSnapshot(
            seq_reads=self.seq_reads + other.seq_reads,
            seq_writes=self.seq_writes + other.seq_writes,
            rand_reads=self.rand_reads + other.rand_reads,
            rand_writes=self.rand_writes + other.rand_writes,
        )

    def to_dict(self) -> Dict[str, int]:
        """JSON-friendly counters plus the derived totals."""
        return {
            "seq_reads": self.seq_reads,
            "seq_writes": self.seq_writes,
            "rand_reads": self.rand_reads,
            "rand_writes": self.rand_writes,
            "sequential": self.sequential,
            "random": self.random,
            "total": self.total,
        }


class IOStats:
    """Mutable ledger of block I/Os performed on a simulated device.

    Counters are in units of *blocks*.  ``record_read`` / ``record_write``
    are called by the :class:`~repro.io.blocks.BlockDevice`; user code only
    reads the properties, takes snapshots, or pushes phase labels::

        stats = IOStats(budget=IOBudget(10_000))
        with stats.phase("contraction"):
            ...  # device operations are attributed to "contraction"
        print(stats.total, stats.by_phase["contraction"].total)
    """

    def __init__(self, budget: Optional[IOBudget] = None) -> None:
        self.seq_reads = 0
        self.seq_writes = 0
        self.rand_reads = 0
        self.rand_writes = 0
        self.merge_passes = 0
        self.runs_formed = 0
        self.records_written = 0
        self.bytes_logical = 0
        self.bytes_stored = 0
        self.budget = budget
        # label -> [seq_reads, seq_writes, rand_reads, rand_writes].  Kept
        # as plain mutable lists so the per-I/O attribution is one C-level
        # ``list[idx] += blocks``; the public :attr:`by_phase` view freezes
        # them into :class:`IOSnapshot` objects on read.
        self._phase_counts: Dict[str, list[int]] = {}
        self.passes_by_phase: Dict[str, int] = {}
        self.runs_by_phase: Dict[str, int] = {}
        # label -> [records, logical bytes, stored bytes]
        self.bytes_by_phase: Dict[str, list[int]] = {}
        # label -> host wall-clock seconds spent inside the phase.  Unlike
        # the I/O counters this is a *measurement*, not a simulation
        # quantity — regression gates must never compare it.
        self.seconds_by_phase: Dict[str, float] = {}
        # logical record width -> [records, stored bytes] (feeds the cost
        # model's bytes-per-record calibration)
        self.bytes_by_width: Dict[int, list[int]] = {}
        self._phase_stack: list[str] = []
        # Labels entered while the stack was empty, in first-entry order —
        # the run's outermost phases, which partition its attributed I/O.
        self.top_level_phases: List[str] = []
        # The query daemon's handler and batch-collector threads record
        # into one ledger concurrently; the counter updates and by-phase
        # read-modify-writes must be atomic.  The budget check stays outside the lock so an
        # IOBudgetExceeded never propagates with the lock held.
        self._lock = threading.Lock()
        self.health = HealthLedger()

    # -- recording (called by the device) ---------------------------------

    def record_read(self, sequential: bool, blocks: int = 1) -> None:
        """Count ``blocks`` block reads with the given access pattern."""
        with self._lock:
            if sequential:
                self.seq_reads += blocks
            else:
                self.rand_reads += blocks
            self._attribute(sequential, blocks, is_read=True)
        self._enforce_budget()

    def record_write(self, sequential: bool, blocks: int = 1) -> None:
        """Count ``blocks`` block writes with the given access pattern."""
        with self._lock:
            if sequential:
                self.seq_writes += blocks
            else:
                self.rand_writes += blocks
            self._attribute(sequential, blocks, is_read=False)
        self._enforce_budget()

    def record_merge_pass(self, passes: int = 1) -> None:
        """Count ``passes`` full merge passes of the external sort.

        A *pass* reads and (for intermediate passes) rewrites every block
        of the data being sorted; the external sort reports one per merge
        level, and none when run formation already produced a single run.
        The counter is attributed to every active phase label, so per-phase
        pass counts (``passes_by_phase``) let a benchmark compare run
        formation strategies level by level.
        """
        with self._lock:
            self.merge_passes += passes
            for label in self._phase_stack:
                self.passes_by_phase[label] = self.passes_by_phase.get(label, 0) + passes

    def record_runs_formed(self, runs: int) -> None:
        """Count ``runs`` initial sorted runs written by run formation."""
        with self._lock:
            self.runs_formed += runs
            for label in self._phase_stack:
                self.runs_by_phase[label] = self.runs_by_phase.get(label, 0) + runs

    def record_payload_write(
        self, records: int, logical: int, stored: int, record_size: int
    ) -> None:
        """Account the payload bytes of ``records`` written records.

        ``logical`` is the fixed-width footprint (records × declared record
        width); ``stored`` is what landed on disk after the stream's codec
        — equal for fixed-width files, smaller for compressed ones.  The
        ratio between the per-phase sums is the phase's compression ratio,
        and the per-width sums calibrate the cost model's stored
        bytes-per-record estimates.
        """
        if records <= 0:
            return
        with self._lock:
            self.records_written += records
            self.bytes_logical += logical
            self.bytes_stored += stored
            for label in self._phase_stack:
                entry = self.bytes_by_phase.setdefault(label, [0, 0, 0])
                entry[0] += records
                entry[1] += logical
                entry[2] += stored
            width_entry = self.bytes_by_width.setdefault(record_size, [0, 0])
            width_entry[0] += records
            width_entry[1] += stored

    def record_fault_io(
        self, label: str, is_read: bool, sequential: bool, blocks: int = 1
    ) -> None:
        """Count fault-handling I/O under ``label`` instead of the phase stack.

        Failed transient attempts (:data:`RETRY_PHASE`) go through here:
        the blocks count
        toward the global totals — and therefore toward the
        :class:`IOBudget`, so a run cannot retry its way past the paper's
        INF cutoff — but are attributed *only* to the given label, never
        to the active algorithm phases.  That keeps the per-phase ledger
        of a faulty run byte-identical to the fault-free run, with the
        fault label as the whole, separately auditable delta.
        """
        with self._lock:
            if is_read and sequential:
                self.seq_reads += blocks
            elif is_read:
                self.rand_reads += blocks
            elif sequential:
                self.seq_writes += blocks
            else:
                self.rand_writes += blocks
            idx = (0 if sequential else 2) if is_read else (1 if sequential else 3)
            counts = self._phase_counts.get(label)
            if counts is None:
                counts = self._phase_counts[label] = [0, 0, 0, 0]
            counts[idx] += blocks
        self._enforce_budget()

    def fault_total(self) -> int:
        """Block I/Os charged to the fault labels."""
        return sum(self.phase_total(label) for label in FAULT_PHASES)

    def _attribute(self, sequential: bool, blocks: int, is_read: bool) -> None:
        idx = (0 if sequential else 2) if is_read else (1 if sequential else 3)
        phase_counts = self._phase_counts
        for label in self._phase_stack:
            counts = phase_counts.get(label)
            if counts is None:
                counts = phase_counts[label] = [0, 0, 0, 0]
            counts[idx] += blocks

    def _enforce_budget(self) -> None:
        if self.budget is not None:
            self.budget.check(self.total)

    # -- reading -----------------------------------------------------------

    @property
    def total(self) -> int:
        """Total block I/Os so far."""
        return self.seq_reads + self.seq_writes + self.rand_reads + self.rand_writes

    @property
    def sequential(self) -> int:
        """Sequential block I/Os so far."""
        return self.seq_reads + self.seq_writes

    @property
    def random(self) -> int:
        """Random block I/Os so far."""
        return self.rand_reads + self.rand_writes

    def snapshot(self) -> IOSnapshot:
        """Freeze the current counters (use ``later - earlier`` for deltas)."""
        with self._lock:
            return IOSnapshot(self.seq_reads, self.seq_writes, self.rand_reads, self.rand_writes)

    @property
    def by_phase(self) -> Dict[str, IOSnapshot]:
        """Per-phase I/O counters, frozen into snapshots at read time."""
        with self._lock:
            return {
                label: IOSnapshot(*counts)
                for label, counts in self._phase_counts.items()
            }

    def phase_total(self, label: str) -> int:
        """Total block I/Os attributed to ``label`` (0 if it never ran)."""
        counts = self._phase_counts.get(label)
        return sum(counts) if counts is not None else 0

    @property
    def current_phase(self) -> str:
        """The active phase stack as a ``/``-joined path (``""`` outside
        any phase) — what an executed plan stage's span is labelled with."""
        return "/".join(self._phase_stack)

    @contextlib.contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Attribute all I/O inside the ``with`` block to ``label``.

        Phases nest: inner-phase I/O is attributed to every label on the
        stack, so a ``"contraction"`` phase containing a ``"sort"`` phase
        charges both.

        Only the orchestrating thread pushes phases, so the stack is never
        mutated while another thread attributes against it.
        """
        if not self._phase_stack and label not in self.top_level_phases:
            self.top_level_phases.append(label)
        self._phase_stack.append(label)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._phase_stack.pop()
            # Wall-clock is attributed to the exiting label only: an outer
            # label's own span already covers the time its inner phases ran.
            elapsed = time.perf_counter() - started
            self.seconds_by_phase[label] = (
                self.seconds_by_phase.get(label, 0.0) + elapsed
            )

    def reset(self) -> None:
        """Zero every counter and drop all phase attributions."""
        self.seq_reads = self.seq_writes = self.rand_reads = self.rand_writes = 0
        self.merge_passes = 0
        self.runs_formed = 0
        self.records_written = 0
        self.bytes_logical = 0
        self.bytes_stored = 0
        self._phase_counts.clear()
        self.passes_by_phase.clear()
        self.runs_by_phase.clear()
        self.bytes_by_phase.clear()
        self.seconds_by_phase.clear()
        self.bytes_by_width.clear()
        self.top_level_phases.clear()
        self.health.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IOStats(seq_reads={self.seq_reads}, seq_writes={self.seq_writes}, "
            f"rand_reads={self.rand_reads}, rand_writes={self.rand_writes})"
        )
