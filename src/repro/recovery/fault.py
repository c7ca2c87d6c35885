"""Deterministic fault injection for the simulated block devices.

:class:`FaultInjector` attaches to a :class:`~repro.io.blocks.BlockDevice`
(or :class:`~repro.io.persistent.PersistentBlockDevice`) the same way the
:class:`~repro.io.pool.SharedBufferPool` does, and raises
:class:`~repro.exceptions.SimulatedCrash` at an exactly reproducible point:
either the N-th block I/O after attachment (``crash_at_io``), or the first
block I/O attributed to a given phase label (``crash_in_phase``).  With
``torn=True`` an interrupted *write* additionally leaves a half-written
block behind — the checksum layer then surfaces it as a
:class:`~repro.exceptions.CorruptBlockError` on read, which is how torn
writes are detected in real storage systems.

The injector fires *before* the operation is charged to the ledger: the
simulated machine lost power mid-operation, so the I/O never completed.
Injectors are one-shot — after firing they go inert, so a resumed run on
the same device does not crash again unless re-armed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exceptions import SimulatedCrash, TransientIOError

__all__ = ["FaultInjector", "FaultSpec", "FaultSchedule", "FAULT_KINDS"]


class FaultInjector:
    """A scheduled, reproducible crash on a simulated device.

    Args:
        crash_at_io: fire on the N-th block I/O after :meth:`attach`
            (1-based; reads and writes both count).
        crash_in_phase: fire on the first block I/O whose
            :class:`~repro.io.stats.IOStats` phase stack contains this
            label (e.g. ``"contract-2"``, ``"semi-scc"``, ``"expand-1"``).
        torn: when the interrupted operation is a write, leave half of it
            on the device before raising (a torn block).

    Exactly one of ``crash_at_io`` / ``crash_in_phase`` must be given.
    """

    def __init__(
        self,
        crash_at_io: Optional[int] = None,
        crash_in_phase: Optional[str] = None,
        torn: bool = False,
    ) -> None:
        if (crash_at_io is None) == (crash_in_phase is None):
            raise ValueError("give exactly one of crash_at_io / crash_in_phase")
        if crash_at_io is not None and crash_at_io < 1:
            raise ValueError(f"crash_at_io is 1-based, got {crash_at_io}")
        self.crash_at_io = crash_at_io
        self.crash_in_phase = crash_in_phase
        self.torn = torn
        self.ordinal = 0  # I/Os observed since attach
        self.fired = False

    def attach(self, device) -> "FaultInjector":
        """Install on ``device`` (counting starts here); returns self."""
        device.attach_injector(self)
        return self

    def _should_fire(self, device) -> bool:
        if self.crash_at_io is not None:
            return self.ordinal == self.crash_at_io
        return self.crash_in_phase in device.stats._phase_stack

    def on_io(
        self,
        device,
        f,
        is_write: bool,
        records: Optional[Sequence] = None,
        index: Optional[int] = None,
    ) -> None:
        """Device hook: called before every block operation completes.

        Raises :class:`SimulatedCrash` at the scheduled point; on a torn
        write the half-written block is left behind first (uncharged — the
        machine died mid-write).
        """
        if self.fired:
            return
        self.ordinal += 1
        if not self._should_fire(device):
            return
        self.fired = True
        if self.torn and is_write and records is not None:
            device._torn_write(f, records, index=index)
        stack = device.stats._phase_stack
        raise SimulatedCrash(self.ordinal, phase=stack[-1] if stack else None)


FAULT_KINDS = (
    "transient-read",
    "transient-write",
    "corrupt",
)
"""The fault taxonomy, beyond PR 3's fail-stop ``SimulatedCrash``:

``transient-read`` / ``transient-write``
    The operation raises :class:`TransientIOError` for ``failures``
    consecutive attempts, then succeeds (the simulated flaky ``EIO``).
``corrupt``
    A scheduled bit-flip in the targeted block's stored payload; the
    per-block CRC layer surfaces it as ``CorruptBlockError`` on read.  The
    device keeps no redundancy, so a checkpointed run answers it by
    resuming from its journal.
"""


@dataclass
class FaultSpec:
    """One scheduled fault.

    A fault triggers on the first *eligible* first-attempt block
    operation at or after ordinal ``at_io`` (1-based, counted since
    attach; retries of a faulted operation do not advance the ordinal, so
    a schedule's later faults land on the same logical operations as they
    would in a retry-free run), or on the first eligible operation whose
    phase stack contains ``in_phase``.  Each spec fires exactly once.

    Args:
        kind: one of :data:`FAULT_KINDS`.
        at_io: 1-based device-operation ordinal trigger.
        in_phase: phase-label trigger (e.g. ``"contract-1"``).
        failures: for transient kinds, how many consecutive attempts of
            the targeted operation fail before it succeeds.
    """

    kind: str
    at_io: Optional[int] = None
    in_phase: Optional[str] = None
    failures: int = 1
    fired: bool = False
    fired_at: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})")
        if (self.at_io is None) == (self.in_phase is None):
            raise ValueError(f"{self.kind} needs exactly one of at_io / in_phase")
        if self.at_io is not None and self.at_io < 1:
            raise ValueError(f"at_io is 1-based, got {self.at_io}")
        if self.failures < 1:
            raise ValueError(f"failures must be >= 1, got {self.failures}")

    def _eligible(self, is_write: bool) -> bool:
        if self.kind == "transient-write":
            return is_write
        return not is_write  # transient-read and corrupt hit reads


class FaultSchedule:
    """A deterministic, seedable schedule of faults for one run.

    Attaches to a device like the :class:`FaultInjector`
    (``schedule.attach(device)`` / ``device.attach_schedule(schedule)``)
    and is consulted by the device's retry wrapper before every block
    operation attempt.  All triggering is by deterministic ordinals or
    phase labels — two runs with the same schedule fault identically.

    Thread-safe: ordinal bookkeeping is locked, exceptions are raised
    outside the lock.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.ordinal = 0  # first-attempt device operations since attach
        self._pending_failures = 0  # transient failures left for current op
        self._lock = threading.Lock()

    @classmethod
    def single(cls, kind: str, **kwargs) -> "FaultSchedule":
        """A schedule with exactly one fault (the chaos-matrix shape)."""
        return cls([FaultSpec(kind, **kwargs)])

    def attach(self, device) -> "FaultSchedule":
        """Install on ``device`` (counting starts here); returns self."""
        device.attach_schedule(self)
        return self

    @property
    def fired(self) -> List[FaultSpec]:
        """The specs that have fired so far, in schedule order."""
        return [s for s in self.specs if s.fired]

    def on_io(
        self,
        device,
        f,
        is_write: bool,
        records: Optional[Sequence] = None,
        index: Optional[int] = None,
        attempt: int = 0,
    ) -> None:
        """Called by the device before every block-operation attempt.

        Raises :class:`TransientIOError` for attempts that must fail, and
        injects ``corrupt`` damage into the targeted block (the CRC layer
        then surfaces it on the read).
        """
        action: Optional[str] = None
        with self._lock:
            if attempt == 0:
                self.ordinal += 1
                self._pending_failures = 0
            stack = device.stats._phase_stack
            # 1. A transient fault already latched onto this operation.
            if self._pending_failures > 0:
                self._pending_failures -= 1
                action = "transient"
            # 2. New specs triggering on this attempt.
            elif attempt == 0:
                for spec in self.specs:
                    if spec.fired or not spec._eligible(is_write):
                        continue
                    if not self._triggered(spec, stack):
                        continue
                    spec.fired = True
                    spec.fired_at = self.ordinal
                    if spec.kind == "corrupt":
                        action = "corrupt"
                    else:
                        self._pending_failures = spec.failures - 1
                        action = "transient"
                    break
        if action == "transient":
            raise TransientIOError(
                f"transient {'write' if is_write else 'read'} fault on "
                f"{getattr(f, 'name', f)!r}",
                attempt=attempt,
            )
        # corrupt: damage the stored block in place, then let the read
        # proceed — the CRC check surfaces CorruptBlockError.
        if action == "corrupt" and index is not None:
            device._damage_block(f, index)

    def _triggered(self, spec: FaultSpec, stack: Sequence[str]) -> bool:
        if spec.at_io is not None:
            return self.ordinal >= spec.at_io
        return spec.in_phase in stack
