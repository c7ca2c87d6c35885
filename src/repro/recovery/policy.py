"""Retry/backoff policy for transient device faults.

A :class:`FaultPolicy` attaches to a block device (``device.attach_policy``)
and governs what the device's I/O paths do when an operation raises a
:class:`~repro.exceptions.TransientIOError`: how many times to retry, how
long to back off between attempts (exponential with deterministic jitter
from a seeded RNG — two runs with the same policy back off identically),
and when to give up and escalate a :class:`RetryExhaustedError` so a
checkpointed run can fail fast to the PR 3 resume path instead of hammering
a dead device.

Backoff is *accounted*, not slept, by default: the simulated seconds are
added to the health ledger's ``backoff_seconds`` (and to the per-phase
backoff budget that the ``phase_deadline`` escalation checks) so tests and
benchmarks stay instant while the ledger still shows exactly what a real
deployment would have waited.  Set ``sleep=True`` to really sleep.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional

__all__ = ["FaultPolicy", "DEFAULT_FAULT_POLICY"]


@dataclass(frozen=True)
class FaultPolicy:
    """Deterministic retry/backoff parameters for transient I/O faults.

    Args:
        max_retries: retries *after* the first attempt (so an op is tried
            at most ``max_retries + 1`` times) before escalating.
        backoff_base: backoff before the first retry, in seconds.
        backoff_factor: multiplier per further retry (exponential).
        jitter: fraction of the computed backoff added as deterministic
            jitter in ``[0, jitter)`` — derived from ``seed`` and the
            attempt token, never from global RNG state.
        seed: seed for the jitter derivation.
        phase_deadline: cap on cumulative backoff seconds within one
            top-level phase; crossing it escalates immediately even if
            attempts remain (the per-phase deadline of the fault model).
        sleep: really sleep the backoff instead of only accounting it.
    """

    max_retries: int = 3
    backoff_base: float = 0.001
    backoff_factor: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    phase_deadline: Optional[float] = None
    sleep: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_factor < 0 or self.jitter < 0:
            raise ValueError("backoff parameters must be non-negative")

    def backoff_seconds(self, attempt: int, token: int = 0) -> float:
        """Backoff before retry ``attempt`` (1-based), with jitter.

        ``token`` distinguishes concurrent retry loops (e.g. a file uid)
        so their jitter streams differ but each is fully deterministic.
        """
        if attempt < 1:
            return 0.0
        base = self.backoff_base * (self.backoff_factor ** (attempt - 1))
        if not self.jitter:
            return base
        digest = hashlib.sha256(
            f"{self.seed}:{token}:{attempt}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter * unit)

    def apply_backoff(self, attempt: int, token: int = 0) -> float:
        """Compute (and optionally really sleep) the backoff; returns it."""
        seconds = self.backoff_seconds(attempt, token)
        if self.sleep and seconds > 0:
            time.sleep(seconds)
        return seconds

    @classmethod
    def parse(cls, text: str) -> "FaultPolicy":
        """Build a policy from a CLI spec like
        ``"retries=5,backoff=0.01,factor=2,jitter=0.1,seed=7,deadline=30,sleep=1"``.

        Every key is optional; unknown keys raise ``ValueError`` with the
        accepted vocabulary, which argparse surfaces as a usage error.
        """
        kwargs: dict = {}
        keys = {
            "retries": ("max_retries", int),
            "backoff": ("backoff_base", float),
            "factor": ("backoff_factor", float),
            "jitter": ("jitter", float),
            "seed": ("seed", int),
            "deadline": ("phase_deadline", float),
            "sleep": ("sleep", lambda v: v not in ("0", "false", "no")),
        }
        text = text.strip()
        if text:
            for part in text.split(","):
                if "=" not in part:
                    raise ValueError(
                        f"bad fault-policy item {part!r}: expected key=value"
                    )
                key, _, value = part.partition("=")
                key = key.strip()
                if key not in keys:
                    raise ValueError(
                        f"unknown fault-policy key {key!r} "
                        f"(accepted: {', '.join(sorted(keys))})"
                    )
                field, conv = keys[key]
                try:
                    kwargs[field] = conv(value.strip())
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"bad value for fault-policy key {key!r}: {value!r}"
                    ) from exc
        return cls(**kwargs)


DEFAULT_FAULT_POLICY = FaultPolicy()
"""The defaults used when ``--fault-policy`` is given with no overrides."""
