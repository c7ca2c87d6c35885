"""Host-speed probe: corrects measured times for the host's own speed.

On a shared virtual machine the speed of a vCPU changes by tens of
percent from one second to the next, and stays slow for whole runs at a
time, so two runs of identical code can differ by more than any useful
regression bound.  :class:`SpeedProbe` runs a fixed piece of pure-Python
work (:func:`probe_work`) on a background thread of the measured process
every :data:`PERIOD_S` seconds and records how long it took.  The mean of
those durations over an interval, divided by :data:`REFERENCE_S`, is the
interval's *slowdown*; a time divided by its slowdown is the time the
same work would have taken at reference speed.

The probe takes about 1.5% of the process's CPU, and while it holds the
interpreter lock other threads wait up to one probe (~0.3 ms).  Both
costs are the same for every commit measured.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from bisect import bisect_left
from typing import List, Sequence, Tuple

__all__ = ["PERIOD_S", "REFERENCE_S", "SpeedProbe", "pin_to_cpu", "probe_work",
           "slowdown"]

PERIOD_S = 0.02
"""Seconds between probes."""

REFERENCE_S = 0.000300
"""What one :func:`probe_work` call takes at reference speed (its median
on an idle 2.1 GHz Xeon vCPU under Python 3.11).  It only scales the
corrected times; comparisons on one host do not depend on it."""


def probe_work() -> int:
    """A fixed ~0.3 ms of interpreter work.  It builds no container: an
    allocation could start a garbage collection, whose cost grows with
    the measured program's heap rather than with the host's speed."""
    total = 0
    for i in range(5_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Times :func:`probe_work` every :data:`PERIOD_S` on a daemon thread.

    ``samples`` holds ``(start, duration)`` pairs in ``perf_counter``
    seconds, which are comparable between processes on one host.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe",
                                        daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            start = clock()
            probe_work()
            self.samples.append((start, clock() - start))

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def __enter__(self) -> "SpeedProbe":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            json.dump(self.samples, out)

    @staticmethod
    def load(path) -> List[Tuple[float, float]]:
        with open(path, encoding="ascii") as src:
            return [tuple(sample) for sample in json.load(src)]


def slowdown(samples: Sequence[Tuple[float, float]], start: float,
             end: float) -> float:
    """The mean duration of the probes (``(start, duration)`` samples,
    sorted) that started in ``[start, end)``, over :data:`REFERENCE_S`;
    the nearest probe after ``start`` when none started inside."""
    if not samples:
        raise ValueError("no speed samples")
    lo = bisect_left(samples, (start,))
    hi = bisect_left(samples, (end,))
    if lo == hi:
        nearest = min(max(lo, 0), len(samples) - 1)
        return samples[nearest][1] / REFERENCE_S
    return statistics.fmean(d for _, d in samples[lo:hi]) / REFERENCE_S


def pin_to_cpu(index: int) -> None:
    """Pin this process (and the threads it starts later) to the
    ``index``-th CPU it may run on, when it may run on more than one, so
    the daemon and the load generator never queue for one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
