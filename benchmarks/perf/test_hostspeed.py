"""Unit tests of the host-speed correction (``hostspeed.py``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import time

import pytest

from hostspeed import REFERENCE_S, SpeedProbe, slowdown
from workloads import corrected


def test_slowdown_is_the_mean_probe_time_inside_the_interval():
    samples = [(0.0, REFERENCE_S), (1.0, 2 * REFERENCE_S),
               (2.0, 3 * REFERENCE_S), (3.0, REFERENCE_S)]
    assert slowdown(samples, 1.0, 3.0) == pytest.approx(2.5)
    assert slowdown(samples, 0.0, 10.0) == pytest.approx(1.75)
    # No probe started inside: the nearest one after the start.
    assert slowdown(samples, 1.5, 1.6) == pytest.approx(3.0)
    assert slowdown(samples, 9.0, 9.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        slowdown([], 0.0, 1.0)


def test_corrected_time_divides_out_the_slowdown():
    samples = [(10.0, 2 * REFERENCE_S), (11.0, 2 * REFERENCE_S)]
    assert corrected(samples, (10.0, 12.0)) == pytest.approx(1.0)


def test_probe_records_samples_and_round_trips(tmp_path):
    deadline = time.monotonic() + 10
    with SpeedProbe() as probe:
        while len(probe.samples) < 3 and time.monotonic() < deadline:
            pass  # busy: the probe thread still gets the interpreter
    assert len(probe.samples) >= 3
    starts = [start for start, _ in probe.samples]
    assert starts == sorted(starts)
    assert all(duration > 0 for _, duration in probe.samples)
    path = tmp_path / "speed.json"
    probe.dump(path)
    assert SpeedProbe.load(path) == probe.samples
