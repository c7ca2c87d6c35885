"""The exact-count gate of ``benchmarks/check_perf_counts.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_perf_counts.py"
_SPEC = importlib.util.spec_from_file_location("check_perf_counts", _PATH)
check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check)

COUNTS = {"io_total": 100, "num_sccs": 3, "labels_sha256": "ab"}


def _run(workload="webspam-contract", seed=1, **changes):
    return {"workload": workload, "seed": seed, "counts": {**COUNTS, **changes}}


def test_matching_runs_pass():
    expected = check.counts_by_run([_run(), _run(seed=2)])
    assert check.problems([_run(), _run(seed=2)], expected) == []


def test_changed_count_is_named():
    expected = check.counts_by_run([_run()])
    assert check.problems([_run(io_total=101)], expected) == [
        "webspam-contract seed 1: io_total is 101, committed 100"
    ]


def test_unknown_seed_fails():
    expected = check.counts_by_run([_run()])
    assert check.problems([_run(seed=3)], expected) == [
        "webspam-contract seed 3: no committed counts"
    ]


def test_disagreeing_repeats_are_refused():
    with pytest.raises(SystemExit):
        check.counts_by_run([_run(), _run(num_sccs=4)])


def test_committed_counts_cover_the_ci_runs():
    expected = json.loads(check.EXPECTED.read_text())
    for workload in ("webspam-contract", "webspam-semi", "serve-closed"):
        assert set(expected[workload]) == {"1", "2"}
