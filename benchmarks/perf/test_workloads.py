"""Workload-level checks of the benchmark, at reduced size.

The workload functions are called directly with small graphs (their own
``nodes`` / ``setups`` / ``warmup`` parameters), so the whole file runs in
well under a minute::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parents[2]
SEED = 3

SMALL = {
    "webspam-contract": workloads.Batch(nodes=800, memory_ratio=0.47),
    "webspam-semi": workloads.Batch(nodes=1_500, memory_ratio=1.1),
    "serve-closed": workloads.Serve(loop="closed", cpu_bound=True, nodes=1_500),
    "serve-open": workloads.Serve(loop="open", cpu_bound=False, nodes=1_500),
}


def run_small(name: str, traced: bool, tmp_path: Path) -> dict:
    spec = SMALL[name]
    workdir = tmp_path / f"{name}-{int(traced)}"
    workdir.mkdir()
    if isinstance(spec, workloads.Batch):
        return workloads.run_batch(name, spec, SEED, seconds=0.0, traced=traced,
                                   workdir=workdir, setups=1)
    return workloads.run_serve(name, spec, SEED, seconds=1.0, traced=traced,
                               workdir=workdir, setups=1, warmup=0.3)


def values(record: dict) -> dict:
    return {name: entry["value"] for name, entry in record["metrics"].items()}


def assert_sound(record: dict) -> None:
    """Every answer right, and no reason to discard the run other than
    open-loop generator lag, which a one-second window on a busy test
    host cannot promise."""
    assert record["failed"] == 0, record["info"]
    assert not [
        problem for problem in record["info"]["invalid"]
        if not problem.startswith("generator lag")
    ], record["info"]


@pytest.mark.parametrize("name", ["webspam-contract", "webspam-semi"])
def test_tracing_moves_no_batch_ledger(name, tmp_path):
    """Labels, ``io_total`` and ``bytes_stored`` are identical with tracing
    on and off (a traced run also checks every traced call against the
    untraced calls of the same run)."""
    plain = run_small(name, False, tmp_path)
    traced = run_small(name, True, tmp_path)
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert traced["counts"] == plain["counts"]
    layers = values(traced)
    assert layers["io.stats.io_total"] == plain["counts"]["io_total"]
    assert layers["io.stats.bytes_stored"] == plain["counts"]["bytes_stored"]
    assert layers["core.contraction.levels"] == plain["counts"]["levels"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_attributes_the_wall_to_layers(name, tmp_path):
    """Coverage: the measured operations' self time outside every layer is
    at most 10% of their traced wall time, on every workload."""
    record = run_small(name, True, tmp_path)
    assert_sound(record)
    layers = values(record)
    assert 0.0 <= layers["trace.unattributed_frac"] <= 0.10
    assert set(layers) == {metric for metric, _, _ in workloads.PER_LAYER}


def test_contraction_workload_contracts_and_semi_does_not(tmp_path):
    contract = values(run_small("webspam-contract", True, tmp_path))
    semi = values(run_small("webspam-semi", True, tmp_path))
    assert contract["core.contraction.levels"] >= 1
    assert contract["core.contraction.self_s"] > 0
    assert semi["core.contraction.levels"] == 0
    assert semi["core.contraction.self_s"] == 0
    assert semi["semi_external.edge_scans"] >= 1


def test_serve_workload_reports_end_to_end_metrics(tmp_path):
    record = run_small("serve-open", False, tmp_path)
    assert_sound(record)
    assert record["attempted"] > 0
    metrics = values(record)
    assert set(metrics) == {metric for metric, _, _ in workloads.END_TO_END}
    assert all(value > 0 for value in metrics.values())


def test_benchmark_json_matches_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
    ] == list(workloads.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(workloads.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
