"""Chaos matrix — fault type × pipeline phase on the Fig. 6 smoke point,
with the default retry policy.

Every cell injects exactly one scheduled fault into a full Ext-SCC-Op run
and gates on the fault-tolerance contract:

* **Transient faults** (``transient-read`` / ``transient-write``) are
  absorbed by the retry policy: the run's SCC labels are byte-identical
  to the fault-free run's, every algorithm phase charges exactly the I/Os
  of the fault-free run, and the ``retry`` label is the entire
  total-ledger delta.
* **Corrupt blocks** have no in-flight answer — the device keeps no
  redundancy.  The checkpointed run stops with ``CorruptBlockError`` (the
  CLI's exit 4); a damaged input is re-staged from its source, and
  resuming from the journal reproduces the fault-free labels.
* **Zero-cost-when-armed** — with the policy attached but no fault
  firing, the run charges 0 extra block I/Os and reproduces the unarmed
  ledger exactly.
"""

import json

import pytest
from conftest import RESULTS_DIR

from repro.bench import (
    BLOCK_SIZE,
    memory_for_ratio,
    shuffled_edges,
    subsample_edges,
    webspam_graph,
)
from repro.core import ExtSCC, ExtSCCConfig
from repro.exceptions import CheckpointError, CorruptBlockError
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.stats import FAULT_PHASES, IOSnapshot
from repro.recovery import CheckpointManager, FaultPolicy, FaultSchedule

MEMORY_RATIO = 0.47  # the paper's default memory point (Fig. 6)
SIZE_PERCENT = 20    # the smoke subsample every CI gate uses

FAULT_KINDS = ("transient-read", "transient-write", "corrupt")
PHASES = ("contract-1", "semi-scc", "expand-1")

POLICY = FaultPolicy(max_retries=6, seed=20240808)


def _workload():
    graph = webspam_graph()
    edges = subsample_edges(shuffled_edges(graph), SIZE_PERCENT)
    return edges, graph.num_nodes, memory_for_ratio(graph.num_nodes, MEMORY_RATIO)


def _load(device, edges, num_nodes, memory):
    edge_file = EdgeFile.from_edges(device, "edges", edges)
    node_file = NodeFile.from_ids(device, "nodes", range(num_nodes), memory,
                                  presorted=True)
    return edge_file, node_file


def _run(edges, num_nodes, memory_bytes, schedule=None, policy=None):
    device = BlockDevice(block_size=BLOCK_SIZE)
    if policy is not None:
        device.attach_policy(policy)
    if schedule is not None:
        schedule.attach(device)
    memory = MemoryBudget(memory_bytes)
    edge_file, node_file = _load(device, edges, num_nodes, memory)
    out = ExtSCC(ExtSCCConfig.optimized()).run(device, edge_file, memory,
                                               nodes=node_file)
    return out, device


def _corrupt_then_resume(edges, num_nodes, memory_bytes, schedule):
    """A checkpointed run that must stop on the corrupt block, then the
    journal resume as ``scc --resume`` does it: a resume that finds a
    damaged input re-stages it from the source lists and resumes again.
    Returns (resumed output, device, re-staged names)."""
    device = BlockDevice(block_size=BLOCK_SIZE)
    device.attach_policy(POLICY)
    schedule.attach(device)
    memory = MemoryBudget(memory_bytes)
    edge_file, node_file = _load(device, edges, num_nodes, memory)
    manager = CheckpointManager(device)
    solver = ExtSCC(ExtSCCConfig.optimized())
    with pytest.raises(CorruptBlockError):
        solver.run(device, edge_file, memory, nodes=node_file,
                   checkpoint=manager)

    def resume():
        return solver.run(
            device,
            EdgeFile(ExternalFile.open(device, "edges")),
            memory,
            nodes=NodeFile(ExternalFile.open(device, "nodes")),
            checkpoint=manager,
        )

    try:
        return resume(), device, []
    except CheckpointError:
        restaged = manager.damaged_inputs()
    for name in restaged:
        device.delete(name)
    if "edges" in restaged:
        EdgeFile.from_edges(device, "edges", edges)
    if "nodes" in restaged:
        NodeFile.from_ids(device, "nodes", range(num_nodes), memory,
                          presorted=True)
    return resume(), device, restaged


def _phase_ledgers_match(clean_dev, faulty_dev):
    empty = IOSnapshot()
    labels = set(clean_dev.stats.by_phase) | set(faulty_dev.stats.by_phase)
    for label in labels - set(FAULT_PHASES):
        if clean_dev.stats.by_phase.get(label, empty) != \
                faulty_dev.stats.by_phase.get(label, empty):
            return False, label
    return True, None


def _measure():
    edges, num_nodes, memory_bytes = _workload()
    rows = []
    plain_out, plain_dev = _run(edges, num_nodes, memory_bytes)
    armed_out, armed_dev = _run(edges, num_nodes, memory_bytes,
                                policy=POLICY)

    # Zero-cost-when-armed: the policy alone changes nothing.
    assert armed_out.result.labels == plain_out.result.labels
    assert armed_dev.stats.snapshot() == plain_dev.stats.snapshot(), (
        "policy-armed run charged extra I/Os"
    )
    assert armed_dev.stats.by_phase == plain_dev.stats.by_phase
    assert armed_dev.stats.fault_total() == 0
    rows.append({
        "fault": "(none)", "phase": "-", "fired": False, "outcome": "ok",
        "extra_io": 0, "retry_io": 0, "recovery_io": 0, "restaged": [],
        "health": armed_dev.stats.health.snapshot(),
    })

    for kind in FAULT_KINDS:
        for phase in PHASES:
            cell = f"{kind}@{phase}"
            if kind == "corrupt":
                schedule = FaultSchedule.single(kind, in_phase=phase)
                out, device, restaged = _corrupt_then_resume(
                    edges, num_nodes, memory_bytes, schedule
                )
                # Gate: the journal resume reproduces the fault-free labels.
                assert out.resumed, cell
                assert out.result.labels == plain_out.result.labels, cell
                outcome = "exit 4, resumed"
            else:
                schedule = FaultSchedule.single(kind, in_phase=phase,
                                                failures=2)
                out, device = _run(edges, num_nodes, memory_bytes,
                                   schedule=schedule, policy=POLICY)
                restaged = []
                # Gate 1: label identity.
                assert out.result.labels == plain_out.result.labels, cell
                # Gate 2: every algorithm phase charged identically; the
                # fault label is the entire delta.
                match, bad = _phase_ledgers_match(plain_dev, device)
                assert match, f"{cell}: phase {bad!r} ledger diverged"
                assert device.stats.total - plain_dev.stats.total == \
                    device.stats.fault_total(), cell
                outcome = "survived"
            assert schedule.fired, cell
            rows.append({
                "fault": kind, "phase": phase,
                "fired": bool(schedule.fired), "outcome": outcome,
                "extra_io": device.stats.total - plain_dev.stats.total,
                "retry_io": device.stats.phase_total("retry"),
                "recovery_io": device.stats.phase_total("recovery"),
                "restaged": restaged,
                "health": device.stats.health.snapshot(),
            })
    return rows


def _render(rows):
    header = (
        f"{'fault':<17} {'phase':<11} {'fired':<6} {'outcome':<16} "
        f"{'extra':>6} {'retry':>6} {'recov':>6}  health"
    )
    lines = ["chaos matrix — single injected fault per full run", header,
             "-" * len(header)]
    for row in rows:
        h = row["health"]
        summary = f"retries={h['retries']} backoff={h['backoff_seconds']:.4f}s"
        if row["restaged"]:
            summary += f" restaged={','.join(row['restaged'])}"
        lines.append(
            f"{row['fault']:<17} {row['phase']:<11} "
            f"{str(row['fired']):<6} {row['outcome']:<16} "
            f"{row['extra_io']:>6} {row['retry_io']:>6} "
            f"{row['recovery_io']:>6}  {summary}"
        )
    return "\n".join(lines) + "\n"


def test_chaos_matrix(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    text = _render(rows)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "chaos_matrix.txt").write_text(text)
    (RESULTS_DIR / "chaos_matrix.json").write_text(json.dumps(rows, indent=1))

    # Representative shapes: transient faults show retry traffic and
    # corrupt cells all went through a journal resume.
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row["fault"], []).append(row)
    assert all(r["retry_io"] > 0 for r in by_kind["transient-read"])
    assert all(r["outcome"] == "exit 4, resumed" for r in by_kind["corrupt"])
