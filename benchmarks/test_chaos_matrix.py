"""Chaos matrix — fault type × pipeline phase on the Fig. 6 smoke point,
with parity striping (K=2) and the default retry policy.

Every cell injects exactly one scheduled fault into a full Ext-SCC-Op run
and gates on the fault-tolerance contract:

* **Label identity** — the faulted run's SCC labels are byte-identical to
  the fault-free run's.
* **Ledger isolation** — every algorithm phase charges exactly the I/Os
  of the fault-free run; the ``retry`` / ``repair`` fault labels are the
  entire total-ledger delta.
* **Zero-cost-when-armed** — with the policy attached and parity on but
  no fault firing, the run charges 0 extra block I/Os and reproduces the
  unarmed ledger exactly.
"""

from dataclasses import replace

from conftest import RESULTS_DIR

from repro.bench import (
    BLOCK_SIZE,
    memory_for_ratio,
    shuffled_edges,
    subsample_edges,
    webspam_graph,
)
from repro.core import ExtSCC, ExtSCCConfig
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.memory import MemoryBudget
from repro.io.parallel import StripedDevice
from repro.io.stats import FAULT_PHASES, IOSnapshot
from repro.recovery import FaultPolicy, FaultSchedule

MEMORY_RATIO = 0.47  # the paper's default memory point (Fig. 6)
SIZE_PERCENT = 20    # the smoke subsample every CI gate uses
CHANNELS = 2

FAULT_KINDS = (
    "transient-read",
    "transient-write",
    "corrupt",
    "channel-outage",
    "worker-die",
)
PHASES = ("contract-1", "semi-scc", "expand-1")

POLICY = FaultPolicy(max_retries=6, seed=20240808)


def _workload():
    graph = webspam_graph()
    edges = subsample_edges(shuffled_edges(graph), SIZE_PERCENT)
    return edges, graph.num_nodes, memory_for_ratio(graph.num_nodes, MEMORY_RATIO)


def _run(edges, num_nodes, memory_bytes, schedule=None, policy=None):
    device = StripedDevice(block_size=BLOCK_SIZE, channels=CHANNELS, parity=True)
    if policy is not None:
        device.attach_policy(policy)
    if schedule is not None:
        schedule.attach(device)
    memory = MemoryBudget(memory_bytes)
    edge_file = EdgeFile.from_edges(device, "edges", edges)
    node_file = NodeFile.from_ids(device, "nodes", range(num_nodes), memory,
                                  presorted=True)
    config = replace(ExtSCCConfig.optimized(), workers=CHANNELS)
    out = ExtSCC(config).run(device, edge_file, memory, nodes=node_file)
    return out, device


def _schedule(kind, phase):
    if kind == "worker-die":
        return FaultSchedule.single(kind, in_phase=phase)
    if kind in ("transient-read", "transient-write"):
        return FaultSchedule.single(kind, in_phase=phase, failures=2)
    return FaultSchedule.single(kind, in_phase=phase)


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
        "fault": "(none)", "phase": "-",
        "fired": False, "extra_io": 0, "retry_io": 0, "repair_io": 0,
        "health": armed_dev.stats.health.snapshot(),
    })

    for kind in FAULT_KINDS:
        for phase in PHASES:
            schedule = _schedule(kind, phase)
            out, device = _run(edges, num_nodes, memory_bytes,
                               schedule=schedule, policy=POLICY)
            cell = f"{kind}@{phase}"

            # Gate 1: label identity.
            assert out.result.labels == plain_out.result.labels, cell

            # Gate 2: every algorithm phase charged identically; the
            # fault labels are the entire delta.
            match, bad = _phase_ledgers_match(plain_dev, device)
            assert match, f"{cell}: phase {bad!r} ledger diverged"
            extra = device.stats.total - plain_dev.stats.total
            assert extra == device.stats.fault_total(), cell
            if not schedule.fired:
                assert extra == 0, cell

            # Worker faults are ledger-neutral by design: the replay
            # charges exactly what the first dispatch would have.
            if kind == "worker-die" and schedule.fired:
                assert extra == 0, cell
                assert device.stats.health.redispatches >= 1, cell

            rows.append({
                "fault": kind, "phase": phase,
                "fired": bool(schedule.fired), "extra_io": extra,
                "retry_io": device.stats.phase_total("retry"),
                "repair_io": device.stats.phase_total("repair"),
                "health": device.stats.health.snapshot(),
            })

    fired = sum(1 for row in rows if row["fired"])
    # The matrix must actually exercise the machinery, not pass vacuously.
    assert fired >= len(PHASES) * 3, (
        f"only {fired} matrix cells fired a fault"
    )
    return rows


def _render(rows):
    header = (
        f"{'fault':<17} {'phase':<11} {'fired':<6} "
        f"{'extra':>6} {'retry':>6} {'repair':>7}  health"
    )
    lines = ["chaos matrix — single injected fault per full run", header,
             "-" * len(header)]
    for row in rows:
        h = row["health"]
        summary = (
            f"retries={h['retries']} repairs={h['repairs']} "
            f"redisp={h['redispatches']} backoff={h['backoff_seconds']:.4f}s"
        )
        lines.append(
            f"{row['fault']:<17} {row['phase']:<11} "
            f"{str(row['fired']):<6} {row['extra_io']:>6} {row['retry_io']:>6} "
            f"{row['repair_io']:>7}  {summary}"
        )
    return "\n".join(lines) + "\n"


def test_chaos_matrix(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    text = _render(rows)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "chaos_matrix.txt").write_text(text)

    import json

    (RESULTS_DIR / "chaos_matrix.json").write_text(json.dumps(rows, indent=1))

    # Representative shapes: transient faults show retry traffic,
    # corruption shows repair traffic, worker faults stay ledger-neutral.
    by_kind = {}
    for row in rows:
        if row["fired"]:
            by_kind.setdefault(row["fault"], []).append(row)
    assert any(r["retry_io"] > 0 for r in by_kind.get("transient-read", []))
    assert any(r["repair_io"] > 0 for r in by_kind.get("corrupt", []))
    assert all(r["extra_io"] == 0 for r in by_kind.get("worker-die", []))
