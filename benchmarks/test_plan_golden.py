"""Plan-layer CI gates: the stage golden and the trace envelope.

Two properties of the plan layer are cheap to check at benchmark scale
and catastrophic to lose silently:

* **Stage stability** — the priced stage list ``--explain`` prints for
  the Fig. 6 smoke point is deterministic (stable labels, no runtime
  identifiers), so its rendering is committed as
  ``results/fig6_smoke.plan.txt`` and exact-matched here.  Any change
  that alters the stages — a new or reordered stage, a moved checkpoint
  role, a changed prediction — must come with a reviewed regeneration of
  the golden file, never as silent drift.
* **Trace envelope** — after a run, the byte-calibrated cost model must
  re-price the *executed* plans (their size estimates trued up to the
  measured ``|V_i|``/``|E_i|``) to within 15% of the trace ledger's
  measured total, and each top-level phase to within 20% — or, for a
  phase, within 15% of the *run's* measured total in absolute blocks.
  The absolute guard is empirical: at smoke scale the semi-external
  hand-off is tens of blocks (its label-file write, which Theorem 6.1
  does not price, dominates the relative error) and the expansion
  augments benefit from replacement selection forming far fewer runs
  than the closed form's ``m/2M`` (the same data dependence
  ``test_cost_model`` documents).  Both drifts are bounded in absolute
  terms; a prediction bug localized to one phase that actually matters —
  more than 15% of the run mispriced — still fails, even when it hides
  inside an accurate total.
"""

from conftest import RESULTS_DIR

from repro.analysis import CostModel
from repro.bench import (
    BLOCK_SIZE,
    memory_for_ratio,
    shuffled_edges,
    subsample_edges,
    webspam_graph,
)
from repro.core import ExtSCC, ExtSCCConfig
from repro.core.contraction import build_contract_plan
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io import BlockDevice, MemoryBudget

GOLDEN = RESULTS_DIR / "fig6_smoke.plan.txt"
CANDIDATE = RESULTS_DIR / "fig6_smoke.plan.candidate.txt"

MEMORY_RATIO = 0.47  # Fig. 6's default memory, as in test_fig6_webspam_size
SMOKE_PERCENT = 20   # the 20% point CI runs


def _smoke_workload():
    graph = webspam_graph()
    edges = subsample_edges(shuffled_edges(graph), SMOKE_PERCENT)
    memory_bytes = memory_for_ratio(graph.num_nodes, MEMORY_RATIO)
    return graph, edges, memory_bytes


def _render_smoke_plan() -> str:
    """Build and price the contract-1 plan exactly as ``--explain`` does:
    from the workload's sizes, without running."""
    graph, edges, memory_bytes = _smoke_workload()
    device = BlockDevice(block_size=BLOCK_SIZE)
    memory = MemoryBudget(memory_bytes)
    edge_file = EdgeFile.from_edges(device, "input-edges", edges)
    node_file = NodeFile.from_ids(
        device, "input-nodes", range(graph.num_nodes), memory, presorted=True
    )
    config = ExtSCCConfig.optimized()
    plan = build_contract_plan(
        device, edge_file, node_file, memory, config, level=1
    )
    plan.price(CostModel(BLOCK_SIZE, memory_bytes))
    return plan.render() + "\n"


def test_plan_golden_fig6_smoke(benchmark):
    rendered = benchmark.pedantic(_render_smoke_plan, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    if not GOLDEN.exists():
        GOLDEN.write_text(rendered)
        raise AssertionError(
            f"{GOLDEN} did not exist; wrote the current plan. Review it and "
            "commit it as the golden snapshot."
        )
    golden = GOLDEN.read_text()
    if rendered != golden:
        CANDIDATE.write_text(rendered)
        raise AssertionError(
            "priced stages drifted from the golden snapshot "
            f"({GOLDEN.name}). If the change is intentional, review "
            f"{CANDIDATE.name} and replace the golden file with it."
        )
    CANDIDATE.unlink(missing_ok=True)


def _run_and_reprice(config):
    """Run one variant on the smoke point, then re-price its executed
    plans with the byte-calibrated model (the test_cost_model pattern)."""
    graph, edges, memory_bytes = _smoke_workload()
    device = BlockDevice(block_size=BLOCK_SIZE)
    memory = MemoryBudget(memory_bytes)
    edge_file = EdgeFile.from_edges(device, "E", edges)
    node_file = NodeFile.from_ids(
        device, "V", range(graph.num_nodes), memory, presorted=True
    )
    out = ExtSCC(config).run(device, edge_file, memory, nodes=node_file)
    calibration = {
        width: stored / count
        for width, (count, stored) in device.stats.bytes_by_width.items()
        if count
    }
    model = CostModel(BLOCK_SIZE, memory_bytes, bytes_per_record=calibration)
    predicted_by_phase = {}
    for plan in out.plans:
        top = plan.phase.split("/", 1)[0]
        predicted_by_phase[top] = (
            predicted_by_phase.get(top, 0) + plan.price(model)
        )
    measured_by_phase = {
        top: bucket["measured"] for top, bucket in out.trace.by_phase().items()
    }
    return predicted_by_phase, measured_by_phase


def test_trace_envelope_fig6_smoke(benchmark):
    def run_both():
        return [
            (name, *_run_and_reprice(make()))
            for name, make in (
                ("Ext-SCC", ExtSCCConfig.baseline),
                ("Ext-SCC-Op", ExtSCCConfig.optimized),
            )
        ]

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    lines = ["Calibrated plan re-pricing vs trace ledger (Fig 6 smoke, 20%)"]
    for name, predicted, measured in rows:
        assert set(predicted) == set(measured), (name, predicted, measured)
        total_meas = sum(measured.values())
        for top in sorted(measured):
            diff = abs(measured[top] - predicted[top])
            error = diff / measured[top]
            lines.append(
                f"{name:>11} {top:>12}: predicted {predicted[top]:,}, "
                f"measured {measured[top]:,} ({error:.1%} off)"
            )
            assert error <= 0.20 or diff <= 0.15 * total_meas, (
                name, top, predicted[top], measured[top]
            )
        total_pred = sum(predicted.values())
        total_error = abs(total_meas - total_pred) / total_meas
        lines.append(
            f"{name:>11} {'(total)':>12}: predicted {total_pred:,}, "
            f"measured {total_meas:,} ({total_error:.1%} off)"
        )
        assert total_error <= 0.15, (name, total_pred, total_meas)
    text = "\n".join(lines) + "\n"
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "trace_envelope.txt").write_text(text)
