"""Tests for the plan layer: operators, planner rewrites, executor, trace.

The load-bearing invariants:

* a contract/expand/semi plan's per-operator predictions sum to *exactly*
  the matching :class:`CostModel` phase formula (the plans mirror the
  model term for term);
* executing a plan produces the same ledger as the code it wraps (covered
  exhaustively by the pipeline equivalence tests; spot-checked here);
* the executor fires checkpoint hooks at ``Materialize`` stages and emits
  one span per stage.
"""

import json

import pytest

from tests.conftest import make_graph_files, random_edges, reference_sccs

from repro.analysis.cost_model import CostModel
from repro.analysis.planner import optimize_plan, predict_plan
from repro.core.config import ExtSCCConfig
from repro.core.contraction import build_contract_plan, contract
from repro.core.ext_scc import compute_sccs
from repro.core.expansion import build_expand_plan
from repro.io.blocks import BlockDevice
from repro.io.memory import MemoryBudget
from repro.plan import (
    ExtPlan,
    Materialize,
    PlanExecutor,
    Rewrite,
    Scan,
    Span,
    TraceLedger,
)
from repro.semi_external import (
    SEMI_SCC_PRICED_PASSES,
    build_semi_plan,
    run_semi_scc_to_file,
    spanning_tree_scc,
)


def run_pipeline(memory_bytes=2600, block_size=256, config=None,
                 num_nodes=400, num_edges=3000, seed=7):
    edges = random_edges(num_nodes, num_edges, seed, self_loops=True)
    return compute_sccs(
        edges, num_nodes=num_nodes, memory_bytes=memory_bytes,
        block_size=block_size, config=config,
    )


class TestPlanStructure:
    def test_add_assigns_ids_and_stage_covers_ops(self):
        plan = ExtPlan("p")
        a = plan.add(Scan("a", records=10, record_size=8))
        b = plan.add(Materialize("b", inputs=("a",), records=10, record_size=8))
        stage = plan.stage("s", [a, b], lambda ctx: 42)
        assert (a.id, b.id) == (0, 1)
        assert plan.stage_ops(stage) == [a, b]
        assert plan.op_by_label("b") is b
        with pytest.raises(KeyError):
            plan.op_by_label("missing")

    def test_checkpoint_roles_skip_elided(self):
        plan = ExtPlan("p")
        m1 = plan.add(Materialize("m1", checkpoint="contract"))
        plan.add(Materialize("m2"))
        assert plan.checkpoint_roles() == ["contract"]
        m1.elided = True
        assert plan.checkpoint_roles() == []

    def test_render_is_deterministic_and_label_only(self, device, memory):
        edges = random_edges(40, 120, 3)
        edge_file, node_file = make_graph_files(device, edges, 40, memory)
        config = ExtSCCConfig.optimized()
        model = CostModel(device.block_size, memory.nbytes)
        renders = []
        for _ in range(2):
            plan = build_contract_plan(
                device, edge_file, node_file, memory, config, level=1
            )
            optimize_plan(plan, model, config)
            renders.append(plan.render())
        assert renders[0] == renders[1]
        assert "tmp" not in renders[0]  # no temp-file names leak in
        assert "rewrites:" in renders[0]
        assert "ckpt:contract" in renders[0]


class TestPredictionPins:
    """Optimized plan totals equal the cost model's phase formulas."""

    def test_contract_plan_matches_contraction_iteration(self):
        config = ExtSCCConfig.optimized()
        out = run_pipeline(config=config)
        assert out.num_iterations >= 2
        model = CostModel(256, 2600)
        contract_plans = [p for p in out.plans if p.name.startswith("contract-")]
        assert len(contract_plans) == out.num_iterations
        for plan, record in zip(contract_plans, out.iterations):
            # Plans are trued up post-run, so re-predicting prices the
            # measured sizes — exactly what contraction_iteration sees.
            assert predict_plan(plan, model) == model.contraction_iteration(
                record, config.product_operator
            )

    def test_expand_plan_matches_expansion_iteration(self):
        config = ExtSCCConfig.optimized()
        out = run_pipeline(config=config)
        model = CostModel(256, 2600)
        expand_plans = {
            p.name: p for p in out.plans if p.name.startswith("expand-")
        }
        for record in out.iterations:
            plan = expand_plans[f"expand-{record.level}"]
            assert predict_plan(plan, model) == model.expansion_iteration(record)

    def test_semi_plan_matches_semi_scc(self):
        out = run_pipeline(config=ExtSCCConfig.optimized())
        model = CostModel(256, 2600)
        semi = next(p for p in out.plans if p.name == "semi-scc")
        final_edges = out.iterations[-1].next_num_edges
        assert predict_plan(semi, model) == model.semi_scc(
            final_edges, SEMI_SCC_PRICED_PASSES
        )

    def test_baseline_config_pins_hold_too(self):
        config = ExtSCCConfig.baseline()
        out = run_pipeline(config=config)
        model = CostModel(256, 2600)
        for plan, record in zip(
            (p for p in out.plans if p.name.startswith("contract-")),
            out.iterations,
        ):
            assert predict_plan(plan, model) == model.contraction_iteration(
                record, config.product_operator
            )


class TestOptimizePlan:
    def _contract_plan(self, device, memory, config):
        edges = random_edges(60, 400, 5)
        edge_file, node_file = make_graph_files(device, edges, 60, memory)
        return build_contract_plan(
            device, edge_file, node_file, memory, config, level=1
        )

    def test_fusion_elides_fusable_materializes(self, device, memory):
        config = ExtSCCConfig.optimized()
        model = CostModel(device.block_size, memory.nbytes)
        plan = self._contract_plan(device, memory, config)
        unoptimized = predict_plan(plan, model)
        fresh = self._contract_plan(device, memory, config)
        optimize_plan(fresh, model, config)
        assert fresh.op_by_label("E_d by dst").elided
        assert fresh.op_by_label("E_pre by dst").elided
        assert fresh.op_by_label("E_d runs").fused
        assert fresh.total_predicted < unoptimized
        assert any(r.startswith("fuse(") for r in fresh.rewrites)

    def test_codec_rewrite_tags_writers(self, device, memory):
        config = ExtSCCConfig.optimized(codec="fixed")
        model = CostModel(device.block_size, memory.nbytes)
        plan = self._contract_plan(device, memory, config)
        optimize_plan(plan, model, config)
        writers = [op for op in plan.ops if op.writes and not op.elided]
        assert writers and all(op.codec == "fixed" for op in writers)
        free = [op for op in plan.ops if op.cost[0] == "free"]
        assert all(op.codec is None for op in free)
        assert "codec=fixed" in plan.rewrites


class TestExecutor:
    def test_stage_order_ctx_and_result(self):
        device = BlockDevice(block_size=64)
        plan = ExtPlan("p")
        a = plan.add(Rewrite("a"))
        b = plan.add(Rewrite("b", inputs=("a",)))
        order = []
        plan.stage("first", [a], lambda ctx: order.append("first") or 10)
        plan.stage("second", [b], lambda ctx: ctx["first"] + 1)
        result = PlanExecutor(device).execute(plan)
        assert order == ["first"]
        assert result == 11

    def test_thunkless_stage_refuses(self):
        device = BlockDevice(block_size=64)
        plan = ExtPlan("p")
        plan.stage("declarative", [plan.add(Rewrite("x"))])
        with pytest.raises(ValueError, match="no\\s+thunk"):
            PlanExecutor(device).execute(plan)

    def test_commit_hooks_fire_at_materialize_roles(self):
        device = BlockDevice(block_size=64)
        plan = ExtPlan("p")
        m = plan.add(Materialize("out", checkpoint="contract"))
        skipped = plan.add(Materialize("gone", checkpoint="expand"))
        skipped.elided = True
        plan.stage("s", [m, skipped], lambda ctx: "payload")
        fired = []
        PlanExecutor(device).execute(
            plan, commit_hooks={
                "contract": lambda res: fired.append(("contract", res)),
                "expand": lambda res: fired.append(("expand", res)),
            },
        )
        assert fired == [("contract", "payload")]

    def test_spans_measure_io_and_predictions(self, device, memory):
        edges = random_edges(50, 200, 9)
        edge_file, node_file = make_graph_files(device, edges, 50, memory)
        config = ExtSCCConfig.optimized()
        model = CostModel(device.block_size, memory.nbytes)
        plan = build_contract_plan(
            device, edge_file, node_file, memory, config, level=1
        )
        optimize_plan(plan, model, config)
        trace = TraceLedger()
        before = device.stats.snapshot()
        PlanExecutor(device, trace=trace).execute(plan)
        delta = device.stats.snapshot() - before
        assert [s.stage for s in trace.spans] == [
            "sort-edges", "get-v", "get-e", "removed-set"
        ]
        assert trace.total_measured == delta.total
        assert all(s.random_ios == 0 for s in trace.spans)
        assert trace.spans[0].predicted_ios is not None
        assert "sort-runs:E_out runs" in trace.spans[0].operators

    def test_unoptimized_plan_spans_have_no_prediction(self, device, memory):
        edges = random_edges(30, 90, 2)
        edge_file, node_file = make_graph_files(device, edges, 30, memory)
        plan = build_contract_plan(
            device, edge_file, node_file, memory, ExtSCCConfig.optimized(),
            level=1,
        )
        trace = TraceLedger()
        PlanExecutor(device, trace=trace).execute(plan)
        assert all(s.predicted_ios is None for s in trace.spans)


class TestTraceLedger:
    def test_pipeline_trace_covers_whole_run(self):
        out = run_pipeline(config=ExtSCCConfig.optimized())
        # Every block of the run is charged to exactly one span, except the
        # input loading and the final label scan, which happen outside any
        # plan.
        assert 0 < out.trace.total_measured <= out.io.total
        phases = out.trace.by_phase()
        assert set(phases) == {"contraction", "semi-scc", "expansion"}
        assert sum(p["measured"] for p in phases.values()) == out.trace.total_measured
        rendered = out.trace.render()
        assert "TOTAL" in rendered and "contract-1" in rendered

    def test_window_keeps_recent_spans_and_running_totals(self):
        def span(i, phase):
            return Span(plan="service", stage=f"s#{i}", phase=phase,
                        operators=(), predicted_ios=i, reads=i, writes=1,
                        random_ios=0, records=0, bytes_stored=0,
                        wall_seconds=0.5)

        full, windowed = TraceLedger(), TraceLedger(window=3)
        for i in range(10):
            for ledger in (full, windowed):
                ledger.record(span(i, "query/a" if i % 2 else "query/b"))
        assert [s.stage for s in windowed.spans] == ["s#7", "s#8", "s#9"]
        assert windowed.recorded == full.recorded == len(full.spans) == 10
        assert windowed.by_phase() == full.by_phase()
        assert windowed.total_measured == full.total_measured == 55
        assert windowed.total_predicted == full.total_predicted == 45

    def test_json_round_trip(self):
        out = run_pipeline(config=ExtSCCConfig.optimized())
        payload = json.loads(out.trace.to_json())
        assert payload["total_measured"] == out.trace.total_measured
        assert len(payload["spans"]) == len(out.trace.spans)
        span = payload["spans"][0]
        assert span["plan"] == "contract-1"
        assert span["reads"] + span["writes"] == out.trace.spans[0].measured_ios


class TestWrapperEquivalence:
    """contract()/expand_level() wrappers reproduce the plain pipeline."""

    def test_contract_then_expand_round_trip(self, device, memory):
        edges = random_edges(35, 85, 4, self_loops=True)
        config = ExtSCCConfig.optimized()
        edge_file, node_file = make_graph_files(device, edges, 35, memory)
        level = contract(device, edge_file, node_file, memory, config, level=1)
        scc_next = run_semi_scc_to_file(
            spanning_tree_scc, level.next_edges, level.next_nodes.scan(), memory
        )
        plan = build_expand_plan(device, level, scc_next, memory, config)
        scc_file = PlanExecutor(device).execute(plan)
        from repro.core.result import SCCResult

        assert SCCResult.from_pairs(scc_file.scan()) == reference_sccs(edges, 35)

    def test_semi_plan_executes_solver(self, device, memory):
        edges = random_edges(20, 60, 1)
        edge_file, node_file = make_graph_files(device, edges, 20, memory)
        plan = build_semi_plan(
            device, edge_file, node_file, memory, "spanning-tree"
        )
        scc_file = PlanExecutor(device).execute(plan)
        from repro.core.result import SCCResult

        assert SCCResult.from_pairs(scc_file.scan()) == reference_sccs(edges, 20)
