"""Tests for the plan layer: stages, pricing, executor, trace.

The load-bearing invariants:

* a contract/expand/semi plan's per-stage predictions sum to *exactly*
  the matching :class:`CostModel` phase formula;
* executing a plan produces the same ledger as the code it wraps (covered
  exhaustively by the pipeline equivalence tests; spot-checked here);
* the executor fires the checkpoint hook a stage declares and emits one
  span per stage;
* a tracer may swap ``stage.run`` in place around
  :meth:`PlanExecutor.execute` without changing the run.
"""

import json
from dataclasses import replace

import pytest

from tests.conftest import make_graph_files, random_edges, reference_sccs

from repro.analysis.cost_model import CostModel
from repro.core.config import ExtSCCConfig
from repro.core.contraction import build_contract_plan, contract
from repro.core.ext_scc import ExtSCC, compute_sccs
from repro.core.expansion import build_expand_plan
from repro.io.blocks import BlockDevice
from repro.io.memory import MemoryBudget
from repro.plan import ExtPlan, PlanExecutor, Span, TraceLedger
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
            plan.price(model)
            renders.append(plan.render())
        assert renders[0] == renders[1]
        assert "tmp" not in renders[0]  # no temp-file names leak in
        assert "ckpt:contract" in renders[0]
        assert [line.split()[0] for line in renders[0].splitlines()[2:6]] == [
            "sort-edges", "get-v", "get-e", "removed-set"
        ]

    def test_price_fills_every_stage(self, device, memory):
        edges = random_edges(40, 120, 3)
        edge_file, node_file = make_graph_files(device, edges, 40, memory)
        plan = build_contract_plan(
            device, edge_file, node_file, memory, ExtSCCConfig.optimized(),
            level=1,
        )
        assert all(s.predicted_ios is None for s in plan.stages)
        total = plan.price(CostModel(device.block_size, memory.nbytes))
        assert all(s.predicted_ios is not None for s in plan.stages)
        assert total == plan.total_predicted == sum(
            s.predicted_ios for s in plan.stages
        )
        assert plan.stages[-1].predicted_ios == 0  # the model prices nothing


def _assert_pins(config):
    """Re-priced at the measured sizes, each executed plan's stages sum to
    its cost-model phase formula."""
    out = run_pipeline(config=config)
    assert out.num_iterations >= 2
    model = CostModel(256, 2600)
    plans = {p.name: p for p in out.plans}
    assert len(plans) == 2 * out.num_iterations + 1
    for record in out.iterations:
        # Contract plans are trued up post-run, so re-pricing prices the
        # measured sizes — exactly what contraction_iteration sees.
        assert plans[f"contract-{record.level}"].price(model) == (
            model.contraction_iteration(record, config.product_operator)
        )
        assert plans[f"expand-{record.level}"].price(model) == (
            model.expansion_iteration(record)
        )
    assert plans["semi-scc"].price(model) == model.semi_scc(
        out.iterations[-1].next_num_edges, SEMI_SCC_PRICED_PASSES
    )


class TestPredictionPins:
    """Stage predictions sum to the cost model's phase formulas."""

    def test_contract_plan_matches_contraction_iteration(self):
        config = ExtSCCConfig.optimized()
        out = run_pipeline(config=config)
        assert out.num_iterations >= 2
        model = CostModel(256, 2600)
        contract_plans = [p for p in out.plans if p.name.startswith("contract-")]
        assert len(contract_plans) == out.num_iterations
        for plan, record in zip(contract_plans, out.iterations):
            assert plan.price(model) == model.contraction_iteration(
                record, config.product_operator
            )

    def test_expand_plan_matches_expansion_iteration(self):
        out = run_pipeline(config=ExtSCCConfig.optimized())
        model = CostModel(256, 2600)
        expand_plans = {
            p.name: p for p in out.plans if p.name.startswith("expand-")
        }
        for record in out.iterations:
            plan = expand_plans[f"expand-{record.level}"]
            assert plan.price(model) == model.expansion_iteration(record)

    def test_semi_plan_matches_semi_scc(self):
        out = run_pipeline(config=ExtSCCConfig.optimized())
        model = CostModel(256, 2600)
        semi = next(p for p in out.plans if p.name == "semi-scc")
        final_edges = out.iterations[-1].next_num_edges
        assert semi.price(model) == model.semi_scc(
            final_edges, SEMI_SCC_PRICED_PASSES
        )

    def test_baseline_config_pins_hold_too(self):
        _assert_pins(ExtSCCConfig.baseline())

    def test_product_operator_pins_hold(self):
        config = replace(ExtSCCConfig.baseline(), product_operator=True)
        _assert_pins(config)

    def test_fused_boundaries_priced_streamed_at_one_run(self):
        """A fused sort that fits in one run still writes and re-reads
        that run (2n), so it is priced with ``sort_streamed`` — never the
        materialized single-run price (n)."""
        model = CostModel(256, 1 << 20)
        assert model.expected_runs(100, 16) == 1
        assert model.sort_streamed(100, 16) == 2 * model.sort(100, 16)
        device = BlockDevice(block_size=256)
        memory = MemoryBudget(1 << 20)
        edges = random_edges(30, 100, 1)
        edge_file, node_file = make_graph_files(device, edges, 30, memory)
        config = ExtSCCConfig.optimized()
        plan = build_contract_plan(
            device, edge_file, node_file, memory, config, level=1
        )
        plan.price(model)
        stages = {s.label: s.predicted_ios for s in plan.stages}
        assert stages["sort-edges"] + stages["get-v"] == model.get_v(
            30, 100, config.product_operator
        )


class TestExecutor:
    def test_stage_order_ctx_and_result(self):
        device = BlockDevice(block_size=64)
        plan = ExtPlan("p")
        order = []
        plan.stage("first", lambda ctx: order.append("first") or 10)
        plan.stage("second", lambda ctx: ctx["first"] + 1)
        result = PlanExecutor(device).execute(plan)
        assert order == ["first"]
        assert result == 11

    def test_thunkless_stage_refuses(self):
        device = BlockDevice(block_size=64)
        plan = ExtPlan("p")
        plan.stage("priced-only", predict=lambda m: 0)
        with pytest.raises(ValueError, match="no\\s+thunk"):
            PlanExecutor(device).execute(plan)

    def test_commit_hooks_fire_at_stage_roles(self):
        device = BlockDevice(block_size=64)
        plan = ExtPlan("p")
        plan.stage("build", lambda ctx: "built")
        plan.stage("out", lambda ctx: "payload", checkpoint="contract")
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
        plan.price(model)
        trace = TraceLedger()
        before = device.stats.snapshot()
        PlanExecutor(device, trace=trace).execute(plan)
        delta = device.stats.snapshot() - before
        assert [s.stage for s in trace.spans] == [
            "sort-edges", "get-v", "get-e", "removed-set"
        ]
        assert trace.total_measured == delta.total
        assert all(s.random_ios == 0 for s in trace.spans)
        assert [s.predicted_ios for s in trace.spans] == [
            s.predicted_ios for s in plan.stages
        ]

    def test_unoptimized_plan_spans_have_no_prediction(self, device, memory):
        """A plan executed without being priced records no prediction."""
        edges = random_edges(30, 90, 2)
        edge_file, node_file = make_graph_files(device, edges, 30, memory)
        plan = build_contract_plan(
            device, edge_file, node_file, memory, ExtSCCConfig.optimized(),
            level=1,
        )
        trace = TraceLedger()
        PlanExecutor(device, trace=trace).execute(plan)
        assert all(s.predicted_ios is None for s in trace.spans)


def _ledger_and_labels(wrap=None):
    """One small Ext-SCC run, optionally with ``PlanExecutor.execute``
    wrapped the way an outside-in tracer wraps it."""
    edges = random_edges(400, 3000, 7, self_loops=True)
    device = BlockDevice(block_size=256)
    memory = MemoryBudget(2600)
    edge_file, node_file = make_graph_files(device, edges, 400, memory)
    original = PlanExecutor.execute
    if wrap is not None:
        PlanExecutor.execute = wrap(original)
    try:
        out = ExtSCC(ExtSCCConfig.optimized()).run(
            device, edge_file, memory, nodes=node_file
        )
    finally:
        PlanExecutor.execute = original
    return device.stats.snapshot(), out.result, out


class TestTracerContract:
    """The benchmark tracer wraps ``PlanExecutor.execute(executor, plan,
    ...)``, swaps each ``stage.run`` for a wrapper in place, and names
    layers by the plan-name prefix.  The run must not notice."""

    def test_swapped_stage_runs_are_called_and_restored(self):
        seen = []
        calls = []

        def wrap(execute):
            def traced(executor, plan, *args, **kwargs):
                seen.append(plan.name)
                saved = [(stage, stage.run) for stage in plan.stages]
                for stage, run in saved:
                    def wrapper(ctx, _run=run, _label=stage.label):
                        calls.append((plan.name, _label))
                        return _run(ctx)
                    stage.run = wrapper
                try:
                    return execute(executor, plan, *args, **kwargs)
                finally:
                    for stage, run in saved:
                        stage.run = run
                    assert all(s.run is r for s, r in saved)
            return traced

        plain_ledger, plain_labels, _ = _ledger_and_labels()
        ledger, labels, out = _ledger_and_labels(wrap)
        assert ledger == plain_ledger
        assert labels == plain_labels
        levels = out.num_iterations
        assert levels >= 2
        assert seen == (
            [f"contract-{i}" for i in range(1, levels + 1)]
            + ["semi-scc"]
            + [f"expand-{i}" for i in range(levels, 0, -1)]
        )
        assert calls == [
            (plan.name, stage.label)
            for plan in out.plans for stage in plan.stages
        ]


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
                        predicted_ios=i, reads=i, writes=1,
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
