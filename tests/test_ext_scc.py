"""End-to-end tests for the Ext-SCC driver (Algorithm 2)."""

import pytest

from tests.conftest import make_graph_files, random_edges, reference_sccs

from repro.core import ExtSCC, ExtSCCConfig, compute_sccs
from repro.exceptions import IOBudgetExceeded, ReproError
from repro.graph.generators import (
    complete_digraph,
    cycle_graph,
    path_graph,
    planted_scc_graph,
    random_dag,
    webspam_like,
)
from repro.io.blocks import BlockDevice
from repro.io.memory import MemoryBudget
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.semi_external import SEMI_SCC_SOLVERS


CONFIGS = {
    "baseline": ExtSCCConfig.baseline(),
    "optimized": ExtSCCConfig.optimized(),
}


@pytest.fixture(params=sorted(CONFIGS), ids=str)
def config(request):
    return CONFIGS[request.param]


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, config, seed):
        edges = random_edges(50, 130, seed, self_loops=True)
        out = compute_sccs(edges, num_nodes=50, memory_bytes=300,
                           block_size=64, config=config)
        assert out.result == reference_sccs(edges, 50)

    @pytest.mark.parametrize(
        "generator", [cycle_graph, path_graph],
        ids=["cycle", "path"],
    )
    def test_extreme_shapes(self, config, generator):
        g = generator(60)
        out = compute_sccs(g.edges, num_nodes=60, memory_bytes=256,
                           block_size=64, config=config)
        assert out.result == reference_sccs(g.edges, 60)

    def test_complete_graph(self, config):
        g = complete_digraph(10)
        out = compute_sccs(g.edges, num_nodes=10, memory_bytes=140,
                           block_size=64, config=config)
        assert out.result.num_sccs == 1

    def test_dag(self, config):
        g = random_dag(70, 180, seed=1)
        out = compute_sccs(g.edges, num_nodes=70, memory_bytes=300,
                           block_size=64, config=config)
        assert out.result.num_sccs == 70

    def test_planted_sccs_found(self, config):
        g = planted_scc_graph(90, 2.0, [15, 10, 8], seed=6, strict=True)
        out = compute_sccs(g.edges, num_nodes=90, memory_bytes=400,
                           block_size=64, config=config)
        for scc in g.planted_sccs:
            assert out.result.component_of(scc[0]) == scc

    def test_webspam_small(self, config):
        g = webspam_like(200, avg_degree=4.0, seed=5)
        out = compute_sccs(g.edges, num_nodes=200, memory_bytes=900,
                           block_size=128, config=config)
        assert out.result == reference_sccs(g.edges, g.num_nodes)

    def test_empty_edge_list(self, config):
        out = compute_sccs([], num_nodes=10, memory_bytes=256,
                           block_size=64, config=config)
        assert out.result.num_sccs == 10

    def test_nodes_derived_from_edges_when_unspecified(self, config):
        out = compute_sccs([(3, 9), (9, 3)], memory_bytes=256,
                           block_size=64, config=config)
        assert sorted(out.result.labels) == [3, 9]
        assert out.result.num_sccs == 1


class TestDriverBehaviour:
    def test_no_iterations_when_nodes_fit(self):
        out = compute_sccs([(0, 1), (1, 0)], num_nodes=2,
                           memory_bytes=4096, block_size=64)
        assert out.num_iterations == 0

    def test_iterations_when_memory_small(self):
        g = cycle_graph(60)
        out = compute_sccs(g.edges, num_nodes=60, memory_bytes=256,
                           block_size=64)
        assert out.num_iterations >= 1
        # 8 * |V_last| + B <= M at the stop point.
        last = out.iterations[-1]
        assert 8 * last.next_num_nodes + 64 <= 256

    def test_iteration_records_monotone_nodes(self):
        g = cycle_graph(60)
        out = compute_sccs(g.edges, num_nodes=60, memory_bytes=256,
                           block_size=64)
        for record in out.iterations:
            assert record.next_num_nodes < record.num_nodes
            assert record.nodes_removed > 0

    def test_phase_io_decomposition(self):
        g = cycle_graph(60)
        out = compute_sccs(g.edges, num_nodes=60, memory_bytes=256,
                           block_size=64)
        assert out.contraction_io.total > 0
        assert out.semi_io.total > 0
        assert out.expansion_io.total > 0
        assert out.io.total >= (
            out.contraction_io.total + out.semi_io.total + out.expansion_io.total
        )

    def test_per_level_phase_labels(self):
        g = cycle_graph(60)
        device = BlockDevice(block_size=64)
        memory = MemoryBudget(256)
        edges, nodes = make_graph_files(device, g.edges, 60, memory)
        out = ExtSCC(ExtSCCConfig.baseline()).run(device, edges, memory, nodes=nodes)
        assert out.num_iterations >= 1
        stats = device.stats
        for i in range(1, out.num_iterations + 1):
            assert f"contract-{i}" in stats.by_phase
            assert f"expand-{i}" in stats.by_phase
        # Nested labels: per-level I/O sums into the enclosing phase totals.
        contract_sum = sum(
            stats.by_phase[f"contract-{i}"].total
            for i in range(1, out.num_iterations + 1)
        )
        assert contract_sum == stats.by_phase["contraction"].total
        # Pass counts are attributed per level too.
        assert stats.passes_by_phase["contraction"] == sum(
            stats.passes_by_phase.get(f"contract-{i}", 0)
            for i in range(1, out.num_iterations + 1)
        )

    def test_pool_attached_and_counter_neutral(self):
        g = cycle_graph(60)

        def run_with(config):
            device = BlockDevice(block_size=64)
            memory = MemoryBudget(256)
            edges, nodes = make_graph_files(device, g.edges, 60, memory)
            out = ExtSCC(config).run(device, edges, memory, nodes=nodes)
            return device, out

        pooled_device, pooled = run_with(ExtSCCConfig.baseline())
        assert pooled_device.pool is not None
        assert pooled_device.pool.cache_blocks == 0
        plain_device, plain = run_with(
            ExtSCCConfig.baseline(pool_readahead=1)  # disables attachment
        )
        assert plain_device.pool is None
        assert pooled.result == plain.result
        assert pooled_device.stats.seq_reads == plain_device.stats.seq_reads
        assert pooled_device.stats.seq_writes == plain_device.stats.seq_writes
        assert pooled_device.stats.rand_reads == plain_device.stats.rand_reads
        assert pooled_device.stats.rand_writes == plain_device.stats.rand_writes

    def test_zero_random_io(self, config):
        edges = random_edges(50, 120, seed=2)
        out = compute_sccs(edges, num_nodes=50, memory_bytes=300,
                           block_size=64, config=config)
        assert out.io.random == 0

    def test_io_budget_enforced(self):
        g = cycle_graph(100)
        with pytest.raises(IOBudgetExceeded):
            compute_sccs(g.edges, num_nodes=100, memory_bytes=300,
                         block_size=64, io_budget=50)

    def test_max_iterations_guard(self):
        g = cycle_graph(64)
        config = ExtSCCConfig(max_iterations=1)
        with pytest.raises(ReproError):
            compute_sccs(g.edges, num_nodes=64, memory_bytes=256,
                         block_size=64, config=config)

    def test_all_semi_solvers_supported(self):
        edges = random_edges(40, 90, seed=3)
        reference = reference_sccs(edges, 40)
        for solver in SEMI_SCC_SOLVERS:
            out = compute_sccs(edges, num_nodes=40, memory_bytes=400,
                               block_size=64,
                               config=ExtSCCConfig(semi_scc=solver))
            assert out.result == reference, solver

    def test_optimized_flag_dispatch(self):
        edges = random_edges(30, 60, seed=0)
        base = compute_sccs(edges, num_nodes=30, memory_bytes=200,
                            block_size=64, optimized=False)
        opt = compute_sccs(edges, num_nodes=30, memory_bytes=200,
                           block_size=64, optimized=True)
        assert base.config.name == "Ext-SCC"
        assert opt.config.name == "Ext-SCC-Op"
        assert base.result == opt.result

    def test_device_files_cleaned_up(self):
        """After a run, only the caller's input files remain on the device."""
        device = BlockDevice(block_size=64)
        memory = MemoryBudget(300)
        edges = random_edges(40, 90, seed=1)
        edge_file = EdgeFile.from_edges(device, "E", edges)
        node_file = NodeFile.from_ids(device, "V", range(40), memory, presorted=True)
        before_algorithm = {"E", "V"}
        ExtSCC(ExtSCCConfig.optimized()).run(device, edge_file, memory, nodes=node_file)
        assert set(device.list_files()) == before_algorithm

    def test_input_files_unmodified(self):
        device = BlockDevice(block_size=64)
        memory = MemoryBudget(300)
        edges = random_edges(40, 90, seed=1)
        edge_file = EdgeFile.from_edges(device, "E", edges)
        node_file = NodeFile.from_ids(device, "V", range(40), memory, presorted=True)
        ExtSCC().run(device, edge_file, memory, nodes=node_file)
        assert list(edge_file.scan()) == edges
        assert list(node_file.scan()) == list(range(40))


class TestMultiLevel:
    def test_many_contraction_levels(self):
        """Force a deep contraction stack and verify exact recovery."""
        g = cycle_graph(120)
        out = compute_sccs(g.edges, num_nodes=120, memory_bytes=200,
                           block_size=64, optimized=False)
        assert out.num_iterations >= 5
        assert out.result.num_sccs == 1
        assert out.result.largest_size == 120

    @pytest.mark.parametrize("seed", range(4))
    def test_deep_random(self, config, seed):
        edges = random_edges(80, 200, seed)
        out = compute_sccs(edges, num_nodes=80, memory_bytes=200,
                           block_size=64, config=config)
        assert out.result == reference_sccs(edges, 80)
        assert out.num_iterations >= 2
