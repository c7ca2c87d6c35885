"""Tests for the registered semi-external SCC solvers."""

import pytest

from tests.conftest import make_graph_files, random_edges, reference_sccs

from repro.core.result import SCCResult
from repro.exceptions import InsufficientMemory
from repro.graph.edge_file import EdgeFile
from repro.graph.generators import (
    complete_digraph,
    cycle_graph,
    path_graph,
    planted_scc_graph,
)
from repro.io.memory import MemoryBudget
from repro.semi_external import (
    SEMI_SCC_SOLVERS,
    SpanningTreeStats,
    run_semi_scc_to_file,
    spanning_tree_scc,
)


@pytest.fixture(params=sorted(SEMI_SCC_SOLVERS), ids=str)
def solver(request):
    return SEMI_SCC_SOLVERS[request.param]


def run_solver(solver, device, edges, num_nodes):
    edge_file = EdgeFile.from_edges(device, device.temp_name("e"), edges)
    return SCCResult(solver(edge_file, range(num_nodes)))


class TestKnownGraphs:
    def test_cycle(self, solver, device):
        result = run_solver(solver, device, cycle_graph(20).edges, 20)
        assert result.num_sccs == 1
        assert result.largest_size == 20

    def test_path(self, solver, device):
        result = run_solver(solver, device, path_graph(20).edges, 20)
        assert result.num_sccs == 20

    def test_complete(self, solver, device):
        result = run_solver(solver, device, complete_digraph(8).edges, 8)
        assert result.num_sccs == 1

    def test_two_sccs(self, solver, device):
        edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
        result = run_solver(solver, device, edges, 4)
        assert result.strongly_connected(0, 1)
        assert result.strongly_connected(2, 3)
        assert not result.strongly_connected(0, 2)

    def test_isolated_nodes(self, solver, device):
        result = run_solver(solver, device, [(0, 1)], 5)
        assert result.num_sccs == 5

    def test_empty_graph(self, solver, device):
        result = run_solver(solver, device, [], 3)
        assert result.num_sccs == 3

    def test_self_loops_and_parallels(self, solver, device):
        edges = [(0, 0), (0, 1), (0, 1), (1, 0), (2, 2)]
        result = run_solver(solver, device, edges, 3)
        assert result.strongly_connected(0, 1)
        assert not result.strongly_connected(0, 2)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, solver, device, seed):
        edges = random_edges(45, 110, seed, self_loops=True)
        result = run_solver(solver, device, edges, 45)
        assert result == reference_sccs(edges, 45)

    def test_planted(self, solver, device):
        g = planted_scc_graph(80, 2.5, [15, 10, 5], seed=4, strict=True)
        result = run_solver(solver, device, g.edges, 80)
        assert result == reference_sccs(g.edges, 80)
        for scc in g.planted_sccs:
            assert result.component_of(scc[0]) == scc


class TestIOProfile:
    def test_only_sequential_io(self, solver, device):
        edges = random_edges(40, 100, seed=0)
        run_solver(solver, device, edges, 40)
        assert device.stats.random == 0

    def test_spanning_tree_pass_count(self, device):
        edges = cycle_graph(30).edges
        edge_file = EdgeFile.from_edges(device, "e", edges)
        stats = SpanningTreeStats()
        spanning_tree_scc(edge_file, range(30), stats=stats)
        assert stats.passes >= 2  # at least one working + one fixpoint pass
        assert stats.contractions >= 1


class TestMemoryContract:
    def test_requires_semi_external_budget(self, device):
        edges = cycle_graph(100).edges
        edge_file = EdgeFile.from_edges(device, "e", edges)
        tiny = MemoryBudget(100)  # < 8 * 100 + 64
        for name, solver in SEMI_SCC_SOLVERS.items():
            with pytest.raises(InsufficientMemory):
                solver(edge_file, range(100), memory=tiny)

    def test_accepts_sufficient_budget(self, device):
        edges = cycle_graph(10).edges
        edge_file = EdgeFile.from_edges(device, "e", edges)
        labels = spanning_tree_scc(edge_file, range(10), memory=MemoryBudget(8 * 10 + 64))
        assert len(set(labels.values())) == 1


class TestLabelFile:
    def test_run_to_file_sorted_by_node(self, device, memory):
        edges = [(0, 1), (1, 0), (2, 3)]
        edge_file = EdgeFile.from_edges(device, "e", edges)
        out = run_semi_scc_to_file(spanning_tree_scc, edge_file, range(4), memory)
        records = list(out.scan())
        assert [r[0] for r in records] == [0, 1, 2, 3]
        assert records[0][1] == records[1][1]
        assert records[2][1] != records[3][1]
