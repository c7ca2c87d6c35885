"""Tests for the in-memory reference SCC algorithms and the condensation."""

import pytest

from tests.conftest import random_edges

from repro.graph.digraph import DiGraph
from repro.graph.generators import cycle_graph, path_graph, random_dag
from repro.memory_scc import (
    condensation,
    dfs_postorder,
    dfs_preorder,
    is_dag,
    kosaraju_scc,
    reachable_from,
    tarjan_scc,
    topological_order,
)

ALGORITHMS = [tarjan_scc, kosaraju_scc]


@pytest.fixture(params=ALGORITHMS, ids=lambda f: f.__name__)
def scc_algorithm(request):
    return request.param


class TestKnownGraphs:
    def test_single_cycle(self, scc_algorithm):
        g = DiGraph(cycle_graph(10).edges)
        labels = scc_algorithm(g)
        assert set(labels.values()) == {0}

    def test_path_all_singletons(self, scc_algorithm):
        g = DiGraph(path_graph(10).edges)
        labels = scc_algorithm(g)
        assert labels == {i: i for i in range(10)}

    def test_two_cycles_with_bridge(self, scc_algorithm):
        edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
        labels = scc_algorithm(DiGraph(edges))
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_self_loop_is_singleton(self, scc_algorithm):
        labels = scc_algorithm(DiGraph([(0, 0), (0, 1)]))
        assert labels[0] != labels[1]

    def test_isolated_node(self, scc_algorithm):
        g = DiGraph([(0, 1)], nodes=[7])
        labels = scc_algorithm(g)
        assert labels[7] == 7

    def test_empty_graph(self, scc_algorithm):
        assert scc_algorithm(DiGraph()) == {}

    def test_canonical_labels_are_min_members(self, scc_algorithm):
        edges = [(5, 3), (3, 5), (3, 1)]
        labels = scc_algorithm(DiGraph(edges))
        assert labels[5] == 3
        assert labels[3] == 3
        assert labels[1] == 1


class TestAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_three_algorithms_agree(self, seed):
        edges = random_edges(50, 120, seed)
        g = DiGraph(edges, nodes=range(50))
        t = tarjan_scc(g)
        assert kosaraju_scc(g) == t
        # Brute force: u and v share an SCC iff each reaches the other.
        reach = {v: reachable_from(g, v) for v in g.nodes()}
        assert t == {
            v: min(u for u in reach[v] if v in reach[u]) for v in g.nodes()
        }

    def test_deep_path_no_recursion_error(self, scc_algorithm):
        """Iterative implementations must survive 50k-deep graphs."""
        g = DiGraph(path_graph(50_000).edges)
        labels = scc_algorithm(g)
        assert len(set(labels.values())) == 50_000


class TestCondensation:
    def test_condensation_is_dag(self):
        edges = random_edges(40, 120, seed=3)
        g = DiGraph(edges, nodes=range(40))
        labels = tarjan_scc(g)
        dag = condensation(g, labels)
        assert is_dag(dag)

    def test_condensation_nodes_are_representatives(self):
        edges = [(0, 1), (1, 0), (1, 2)]
        g = DiGraph(edges)
        dag = condensation(g, tarjan_scc(g))
        assert set(dag.nodes()) == {0, 2}
        assert dag.has_edge(0, 2)

    def test_no_self_loops_in_condensation(self):
        edges = [(0, 1), (1, 0)]
        g = DiGraph(edges)
        dag = condensation(g, tarjan_scc(g))
        assert dag.num_edges == 0


class TestTopologicalOrder:
    def test_respects_edges(self):
        dag = DiGraph(random_dag(30, 60, seed=2).edges, nodes=range(30))
        order = topological_order(dag)
        position = {v: i for i, v in enumerate(order)}
        for u, v in dag.edges():
            assert position[u] < position[v]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            topological_order(DiGraph([(0, 1), (1, 0)]))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            topological_order(DiGraph([(0, 0)]))

    def test_is_dag(self):
        assert is_dag(DiGraph([(0, 1), (1, 2)]))
        assert not is_dag(DiGraph([(0, 1), (1, 0)]))


class TestDFS:
    def test_postorder_parent_after_child(self):
        g = DiGraph([(0, 1), (1, 2)])
        order = dfs_postorder(g)
        assert order.index(0) > order.index(1) > order.index(2)

    def test_postorder_covers_all_nodes(self):
        edges = random_edges(30, 60, seed=1)
        g = DiGraph(edges, nodes=range(30))
        assert sorted(dfs_postorder(g)) == list(range(30))

    def test_preorder_root_first(self):
        g = DiGraph([(0, 1), (1, 2)])
        assert dfs_preorder(g, 0)[0] == 0

    def test_reachable_from(self):
        g = DiGraph([(0, 1), (1, 2), (3, 0)])
        assert reachable_from(g, 0) == {0, 1, 2}
        assert reachable_from(g, 3) == {0, 1, 2, 3}
