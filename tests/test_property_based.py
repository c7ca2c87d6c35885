"""Property-based tests (hypothesis) on the core invariants.

Strategy: small random directed multigraphs (with self-loops and parallel
edges) drive every solver and every pipeline stage; the in-memory Tarjan is
the oracle.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import reference_sccs

from repro.core import ExtSCCConfig, compute_sccs
from repro.core.contraction import contract
from repro.core.result import SCCResult
from repro.core.vertex_cover import external_vertex_cover
from repro.graph.digraph import DiGraph
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.memory import MemoryBudget
from repro.io.sort import external_sort_records
from repro.memory_scc import kosaraju_scc, tarjan_scc
from repro.semi_external import SEMI_SCC_SOLVERS

N_NODES = 14

edges_strategy = st.lists(
    st.tuples(st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1)),
    min_size=0,
    max_size=45,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fresh_files(edges):
    device = BlockDevice(block_size=64)
    memory = MemoryBudget(256)
    edge_file = EdgeFile.from_edges(device, "E", edges)
    node_file = NodeFile.from_ids(device, "V", range(N_NODES), memory, presorted=True)
    return device, memory, edge_file, node_file


class TestSolverAgreement:
    @SETTINGS
    @given(edges_strategy)
    def test_in_memory_solvers_agree(self, edges):
        g = DiGraph(edges, nodes=range(N_NODES))
        t = SCCResult(tarjan_scc(g))
        assert SCCResult(kosaraju_scc(g)) == t

    @SETTINGS
    @given(edges_strategy)
    def test_semi_external_solvers_agree_with_tarjan(self, edges):
        device, _, edge_file, _ = fresh_files(edges)
        reference = reference_sccs(edges, N_NODES)
        for name, solver in SEMI_SCC_SOLVERS.items():
            labels = solver(edge_file, range(N_NODES))
            assert SCCResult(labels) == reference, name

    @SETTINGS
    @given(edges_strategy, st.booleans())
    def test_ext_scc_agrees_with_tarjan(self, edges, optimized):
        out = compute_sccs(edges, num_nodes=N_NODES, memory_bytes=140,
                           block_size=64, optimized=optimized)
        assert out.result == reference_sccs(edges, N_NODES)

    @SETTINGS
    @given(edges_strategy)
    def test_ext_scc_validating_mode(self, edges):
        """Lemma 6.2's uniqueness assertion must never fire."""
        config = ExtSCCConfig(validate=True)
        out = compute_sccs(edges, num_nodes=N_NODES, memory_bytes=140,
                           block_size=64, config=config)
        assert out.result == reference_sccs(edges, N_NODES)


class TestContractionInvariants:
    @SETTINGS
    @given(edges_strategy, st.booleans())
    def test_lemmas_5_1_and_5_2(self, edges, optimized):
        device, memory, edge_file, node_file = fresh_files(edges)
        config = ExtSCCConfig.optimized() if optimized else ExtSCCConfig.baseline()
        level = contract(device, edge_file, node_file, memory, config, level=1)
        kept = set(level.next_nodes.scan())
        # Contractible.
        assert len(kept) < N_NODES
        # Recoverable (modulo Type-1 dead-end trimming in optimized mode).
        graph = DiGraph(edges, nodes=range(N_NODES))
        for u, v in edges:
            if u == v or u in kept or v in kept:
                continue
            assert config.trim_type1
            assert (
                graph.in_degree(u) == 0 or graph.out_degree(u) == 0
                or graph.in_degree(v) == 0 or graph.out_degree(v) == 0
            )

    @SETTINGS
    @given(edges_strategy, st.booleans())
    def test_lemma_5_3_scc_preservable(self, edges, optimized):
        device, memory, edge_file, node_file = fresh_files(edges)
        config = ExtSCCConfig.optimized() if optimized else ExtSCCConfig.baseline()
        level = contract(device, edge_file, node_file, memory, config, level=1)
        kept = sorted(level.next_nodes.scan())
        before = reference_sccs(edges, N_NODES)
        after = reference_sccs(list(level.next_edges.scan()), N_NODES)
        for i, u in enumerate(kept):
            for v in kept[i + 1:]:
                assert before.strongly_connected(u, v) == after.strongly_connected(u, v)

    @SETTINGS
    @given(edges_strategy)
    def test_theorem_5_3_degree_bound(self, edges):
        # The theorem is stated for simple graphs: self-loops inflate
        # deg(v) without ever forcing v into the cover, so measure the
        # degree over non-self-loop edges.
        simple = [(u, v) for u, v in edges if u != v]
        device, memory, edge_file, node_file = fresh_files(edges)
        level = contract(device, edge_file, node_file, memory,
                         ExtSCCConfig.baseline(), level=1)
        graph = DiGraph(simple, nodes=range(N_NODES))
        bound = math.sqrt(2 * max(1, len(simple)))
        for v in level.removed.scan():
            if graph.has_node(v):
                assert graph.degree(v) <= bound


class TestVertexCoverProperties:
    @SETTINGS
    @given(edges_strategy, st.booleans(), st.booleans())
    def test_cover_property(self, edges, product_operator, type2):
        device, memory, edge_file, _ = fresh_files(edges)
        cover = set(
            external_vertex_cover(
                edge_file, memory,
                product_operator=product_operator, type2_reduction=type2,
            ).scan()
        )
        for u, v in edges:
            if u != v:
                assert u in cover or v in cover


class TestSortProperties:
    records_strategy = st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 500)), max_size=200
    )

    @SETTINGS
    @given(records_strategy)
    def test_external_sort_matches_sorted(self, records):
        device = BlockDevice(block_size=64)
        out = external_sort_records(device, iter(records), 8, MemoryBudget(200))
        assert list(out.scan()) == sorted(records)

    @SETTINGS
    @given(records_strategy)
    def test_external_sort_unique_matches_set(self, records):
        device = BlockDevice(block_size=64)
        out = external_sort_records(
            device, iter(records), 8, MemoryBudget(200), unique=True
        )
        assert list(out.scan()) == sorted(set(records))

    @SETTINGS
    @given(records_strategy)
    def test_sort_only_sequential_io(self, records):
        device = BlockDevice(block_size=64)
        external_sort_records(device, iter(records), 8, MemoryBudget(200))
        assert device.stats.random == 0
