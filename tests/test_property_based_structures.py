"""Property-based tests (round two): the external data structures against
in-memory oracles."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.brt import BufferedRepositoryTree
from repro.graph.edge_file import EdgeFile
from repro.io.blocks import BlockDevice
from repro.io.memory import MemoryBudget

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBRTProperties:
    ops_strategy = st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 30), st.integers(0, 99)),
            st.tuples(st.just("extract"), st.integers(0, 30), st.just(0)),
        ),
        max_size=120,
    )

    @SETTINGS
    @given(ops_strategy)
    def test_matches_dict_of_lists(self, ops):
        device = BlockDevice(block_size=64)
        brt = BufferedRepositoryTree(device, key_space=31, buffer_blocks=1)
        oracle = {}
        for op, key, value in ops:
            if op == "insert":
                brt.insert(key, value)
                oracle.setdefault(key, []).append(value)
            else:
                assert sorted(brt.extract_all(key)) == sorted(oracle.pop(key, []))
        for key in list(oracle):
            assert sorted(brt.extract_all(key)) == sorted(oracle.pop(key))


class TestDegreeSumProperty:
    edges_strategy = st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60
    )

    @SETTINGS
    @given(edges_strategy)
    def test_degree_sum_is_twice_edges(self, edges):
        from repro.analysis import degree_stats

        device = BlockDevice(block_size=64)
        memory = MemoryBudget(256)
        ef = EdgeFile.from_edges(device, "E", edges)
        stats = degree_stats(ef, memory)
        total_degree = sum(d * n for d, n in stats.histogram.items())
        assert total_degree == 2 * len(edges)
