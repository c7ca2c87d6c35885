"""Tests for the external vertex cover and the Type-2 bounded table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_edges

from repro.core.vertex_cover import BoundedCoverTable, external_vertex_cover
from repro.graph.edge_file import EdgeFile


def is_vertex_cover(cover, edges):
    return all(u in cover or v in cover for u, v in edges if u != v)


class TestExternalVertexCover:
    @pytest.mark.parametrize("seed", range(5))
    def test_result_is_a_cover(self, device, memory, seed):
        edges = random_edges(40, 90, seed)
        ef = EdgeFile.from_edges(device, "e", edges)
        cover = set(external_vertex_cover(ef, memory).scan())
        assert is_vertex_cover(cover, edges)

    def test_cover_is_proper_subset(self, device, memory):
        """Lemma 5.2: the smallest node never enters the cover."""
        edges = random_edges(30, 80, seed=1)
        nodes = {x for e in edges for x in e}
        ef = EdgeFile.from_edges(device, "e", edges)
        cover = set(external_vertex_cover(ef, memory).scan())
        assert cover < nodes

    def test_star_graph_picks_center(self, device, memory):
        edges = [(0, i) for i in range(1, 10)]
        ef = EdgeFile.from_edges(device, "e", edges)
        cover = list(external_vertex_cover(ef, memory).scan())
        assert cover == [0]

    def test_self_loops_ignored(self, device, memory):
        ef = EdgeFile.from_edges(device, "e", [(1, 1), (2, 2)])
        cover = list(external_vertex_cover(ef, memory).scan())
        assert cover == []

    def test_empty_graph(self, device, memory):
        ef = EdgeFile.from_edges(device, "e", [])
        assert list(external_vertex_cover(ef, memory).scan()) == []

    @pytest.mark.parametrize("product_operator", [False, True])
    @pytest.mark.parametrize("type2", [False, True])
    def test_variants_still_covers(self, device, memory, product_operator, type2):
        edges = random_edges(35, 100, seed=3)
        ef = EdgeFile.from_edges(device, "e", edges)
        cover = set(
            external_vertex_cover(
                ef, memory, product_operator=product_operator, type2_reduction=type2
            ).scan()
        )
        assert is_vertex_cover(cover, edges)

    def test_type2_reduces_cover_size(self, device, memory):
        edges = random_edges(60, 150, seed=5)
        ef = EdgeFile.from_edges(device, "e", edges)
        plain = set(external_vertex_cover(ef, memory).scan())
        reduced = set(
            external_vertex_cover(ef, memory, type2_reduction=True).scan()
        )
        assert len(reduced) <= len(plain)

    def test_only_sequential_io(self, device, memory):
        edges = random_edges(40, 90, seed=0)
        ef = EdgeFile.from_edges(device, "e", edges)
        external_vertex_cover(ef, memory)
        assert device.stats.random == 0


class TestBoundedCoverTable:
    def test_membership(self):
        table = BoundedCoverTable(4)
        table.add(1, (5, 1))
        assert 1 in table
        assert 2 not in table

    def test_eviction_keeps_smallest_keys(self):
        table = BoundedCoverTable(2)
        table.add(1, (10, 1))
        table.add(2, (5, 2))
        table.add(3, (1, 3))  # evicts the largest key (node 1)
        assert 1 not in table
        assert 2 in table
        assert 3 in table
        assert len(table) == 2

    def test_zero_capacity_never_stores(self):
        table = BoundedCoverTable(0)
        table.add(1, (1, 1))
        assert 1 not in table
        assert len(table) == 0

    def test_duplicate_add_is_noop(self):
        table = BoundedCoverTable(3)
        table.add(1, (1, 1))
        table.add(1, (1, 1))
        assert len(table) == 1

    def test_from_memory_sizing(self):
        assert BoundedCoverTable.from_memory(160).capacity == 10

    def test_stale_heap_entries_skipped(self):
        table = BoundedCoverTable(2)
        table.add(1, (9, 1))
        table.add(2, (8, 2))
        table.add(3, (7, 3))  # evicts 1
        table.add(1, (6, 1))  # re-add with a smaller key; evicts 2
        assert 1 in table
        assert 3 in table
        assert len(table) == 2

    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.integers(0, 5),
        width=st.sampled_from([2, 3]),
        adds=st.lists(
            st.tuples(st.integers(0, 9), st.lists(st.integers(0, 3), min_size=3,
                                                  max_size=3)),
            max_size=60,
        ),
    )
    def test_matches_reference_model(self, capacity, width, adds):
        """The table keeps the ``capacity`` smallest keys: a plain dict
        that evicts its largest key (ties: the smallest node) after every
        insert holds the same members after every add."""
        table = BoundedCoverTable(capacity)
        model = {}
        for node, fields in adds:
            key = tuple(fields[:width])
            table.add(node, key)
            if capacity and node not in model:
                model[node] = key
                if len(model) > capacity:
                    victim = min(model, key=lambda n: (
                        tuple(-k for k in model[n]), n))
                    del model[victim]
            assert len(table) == len(model)
            assert all(n in table for n in model)
