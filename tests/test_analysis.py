"""Tests for the analysis layer: cost model and graph stats."""

import math

import pytest

from tests.conftest import random_edges

from repro.analysis import (
    CostModel,
    arboricity_upper_bound,
    degree_stats,
)
from repro.core import compute_sccs
from repro.graph.edge_file import EdgeFile
from repro.io.blocks import BlockDevice
from repro.io.memory import MemoryBudget


class TestCostModelPrimitives:
    model = CostModel(block_size=64, memory_bytes=512)

    def test_blocks(self):
        assert self.model.blocks(16, 8) == 2
        assert self.model.blocks(17, 8) == 3
        assert self.model.blocks(0, 8) == 0

    def test_scan_equals_blocks(self):
        assert self.model.scan(100, 8) == self.model.blocks(100, 8)

    def test_sort_zero(self):
        assert self.model.sort(0, 8) == 0

    def test_sort_single_run(self):
        # 40 records of 8B fit in one 512B run: formation writes only —
        # the single-run shortcut renames the run into the output file.
        blocks = self.model.blocks(40, 8)
        assert self.model.sort(40, 8) == blocks
        # The streamed variant reads the run back into the consumer.
        assert self.model.sort_streamed(40, 8) == 2 * blocks

    def test_sort_replacement_selection_run_count(self):
        # 200 records of 8B against 512B memory: classic formation would
        # produce ceil(200/64) = 4 runs; replacement selection expects 2.
        assert self.model.expected_runs(200, 8) == 2

    def test_sort_grows_with_less_memory(self):
        small = CostModel(block_size=64, memory_bytes=128)
        big = CostModel(block_size=64, memory_bytes=4096)
        assert small.sort(2000, 8) > big.sort(2000, 8)

    def test_matches_measured_sort(self, device):
        """Predicted sort cost within 2x of the real ledger."""
        from repro.io.sort import external_sort_records

        records = [(i * 37 % 997, i) for i in range(1500)]
        before = device.stats.snapshot()
        external_sort_records(
            device, iter(records), 8, MemoryBudget(512), codec="fixed"
        )
        measured = (device.stats.snapshot() - before).total
        predicted = CostModel(64, 512).sort(1500, 8)
        assert predicted / 2 <= measured <= predicted * 2

    def test_matches_measured_compressed_sort(self, device):
        """With measured bytes/record, the model tracks the compressed sort."""
        from repro.io.sort import external_sort_records

        records = [(i * 37 % 997, i) for i in range(1500)]
        before = device.stats.snapshot()
        external_sort_records(
            device, iter(records), 8, MemoryBudget(512), codec="gap-varint"
        )
        measured = (device.stats.snapshot() - before).total
        calibration = {
            width: stored / count
            for width, (count, stored) in device.stats.bytes_by_width.items()
        }
        predicted = CostModel(64, 512, bytes_per_record=calibration).sort(1500, 8)
        assert predicted / 2 <= measured <= predicted * 2
        # The calibrated prediction must be well below the fixed-width one.
        assert predicted < CostModel(64, 512).sort(1500, 8)


class TestCostModelPipeline:
    def test_predicts_ext_scc_within_factor(self):
        """End-to-end: Theorems 5.1/5.2/6.1 instantiated vs. the ledger."""
        from repro.core import ExtSCCConfig

        edges = random_edges(80, 200, seed=0)
        out = compute_sccs(edges, num_nodes=80, memory_bytes=300,
                           block_size=64,
                           config=ExtSCCConfig.baseline(codec="fixed"))
        assert out.num_iterations >= 1
        model = CostModel(block_size=64, memory_bytes=300)
        predicted = model.ext_scc(out.iterations)
        measured = out.io.total
        assert predicted / 3 <= measured <= predicted * 3, (predicted, measured)

    def test_predicts_compressed_ext_scc_with_calibration(self):
        """The calibrated model tracks the gap-varint pipeline's ledger."""
        from repro.core import ExtSCC, ExtSCCConfig
        from repro.graph.edge_file import NodeFile

        edges = random_edges(80, 200, seed=0)
        device = BlockDevice(block_size=64)
        memory = MemoryBudget(300)
        edge_file = EdgeFile.from_edges(device, "E", edges)
        node_file = NodeFile.from_ids(device, "V", range(80), memory,
                                      presorted=True)
        out = ExtSCC(ExtSCCConfig.baseline(codec="gap-varint")).run(
            device, edge_file, memory, nodes=node_file
        )
        assert out.num_iterations >= 1
        calibration = {
            width: stored / count
            for width, (count, stored) in device.stats.bytes_by_width.items()
        }
        model = CostModel(block_size=64, memory_bytes=300,
                          bytes_per_record=calibration)
        predicted = model.ext_scc(out.iterations)
        measured = out.io.total
        assert predicted / 3 <= measured <= predicted * 3, (predicted, measured)

    def test_iteration_costs_scale_with_edges(self):
        model = CostModel(block_size=64, memory_bytes=512)
        small = model.get_v(100, 200)
        large = model.get_v(100, 2000)
        assert large > small


class TestDegreeStats:
    def test_star_graph(self, device, memory):
        edges = [(0, i) for i in range(1, 9)]
        ef = EdgeFile.from_edges(device, "e", edges)
        stats = degree_stats(ef, memory)
        assert stats.num_nodes == 9
        assert stats.max_out_degree == 8
        assert stats.max_in_degree == 1
        assert stats.num_sources == 1   # the hub has indeg 0
        assert stats.num_sinks == 8
        assert stats.histogram[8] == 1
        assert stats.histogram[1] == 8

    def test_average_degree(self, device, memory):
        edges = random_edges(20, 60, seed=1)
        ef = EdgeFile.from_edges(device, "e", edges)
        stats = degree_stats(ef, memory)
        assert stats.num_edges == 60
        assert stats.average_degree == pytest.approx(60 / stats.num_nodes)

    def test_empty(self, device, memory):
        ef = EdgeFile.from_edges(device, "e", [])
        stats = degree_stats(ef, memory)
        assert stats.num_nodes == 0
        assert stats.average_degree == 0.0

    def test_arboricity_bound(self, device, memory):
        edges = random_edges(30, 100, seed=2)
        stats = degree_stats(EdgeFile.from_edges(device, "e", edges), memory)
        bound = arboricity_upper_bound(stats)
        assert bound <= math.ceil(math.sqrt(100))
        assert bound <= stats.max_total_degree

    def test_arboricity_empty(self, device, memory):
        stats = degree_stats(EdgeFile.from_edges(device, "e", []), memory)
        assert arboricity_upper_bound(stats) == 0

