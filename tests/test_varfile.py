"""Tests for variable-record files and the codec-compressed pipeline
built on them."""

import pytest

from tests.conftest import random_edges

from repro.exceptions import StorageError
from repro.io.varfile import VarRecordFile, varint_size


class TestVarintSize:
    def test_one_byte(self):
        assert varint_size(0) == 1
        assert varint_size(127) == 1

    def test_two_bytes(self):
        assert varint_size(128) == 2
        assert varint_size(16383) == 2

    def test_larger(self):
        assert varint_size(16384) == 3
        assert varint_size(1 << 28) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varint_size(-1)


class TestVarRecordFile:
    def test_roundtrip(self, device):
        f = VarRecordFile(device, "v")
        payloads = [f"rec{i}" for i in range(20)]
        for i, payload in enumerate(payloads):
            f.append(payload, nbytes=5 + i % 3)
        f.close()
        assert list(f.scan()) == payloads
        assert f.num_records == 20

    def test_blocks_fill_by_bytes(self, device):
        f = VarRecordFile(device, "v")  # 64-byte blocks
        for i in range(8):
            f.append(i, nbytes=16)  # 4 per block
        f.close()
        assert f.num_blocks == 2

    def test_oversized_record_rejected(self, device):
        f = VarRecordFile(device, "v")
        with pytest.raises(StorageError):
            f.append("big", nbytes=65)

    def test_zero_size_rejected(self, device):
        f = VarRecordFile(device, "v")
        with pytest.raises(ValueError):
            f.append("x", nbytes=0)

    def test_scan_before_close_rejected(self, device):
        f = VarRecordFile(device, "v")
        f.append("x", 4)
        with pytest.raises(StorageError):
            list(f.scan())

    def test_append_after_close_rejected(self, device):
        f = VarRecordFile(device, "v")
        f.close()
        with pytest.raises(StorageError):
            f.append("x", 4)


class TestCompressedPipeline:
    """The codec knob inside Ext-SCC."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_sccs_as_fixed(self, seed):
        from tests.conftest import reference_sccs

        from repro.core import ExtSCCConfig, compute_sccs

        edges = random_edges(50, 130, seed, self_loops=True)
        config = ExtSCCConfig.optimized(codec="gap-varint")
        out = compute_sccs(edges, num_nodes=50, memory_bytes=300,
                           block_size=64, config=config)
        assert out.result == reference_sccs(edges, 50)

    def test_saves_io_on_larger_graphs(self):
        from repro.core import ExtSCCConfig, compute_sccs
        from repro.graph.generators import large_scc_graph

        g = large_scc_graph(num_nodes=800, seed=3)
        base = compute_sccs(g.edges, num_nodes=800, memory_bytes=3200,
                            block_size=512,
                            config=ExtSCCConfig.optimized(codec="fixed"))
        comp = compute_sccs(
            g.edges, num_nodes=800, memory_bytes=3200, block_size=512,
            config=ExtSCCConfig.optimized(codec="gap-varint"),
        )
        assert comp.result == base.result
        assert comp.io.total < base.io.total

    def test_removed_shim_rejected(self):
        """The PR 2 ``compress_edge_lists`` shim is gone; passing it is a
        hard error, not a silent no-op."""
        from repro.core import ExtSCCConfig

        with pytest.raises(TypeError):
            ExtSCCConfig(codec="fixed", compress_edge_lists=True)

    def test_unknown_codec_rejected(self):
        from repro.core import ExtSCC, ExtSCCConfig
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            ExtSCC(ExtSCCConfig(codec="lz4"))

    def test_config_name_still_custom(self):
        from repro.core import ExtSCCConfig

        config = ExtSCCConfig(codec="gap-varint")
        assert config.name == "Ext-SCC"  # not a Section VII lever
