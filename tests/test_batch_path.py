"""Batch record path ≡ per-record reference: the block-granularity
equivalence suite.

The batch APIs (``Codec.encoded_sizes`` / ``encode_block`` /
``decode_block``, ``CompressedRecordFile.extend``'s greedy block walk,
``VarRecordFile.append_batch``, ``ExternalFile.extend``'s threshold-exact
fill) exist purely to cut host-CPU overhead; they must never change what
is *computed*.  This suite pins the contract at every layer:

* file layer — batch ``extend`` lays out the blocks and stored bytes of
  the per-record reference encoder (``reference_blocks`` in
  ``tests/conftest.py``) and leaves the same file and ledger as one
  ``append`` per record, for every codec and across ``BATCH_CHUNK``
  boundaries;
* error paths — an invalid record mid-batch raises the same exception
  with the same already-committed prefix as the per-record path;
* pipeline layer — per-phase wall seconds cover the top-level phases.
"""

import random

import pytest

from tests.conftest import reference_blocks

from repro.core.config import ExtSCCConfig
from repro.core.ext_scc import ExtSCC
from repro.exceptions import StorageError
from repro.graph.datasets import build_dataset
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.codecs import (
    BATCH_CHUNK,
    Codec,
    CompressedRecordFile,
    FixedCodec,
    GapVarintCodec,
    VarintCodec,
)
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget


def _codecs():
    return [
        FixedCodec(8),
        VarintCodec(8),
        GapVarintCodec(8, gap_field=0),
        GapVarintCodec(8, gap_field=1),
    ]


def _random_records(count, seed, span=1 << 20):
    rng = random.Random(seed)
    return [(rng.randint(-span, span), rng.randint(-span, span))
            for _ in range(count)]


def _write(store, records, batch):
    """Fill ``store`` with one ``extend`` call, or one ``append`` per record."""
    if batch:
        store.extend(records)
    else:
        for record in records:
            store.append(record)


def _write_compressed(codec, records, block_size, batch):
    """Write ``records`` through one CompressedRecordFile; return the file
    state and the device's ledger."""
    device = BlockDevice(block_size=block_size)
    store = CompressedRecordFile(device, "data", 8, codec)
    _write(store, records, batch)
    store.close()
    return {
        "records": list(store.scan()),
        "blocks": [[record for (record,) in block]
                   for block in store.scan_blocks()],
        "stored": store.stored_bytes,
        "num_blocks": store.num_blocks,
        "ledger": device.stats.snapshot(),
        "payload": (device.stats.records_written,
                    device.stats.bytes_logical,
                    device.stats.bytes_stored),
    }


def _assert_matches_reference(codec, records, block_size, batch_input=None):
    batch = _write_compressed(
        codec, records if batch_input is None else batch_input, block_size,
        batch=True,
    )
    assert batch == _write_compressed(codec, records, block_size, batch=False), codec
    blocks, stored = reference_blocks(codec, records, block_size)
    assert (batch["blocks"], batch["stored"]) == (blocks, stored), codec


class TestFileLayerEquivalence:
    @pytest.mark.parametrize("block_size", [32, 64, 128])
    def test_compressed_file_identical(self, block_size):
        records = _random_records(700, seed=block_size)
        for codec in _codecs():
            _assert_matches_reference(codec, records, block_size)

    def test_sorted_stream_and_generator_input(self):
        records = sorted(_random_records(900, seed=3))
        _assert_matches_reference(GapVarintCodec(8, gap_field=0), records, 64,
                                  batch_input=iter(records))

    def test_across_chunk_boundaries(self):
        # More records than one BATCH_CHUNK: the gap chain must carry
        # across chunk boundaries exactly as the per-record ``prev`` does.
        records = sorted(_random_records(BATCH_CHUNK + 500, seed=11))
        _assert_matches_reference(GapVarintCodec(8, gap_field=0), records, 64)

    @pytest.mark.parametrize("as_generator", [False, True])
    def test_external_file_extend_matches_append(self, as_generator):
        records = _random_records(500, seed=21)
        batch_device = BlockDevice(block_size=64)
        batch_file = ExternalFile.create(batch_device, "f", 8)
        batch_file.extend(iter(records) if as_generator else records)
        batch_file.close()
        scalar_device = BlockDevice(block_size=64)
        scalar_file = ExternalFile.create(scalar_device, "f", 8)
        for record in records:
            scalar_file.append(record)
        scalar_file.close()
        assert list(batch_file.scan()) == list(scalar_file.scan())
        assert batch_file.num_blocks == scalar_file.num_blocks
        assert batch_device.stats.snapshot() == scalar_device.stats.snapshot()

    def test_closed_file_rejects_extend(self):
        device = BlockDevice(block_size=64)
        store = CompressedRecordFile(device, "data", 8, VarintCodec(8))
        store.close()
        with pytest.raises(StorageError):
            store.extend([(1, 2)])


class _ZeroSizedFives(VarintCodec):
    """Prices the record ``(5, 5)`` at zero bytes, which ``append``
    rejects; no built-in codec produces a non-positive size."""

    def encoded_size(self, record, prev=None):
        return 0 if record == (5, 5) else super().encoded_size(record, prev)

    def encoded_sizes(self, records, prev=None):
        return Codec.encoded_sizes(self, records, prev)


class TestErrorPathParity:
    def _partial_state(self, codec, records, error, batch):
        """Write ``records``, one of which is invalid; return the message,
        the committed records and the ledger."""
        device = BlockDevice(block_size=32)
        store = CompressedRecordFile(device, "data", 8, codec)
        with pytest.raises(error) as excinfo:
            _write(store, records, batch)
        store.close()
        return str(excinfo.value), list(store.scan()), device.stats.snapshot()

    def test_oversized_record_identical_partial_state(self):
        # (1 << 400, 1 << 400) encodes to ~116 bytes > the 32-byte block.
        records = [(i, i) for i in range(10)] + [(1 << 400, 1 << 400), (7, 7)]
        batch, per_record = (
            self._partial_state(VarintCodec(8), records, StorageError, batch)
            for batch in (True, False)
        )
        assert batch == per_record

    def test_non_positive_size_identical_partial_state(self):
        records = [(i, i) for i in range(10)]
        batch, per_record = (
            self._partial_state(_ZeroSizedFives(8), records, ValueError, batch)
            for batch in (True, False)
        )
        assert batch == per_record
        assert batch[1] == records[:5]


class TestPipelineEquivalence:
    def _run(self, edges, num_nodes, codec):
        device = BlockDevice(block_size=64)
        memory = MemoryBudget(512)
        edge_file = EdgeFile.from_edges(device, "edges", edges)
        node_file = NodeFile.from_ids(
            device, "nodes", range(num_nodes), memory, presorted=True
        )
        config = ExtSCCConfig.baseline(pool_readahead=1, codec=codec)
        before = device.stats.snapshot()
        out = ExtSCC(config).run(device, edge_file, memory, nodes=node_file)
        return out, device.stats.snapshot() - before

    def test_phase_seconds_cover_top_level_phases(self):
        graph = build_dataset("large-scc", num_nodes=80, seed=9)
        out, _ = self._run(list(graph.edges), graph.num_nodes, "gap-varint")
        assert set(out.phase_seconds) >= {"contraction", "semi-scc", "expansion"}
        assert all(seconds >= 0.0 for seconds in out.phase_seconds.values())
        assert sum(out.phase_seconds.values()) <= out.wall_seconds + 0.25
