"""Property-based tests (hypothesis) for the codec layer.

Two families of invariants:

* **Codec laws** — for every codec, ``len(encode(r, prev)) ==
  encoded_size(r, prev)`` (the accounting is honest) and
  ``decode(encode(r, prev), prev) == r`` (roundtrip identity), on sorted
  and unsorted streams alike.
* **Pipeline equivalence** — Ext-SCC under ``codec="gap-varint"`` labels
  random digraphs exactly like ``codec="fixed"`` (compression is purely a
  storage-format change), and never with more block I/Os on the workloads
  where compression matters.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import reference_blocks, reference_sccs

from repro.core import ExtSCCConfig, compute_sccs
from repro.io.blocks import BlockDevice
from repro.io.codecs import FixedCodec, GapVarintCodec, VarintCodec
from repro.io.memory import MemoryBudget
from repro.io.sort import external_sort_records

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# FixedCodec packs 4-byte zigzag fields, so stay within its range to share
# one stream strategy across all three codecs.
field = st.integers(min_value=-(1 << 30), max_value=1 << 30)
records_strategy = st.lists(st.tuples(field, field), min_size=0, max_size=60)

N_NODES = 14
edges_strategy = st.lists(
    st.tuples(st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1)),
    min_size=0,
    max_size=45,
)


def codecs_under_test():
    return [FixedCodec(8), VarintCodec(8), GapVarintCodec(8, gap_field=0),
            GapVarintCodec(8, gap_field=1)]


class TestCodecLaws:
    @given(records=records_strategy)
    @SETTINGS
    def test_size_accounting_matches_encoding(self, records):
        for codec in codecs_under_test():
            prev = None
            for record in records:
                data = codec.encode(record, prev)
                assert len(data) == codec.encoded_size(record, prev)
                prev = record

    @given(records=records_strategy)
    @SETTINGS
    def test_roundtrip_identity_unsorted(self, records):
        for codec in codecs_under_test():
            prev = None
            for record in records:
                data = codec.encode(record, prev)
                decoded, pos = codec.decode(data, 0, 2, prev)
                assert decoded == record
                assert pos == len(data)
                prev = record

    @given(records=records_strategy)
    @SETTINGS
    def test_stream_roundtrip_sorted(self, records):
        records = sorted(records)
        for codec in codecs_under_test():
            blob = bytearray()
            prev = None
            for record in records:
                blob += codec.encode(record, prev)
                prev = record
            assert list(codec.decode_stream(bytes(blob), 2)) == records

    @given(records=st.lists(st.tuples(st.integers(0, 1 << 30),
                                      st.integers(0, 1 << 30)),
                            min_size=0, max_size=60))
    @SETTINGS
    def test_gap_never_beaten_by_plain_varint_on_sorted_streams(self, records):
        # Holds for non-negative sorted streams (what the pipeline writes:
        # graph ids): 0 <= delta <= value, so the gap varint never grows.
        # A negative prev could make the delta exceed the value itself.
        records = sorted(records)
        gap = GapVarintCodec(8, gap_field=0)
        plain = VarintCodec(8)
        prev = None
        gap_total = plain_total = 0
        for record in records:
            gap_total += gap.encoded_size(record, prev)
            plain_total += plain.encoded_size(record, prev)
            prev = record
        assert gap_total <= plain_total


class TestSortEquivalence:
    @given(records=records_strategy)
    @SETTINGS
    def test_compressed_sort_matches_fixed(self, records):
        fixed_dev = BlockDevice(block_size=64)
        comp_dev = BlockDevice(block_size=64)
        memory = MemoryBudget(256)
        out_fixed = external_sort_records(
            fixed_dev, iter(records), 8, memory, codec="fixed"
        )
        out_comp = external_sort_records(
            comp_dev, iter(records), 8, memory, codec="gap-varint"
        )
        assert list(out_comp.scan()) == list(out_fixed.scan())


class TestPipelineEquivalence:
    @given(edges=edges_strategy, optimized=st.booleans())
    @SETTINGS
    def test_gap_varint_finds_same_sccs_as_fixed(self, edges, optimized):
        make = ExtSCCConfig.optimized if optimized else ExtSCCConfig.baseline
        fixed = compute_sccs(edges, num_nodes=N_NODES, memory_bytes=160,
                             block_size=32, config=make(codec="fixed"))
        comp = compute_sccs(edges, num_nodes=N_NODES, memory_bytes=160,
                            block_size=32, config=make(codec="gap-varint"))
        assert comp.result == fixed.result
        assert comp.result == reference_sccs(edges, N_NODES)

    @given(edges=edges_strategy)
    @SETTINGS
    def test_compression_never_costs_io(self, edges):
        fixed = compute_sccs(edges, num_nodes=N_NODES, memory_bytes=160,
                             block_size=32,
                             config=ExtSCCConfig.baseline(codec="fixed"))
        comp = compute_sccs(edges, num_nodes=N_NODES, memory_bytes=160,
                            block_size=32,
                            config=ExtSCCConfig.baseline(codec="gap-varint"))
        assert comp.io.total <= fixed.io.total


class TestBatchScalarEquivalence:
    """The block-granularity codec APIs are *definitionally* the scalar
    methods applied in a loop — hypothesis pins byte-for-byte equality for
    every codec, including the chained ``prev`` and the empty block."""

    @given(records=records_strategy)
    @SETTINGS
    def test_encoded_sizes_match_scalar_chain(self, records):
        for codec in codecs_under_test():
            for prev in (None, records[0] if records else None):
                expected = []
                chain = prev
                for record in records:
                    expected.append(codec.encoded_size(record, chain))
                    chain = record
                assert codec.encoded_sizes(records, prev) == expected, codec

    @given(records=records_strategy)
    @SETTINGS
    def test_encode_block_is_scalar_concatenation(self, records):
        for codec in codecs_under_test():
            blob = bytearray()
            prev = None
            for record in records:
                blob += codec.encode(record, prev)
                prev = record
            assert codec.encode_block(records) == bytes(blob), codec

    @given(records=records_strategy)
    @SETTINGS
    def test_decode_block_roundtrip(self, records):
        for codec in codecs_under_test():
            data = codec.encode_block(records)
            assert codec.decode_block(data, 2) == list(records), codec

    def test_empty_block(self):
        for codec in codecs_under_test():
            assert codec.encode_block([]) == b""
            assert codec.decode_block(b"", 2) == []
            assert codec.encoded_sizes([], None) == []

    @given(records=st.lists(st.tuples(field, field), min_size=1, max_size=40))
    @SETTINGS
    def test_truncated_block_rejected(self, records):
        for codec in codecs_under_test():
            data = codec.encode_block(records)
            with pytest.raises(ValueError):
                codec.decode_block(data[:-1], 2)


class TestBatchFileEquivalence:
    """A ``CompressedRecordFile`` filled through batch ``extend`` lays out
    exactly the blocks a per-record ``append`` loop would — including the
    cut where a record restarts the gap chain at a block boundary."""

    @given(records=records_strategy, block_size=st.sampled_from([32, 64, 128]))
    @SETTINGS
    def test_extend_matches_append(self, records, block_size):
        from repro.io.codecs import CompressedRecordFile

        for codec in codecs_under_test():
            blocks, stored = reference_blocks(codec, records, block_size)
            ledgers = []
            for batch in (True, False):
                device = BlockDevice(block_size=block_size)
                store = CompressedRecordFile(device, "data", 8, codec)
                if batch:
                    store.extend(records)
                else:
                    for record in records:
                        store.append(record)
                store.close()
                assert [[record for (record,) in block]
                        for block in store.scan_blocks()] == blocks
                assert store.stored_bytes == stored
                ledgers.append(device.stats.snapshot())
            assert ledgers[0] == ledgers[1]
