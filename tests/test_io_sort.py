"""Tests for external merge sort."""

import random

import pytest

from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.sort import (
    external_sort,
    external_sort_records,
    external_sort_stream,
    sorted_unique_scan,
)


def _file_of(device, records, record_size=8, name="in"):
    return ExternalFile.from_records(device, name, records, record_size)


class TestSorting:
    def test_sorts_random_records(self, device, memory):
        rng = random.Random(0)
        records = [(rng.randrange(1000), rng.randrange(1000)) for _ in range(500)]
        out = external_sort(_file_of(device, records), memory)
        assert list(out.scan()) == sorted(records)

    def test_sort_with_key(self, device, memory):
        records = [(i, 100 - i) for i in range(100)]
        out = external_sort(_file_of(device, records), memory, key=lambda r: r[1])
        assert list(out.scan()) == sorted(records, key=lambda r: r[1])

    def test_sort_empty(self, device, memory):
        out = external_sort(_file_of(device, []), memory)
        assert list(out.scan()) == []

    def test_sort_single_record(self, device, memory):
        out = external_sort(_file_of(device, [(5, 6)]), memory)
        assert list(out.scan()) == [(5, 6)]

    def test_sort_already_sorted(self, device, memory):
        records = [(i, 0) for i in range(200)]
        out = external_sort(_file_of(device, records), memory)
        assert list(out.scan()) == records

    def test_sort_is_stable_for_equal_tuples(self, device, memory):
        records = [(1, 1)] * 50 + [(0, 0)] * 50
        out = external_sort(_file_of(device, records), memory)
        assert list(out.scan()) == sorted(records)

    def test_unique_drops_duplicates(self, device, memory):
        records = [(i % 10, 0) for i in range(100)]
        out = external_sort(_file_of(device, records), memory, unique=True)
        assert list(out.scan()) == [(i, 0) for i in range(10)]

    def test_out_name_respected(self, device, memory):
        out = external_sort(_file_of(device, [(2, 0), (1, 0)]), memory, out_name="sorted")
        assert out.name == "sorted"
        assert device.exists("sorted")

    def test_delete_input(self, device, memory):
        infile = _file_of(device, [(2, 0), (1, 0)])
        external_sort(infile, memory, delete_input=True)
        assert not device.exists("in")


class TestMultiPass:
    def test_tiny_memory_forces_multiple_passes(self, device):
        # 64-byte blocks; M=128 -> fan-in 2; 2000 records of 8 bytes ->
        # 125 runs merged pairwise over ~7 passes.
        memory = MemoryBudget(128)
        rng = random.Random(1)
        records = [(rng.randrange(10_000), 0) for _ in range(2000)]
        out = external_sort_records(device, iter(records), 8, memory)
        assert list(out.scan()) == sorted(records)

    def test_temp_runs_cleaned_up(self, device, memory):
        records = [(i % 7, i) for i in range(300)]
        before = set(device.list_files())
        out = external_sort_records(device, iter(records), 8, memory, out_name="result")
        after = set(device.list_files())
        assert after - before == {"result"}

    def test_io_cost_scales_with_passes(self, device):
        """More memory => fewer merge passes => fewer I/Os."""
        records = [(i * 37 % 5000, 0) for i in range(3000)]
        small = MemoryBudget(128)
        big = MemoryBudget(4096)
        before = device.stats.total
        external_sort_records(device, iter(records), 8, small)
        small_cost = device.stats.total - before
        before = device.stats.total
        external_sort_records(device, iter(records), 8, big)
        big_cost = device.stats.total - before
        assert big_cost < small_cost

    def test_sort_never_random(self, device, memory):
        records = [(i * 13 % 997, i) for i in range(1500)]
        external_sort_records(device, iter(records), 8, memory)
        assert device.stats.random == 0


class TestSortStream:
    def test_same_records_same_order_as_materialized(self, device, memory):
        rng = random.Random(2)
        records = [(rng.randrange(30), i % 4) for i in range(600)]
        key = lambda r: r[0]  # noqa: E731 - many equal keys exercise stability
        out = external_sort_records(device, iter(records), 8, memory, key=key)
        streamed = list(
            external_sort_stream(device, iter(records), 8, memory, key=key)
        )
        assert streamed == list(out.scan())

    def test_empty_input(self, device, memory):
        assert list(external_sort_stream(device, iter([]), 8, memory)) == []

    def test_unique(self, device, memory):
        records = [(i % 10, 0) for i in range(100)]
        streamed = list(
            external_sort_stream(device, iter(records), 8, memory, unique=True)
        )
        assert streamed == [(i, 0) for i in range(10)]

    def test_unique_across_merge_batches(self, device, memory):
        # Many runs of long duplicate stretches: equal records straddle
        # the merge's batch boundaries and must still collapse to one.
        records = [(i * 7 % 23, i % 2) for i in range(6000)]
        streamed = list(
            external_sort_stream(device, iter(records), 8, memory, unique=True)
        )
        assert streamed == sorted(set(records))
        assert device.stats.runs_formed > 2

    def test_run_files_cleaned_up(self, device, memory):
        records = [(i * 31 % 200, i) for i in range(300)]
        before = set(device.list_files())
        for _ in external_sort_stream(device, iter(records), 8, memory):
            pass
        assert set(device.list_files()) == before

    def test_run_files_cleaned_up_on_early_close(self, device, memory):
        records = [(i * 31 % 200, i) for i in range(300)]
        before = set(device.list_files())
        stream = external_sort_stream(device, iter(records), 8, memory)
        next(stream)
        stream.close()
        assert set(device.list_files()) == before

    def test_streaming_saves_a_write_and_read_pass(self, device, memory):
        """The fusion payoff: consuming the final merge in-flight skips the
        output write of the materializing sort and the re-read the consumer
        would have needed."""
        records = [(i * 37 % 997, i) for i in range(1500)]

        before = device.stats.snapshot()
        out = external_sort_records(device, iter(records), 8, memory, codec="fixed")
        consumed_materialized = list(out.scan())
        materialized_cost = (device.stats.snapshot() - before).total
        out.delete()

        before = device.stats.snapshot()
        consumed_streamed = list(
            external_sort_stream(device, iter(records), 8, memory, codec="fixed")
        )
        streamed_cost = (device.stats.snapshot() - before).total

        assert consumed_streamed == consumed_materialized
        nblocks = 1500 * 8 // device.block_size
        # One full write pass + one full read pass saved (fixed-width blocks
        # keep the arithmetic exact; compression shrinks both sides alike).
        assert streamed_cost <= materialized_cost - 2 * nblocks

    def test_stream_never_random(self, device, memory):
        records = [(i * 13 % 997, i) for i in range(1500)]
        list(external_sort_stream(device, iter(records), 8, memory))
        assert device.stats.random == 0


class TestSingleRunShortcut:
    def test_single_run_renames_instead_of_copying(self, device, memory):
        """A one-run sort (input fits in memory) costs only the run write."""
        records = [(i * 7 % 50, i) for i in range(50)]  # 400B <= M=512
        before = device.stats.snapshot()
        out = external_sort_records(
            device, iter(records), 8, memory, out_name="s", codec="fixed"
        )
        delta = (device.stats.snapshot() - before).total
        assert list(out.scan()) == sorted(records)
        assert out.name == "s"
        # 50 records * 8B / 64B blocks = 7 blocks written, nothing re-read.
        assert delta == 7

    def test_single_run_rename_works_compressed(self, device, memory):
        """The rename shortcut applies to compressed runs too."""
        records = [(i * 7 % 50, i) for i in range(50)]
        before = device.stats.snapshot()
        out = external_sort_records(
            device, iter(records), 8, memory, out_name="c", codec="gap-varint"
        )
        delta = (device.stats.snapshot() - before)
        assert list(out.scan()) == sorted(records)
        assert out.name == "c"
        assert delta.seq_reads == 0  # renamed into place, never re-read
        assert delta.total < 7  # compressed run: fewer blocks than fixed

    def test_single_run_sort_counts_no_merge_pass(self, device, memory):
        records = [(i, 0) for i in range(50)]
        external_sort_records(device, iter(records), 8, memory)
        assert device.stats.merge_passes == 0

    def test_multi_run_sort_counts_merge_passes(self, device):
        memory = MemoryBudget(128)  # fan-in 2: forces intermediate passes
        rng = random.Random(4)
        records = [(rng.randrange(10_000), 0) for _ in range(2000)]
        external_sort_records(device, iter(records), 8, memory)
        assert device.stats.merge_passes >= 2
        assert device.stats.runs_formed >= 2


class TestSortedUniqueScan:
    def test_dedupes_neighbors(self):
        assert list(sorted_unique_scan([(1,), (1,), (2,), (3,), (3,)])) == [(1,), (2,), (3,)]

    def test_empty(self):
        assert list(sorted_unique_scan([])) == []
