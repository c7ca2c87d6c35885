"""Tests for run formation (the first half of external merge sort)."""

import random

from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.runs import form_runs_replacement_selection, run_iterator
from repro.io.sort import merge_runs


def form_runs(device, records, record_size, memory, key=None):
    """The classic load-sort-write pass, kept as the oracle replacement
    selection is measured against: fill memory, sort, write, repeat, so an
    input of ``m`` records yields ``ceil(m / M)`` runs."""
    capacity = max(1, memory.record_capacity(record_size))
    records = list(records)
    runs = []
    for start in range(0, len(records), capacity):
        run = ExternalFile.create(device, device.temp_name("run"), record_size)
        run.extend(sorted(records[start:start + capacity], key=key))
        run.close()
        runs.append(run)
    return runs


class TestFormRuns:
    def test_each_run_sorted(self, device):
        rng = random.Random(0)
        records = [(rng.randrange(100), i) for i in range(200)]
        runs = form_runs(device, iter(records), 8, MemoryBudget(256))
        for run in runs:
            contents = list(run.scan())
            assert contents == sorted(contents)

    def test_run_sizes_respect_memory(self, device):
        # M=256 bytes, 8-byte records -> 32 records per run.
        records = [(i, 0) for i in range(100)]
        runs = form_runs(device, iter(records), 8, MemoryBudget(256))
        assert len(runs) == 4  # 32+32+32+4
        assert all(run.num_records <= 32 for run in runs)

    def test_union_of_runs_is_input(self, device):
        records = [(i * 7 % 53, i) for i in range(150)]
        runs = form_runs(device, iter(records), 8, MemoryBudget(256))
        collected = [r for run in runs for r in run.scan()]
        assert sorted(collected) == sorted(records)

    def test_empty_input(self, device):
        assert form_runs(device, iter([]), 8, MemoryBudget(256)) == []

    def test_custom_key(self, device):
        records = [(i, 100 - i) for i in range(50)]
        runs = form_runs(device, iter(records), 8, MemoryBudget(4096),
                         key=lambda r: r[1])
        contents = list(runs[0].scan())
        assert contents == sorted(records, key=lambda r: r[1])

    def test_run_iterator(self, device):
        runs = form_runs(device, iter([(2, 0), (1, 0)]), 8, MemoryBudget(256))
        assert list(run_iterator(runs[0])) == [(1, 0), (2, 0)]


class TestReplacementSelection:
    def test_each_run_sorted(self, device):
        rng = random.Random(0)
        records = [(rng.randrange(100), i) for i in range(200)]
        runs = form_runs_replacement_selection(
            device, iter(records), 8, MemoryBudget(256)
        )
        for run in runs:
            contents = list(run.scan())
            assert contents == sorted(contents)

    def test_union_of_runs_is_input(self, device):
        records = [(i * 7 % 53, i) for i in range(150)]
        runs = form_runs_replacement_selection(
            device, iter(records), 8, MemoryBudget(256)
        )
        collected = [r for run in runs for r in run.scan()]
        assert sorted(collected) == sorted(records)

    def test_empty_input(self, device):
        assert form_runs_replacement_selection(
            device, iter([]), 8, MemoryBudget(256)
        ) == []

    def test_fewer_runs_than_classic_on_random_input(self, device):
        """The headline property: expected run length 2M on random input,
        so roughly half as many runs as the classic fill-sort-write pass."""
        rng = random.Random(7)
        records = [(rng.randrange(100_000), i) for i in range(2000)]
        memory = MemoryBudget(256)  # 32 records of 8B
        classic = form_runs(device, iter(records), 8, memory)
        rs = form_runs_replacement_selection(device, iter(records), 8, memory)
        assert len(classic) == 63  # ceil(2000/32)
        # Expect ~32; anything below 0.7x classic shows the effect robustly.
        assert len(rs) < 0.7 * len(classic)

    def test_sorted_input_yields_single_run(self, device):
        """On presorted input every record continues the current run."""
        records = [(i, 0) for i in range(1000)]
        runs = form_runs_replacement_selection(
            device, iter(records), 8, MemoryBudget(256)
        )
        assert len(runs) == 1
        assert list(runs[0].scan()) == records

    def test_reverse_sorted_input_matches_classic(self, device):
        """Worst case: each record starts a new run candidate, collapsing
        run length back to the memory capacity (the classic run length)."""
        records = [(1000 - i, 0) for i in range(1000)]
        memory = MemoryBudget(256)
        classic = form_runs(device, iter(records), 8, memory)
        rs = form_runs_replacement_selection(device, iter(records), 8, memory)
        assert len(rs) == len(classic)

    def test_merge_of_runs_matches_classic_sort_order(self, device):
        """Stability: merging RS runs reproduces, record for record, the
        order the classic strategy's merge produces (equal keys included)."""
        rng = random.Random(3)
        records = [(rng.randrange(20), i % 5) for i in range(500)]
        memory = MemoryBudget(256)
        key = lambda r: r[0]  # noqa: E731 - many equal keys
        classic = form_runs(device, iter(records), 8, memory, key=key)
        rs = form_runs_replacement_selection(
            device, iter(records), 8, memory, key=key
        )
        merged_classic = list(merge_runs((r.scan() for r in classic), key=key))
        merged_rs = list(merge_runs((r.scan() for r in rs), key=key))
        assert merged_rs == merged_classic

    def test_custom_key(self, device):
        records = [(i, 100 - i) for i in range(50)]
        runs = form_runs_replacement_selection(
            device, iter(records), 8, MemoryBudget(4096), key=lambda r: r[1]
        )
        assert len(runs) == 1
        assert list(runs[0].scan()) == sorted(records, key=lambda r: r[1])

    def test_heap_never_exceeds_capacity(self, device, monkeypatch):
        """The heap footprint stays within M / record_size records."""
        import repro.io.runs as runs_mod

        original_push = runs_mod.heapq.heappush
        max_seen = 0

        def tracking_push(heap, item):
            nonlocal max_seen
            original_push(heap, item)
            max_seen = max(max_seen, len(heap))

        monkeypatch.setattr(runs_mod.heapq, "heappush", tracking_push)
        rng = random.Random(11)
        records = [(rng.randrange(1000), i) for i in range(400)]
        form_runs_replacement_selection(device, iter(records), 8, MemoryBudget(256))
        assert max_seen <= 32  # 256 // 8


class TestMergeRuns:
    def test_merge_restores_total_order(self, device):
        rng = random.Random(1)
        records = [(rng.randrange(500), i) for i in range(300)]
        runs = form_runs(device, iter(records), 8, MemoryBudget(128))
        assert len(runs) > 2
        merged = list(merge_runs(run.scan() for run in runs))
        assert merged == sorted(records)

    def test_merge_with_key(self, device):
        records = [(i, 50 - i) for i in range(50)]
        runs = form_runs(device, iter(records), 8, MemoryBudget(128),
                         key=lambda r: r[1])
        merged = list(merge_runs((run.scan() for run in runs),
                                 key=lambda r: r[1]))
        assert merged == sorted(records, key=lambda r: r[1])
