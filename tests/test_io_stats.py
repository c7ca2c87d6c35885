"""Tests for the I/O ledger: counting, phases, snapshots, budgets, and
its thread safety (the query daemon's threads share one ledger)."""

import threading

import pytest

from repro.exceptions import IOBudgetExceeded
from repro.io.stats import IOBudget, IOSnapshot, IOStats


class TestCounters:
    def test_starts_at_zero(self):
        stats = IOStats()
        assert stats.total == 0
        assert stats.sequential == 0
        assert stats.random == 0

    def test_sequential_read_counts(self):
        stats = IOStats()
        stats.record_read(sequential=True)
        assert stats.seq_reads == 1
        assert stats.total == 1
        assert stats.random == 0

    def test_random_write_counts(self):
        stats = IOStats()
        stats.record_write(sequential=False, blocks=3)
        assert stats.rand_writes == 3
        assert stats.random == 3
        assert stats.sequential == 0

    def test_mixed_totals(self):
        stats = IOStats()
        stats.record_read(sequential=True, blocks=2)
        stats.record_read(sequential=False)
        stats.record_write(sequential=True, blocks=4)
        stats.record_write(sequential=False, blocks=5)
        assert stats.total == 12
        assert stats.sequential == 6
        assert stats.random == 6

    def test_reset(self):
        stats = IOStats()
        stats.record_read(sequential=True)
        with stats.phase("p"):
            stats.record_write(sequential=True)
        stats.reset()
        assert stats.total == 0
        assert stats.by_phase == {}


class TestSnapshots:
    def test_snapshot_is_frozen(self):
        stats = IOStats()
        stats.record_read(sequential=True)
        snap = stats.snapshot()
        stats.record_read(sequential=True)
        assert snap.seq_reads == 1
        assert stats.seq_reads == 2

    def test_snapshot_delta(self):
        stats = IOStats()
        stats.record_read(sequential=True)
        before = stats.snapshot()
        stats.record_write(sequential=False, blocks=2)
        delta = stats.snapshot() - before
        assert delta.total == 2
        assert delta.rand_writes == 2
        assert delta.seq_reads == 0

    def test_snapshot_properties(self):
        snap = IOSnapshot(seq_reads=1, seq_writes=2, rand_reads=3, rand_writes=4)
        assert snap.total == 10
        assert snap.sequential == 3
        assert snap.random == 7


class TestPhases:
    def test_phase_attribution(self):
        stats = IOStats()
        with stats.phase("sort"):
            stats.record_read(sequential=True)
            stats.record_write(sequential=True)
        stats.record_read(sequential=True)  # outside any phase
        assert stats.by_phase["sort"].total == 2
        assert stats.total == 3

    def test_nested_phases_charge_both(self):
        stats = IOStats()
        with stats.phase("outer"):
            with stats.phase("inner"):
                stats.record_read(sequential=False)
        assert stats.by_phase["outer"].rand_reads == 1
        assert stats.by_phase["inner"].rand_reads == 1

    def test_phase_reenter_accumulates(self):
        stats = IOStats()
        for _ in range(2):
            with stats.phase("p"):
                stats.record_write(sequential=True)
        assert stats.by_phase["p"].seq_writes == 2


class TestBudget:
    def test_budget_allows_under_cap(self):
        stats = IOStats(budget=IOBudget(3))
        for _ in range(3):
            stats.record_read(sequential=True)
        assert stats.total == 3

    def test_budget_raises_over_cap(self):
        stats = IOStats(budget=IOBudget(2))
        stats.record_read(sequential=True)
        stats.record_read(sequential=True)
        with pytest.raises(IOBudgetExceeded) as excinfo:
            stats.record_read(sequential=True)
        assert excinfo.value.used == 3
        assert excinfo.value.budget == 2

    def test_budget_counts_all_kinds(self):
        stats = IOStats(budget=IOBudget(1))
        stats.record_write(sequential=False)
        with pytest.raises(IOBudgetExceeded):
            stats.record_write(sequential=True)


class TestMergePassCounters:
    def test_start_at_zero(self):
        stats = IOStats()
        assert stats.merge_passes == 0
        assert stats.runs_formed == 0

    def test_record_merge_pass(self):
        stats = IOStats()
        stats.record_merge_pass()
        stats.record_merge_pass(2)
        assert stats.merge_passes == 3

    def test_record_runs_formed(self):
        stats = IOStats()
        stats.record_runs_formed(4)
        stats.record_runs_formed(1)
        assert stats.runs_formed == 5

    def test_attributed_to_nested_phases(self):
        stats = IOStats()
        with stats.phase("contraction"):
            with stats.phase("contract-1"):
                stats.record_merge_pass()
                stats.record_runs_formed(3)
        assert stats.passes_by_phase == {"contraction": 1, "contract-1": 1}
        assert stats.runs_by_phase == {"contraction": 3, "contract-1": 3}

    def test_no_attribution_outside_phase(self):
        stats = IOStats()
        stats.record_merge_pass()
        assert stats.merge_passes == 1
        assert stats.passes_by_phase == {}

    def test_reset_clears_pass_counters(self):
        stats = IOStats()
        with stats.phase("p"):
            stats.record_merge_pass()
            stats.record_runs_formed(2)
        stats.reset()
        assert stats.merge_passes == 0
        assert stats.runs_formed == 0
        assert stats.passes_by_phase == {}
        assert stats.runs_by_phase == {}

    def test_budget_not_charged_by_pass_counters(self):
        stats = IOStats(budget=IOBudget(1))
        stats.record_merge_pass(50)  # passes are bookkeeping, not I/Os
        stats.record_read(sequential=True)
        assert stats.total == 1


class TestSnapshotRollUp:
    """``IOSnapshot + IOSnapshot`` powers the service's per-tenant
    ledger roll-up; ``to_dict`` is its JSON wire form."""

    def test_add_is_counterwise(self):
        a = IOStats()
        a.record_read(sequential=True, blocks=2)
        a.record_write(sequential=False, blocks=3)
        b = IOStats()
        b.record_read(sequential=False, blocks=5)
        total = a.snapshot() + b.snapshot()
        assert total.seq_reads == 2
        assert total.rand_writes == 3
        assert total.rand_reads == 5
        assert total.total == 10

    def test_add_identity(self):
        a = IOStats()
        a.record_read(sequential=True)
        snap = a.snapshot()
        summed = snap + IOSnapshot()
        assert summed.total == snap.total
        assert summed.seq_reads == snap.seq_reads

    def test_to_dict_round_trips_counters(self):
        stats = IOStats()
        stats.record_read(sequential=True, blocks=2)
        stats.record_read(sequential=False)
        stats.record_write(sequential=True, blocks=4)
        d = stats.snapshot().to_dict()
        assert d["seq_reads"] == 2
        assert d["rand_reads"] == 1
        assert d["seq_writes"] == 4
        assert d["rand_writes"] == 0
        assert d["sequential"] == 6
        assert d["random"] == 1
        assert d["total"] == 7

    def test_sum_of_many_sessions(self):
        parts = []
        for k in range(5):
            s = IOStats()
            s.record_read(sequential=False, blocks=k + 1)
            parts.append(s.snapshot())
        total = IOSnapshot()
        for part in parts:
            total = total + part
        assert total.rand_reads == 1 + 2 + 3 + 4 + 5
        assert total.to_dict()["total"] == 15


class TestIOStatsConcurrency:
    def test_concurrent_recording_loses_nothing(self):
        stats = IOStats()
        threads = 8
        per_thread = 2000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for i in range(per_thread):
                stats.record_read(sequential=(i % 2 == 0))
                stats.record_write(sequential=(i % 3 != 0))
                if i % 50 == 0:
                    stats.record_merge_pass()
                    stats.record_runs_formed(1)
                    stats.record_payload_write(1, 16, 8, 16)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()

        n = threads * per_thread
        assert stats.seq_reads == n // 2
        assert stats.rand_reads == n - n // 2
        assert stats.seq_writes + stats.rand_writes == n
        assert stats.total == 2 * n
        bursts = threads * len(range(0, per_thread, 50))
        assert stats.merge_passes == bursts
        assert stats.runs_formed == bursts
        assert stats.records_written == bursts
        assert stats.bytes_stored == 8 * bursts

    def test_concurrent_phase_attribution(self):
        stats = IOStats()
        with stats.phase("work"):
            threads = [
                threading.Thread(
                    target=lambda: [stats.record_read(True) for _ in range(1000)]
                )
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert stats.by_phase["work"].total == 6000
        assert stats.top_level_phases == ["work"]
