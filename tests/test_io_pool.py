"""Tests for the shared buffer pool: readahead, coalescing, LRU caching.

The load-bearing property is *counter neutrality*: with the cache off,
attaching a pool must leave every :class:`~repro.io.stats.IOStats` counter
of a workload identical to the unpooled run — readahead batches requests
and coalescing batches submissions, but each block is still charged exactly
once with the access pattern the caller declared.
"""

import random

import pytest

from repro.io.blocks import BlockDevice
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.pool import SharedBufferPool
from repro.io.sort import external_sort_records


def _mixed_workload(device: BlockDevice) -> None:
    """A deterministic trace with sequential writes, scans, a sort, and
    random seeks — every I/O pattern the ledger distinguishes."""
    rng = random.Random(5)
    records = [(rng.randrange(500), i) for i in range(400)]
    ef = ExternalFile.from_records(device, "trace", records, 8)
    list(ef.scan())
    for index in (7, 3, 11, 3):
        ef.read_block_random(index % ef.num_blocks)
    out = external_sort_records(device, ef.scan(), 8, MemoryBudget(512))
    list(out.scan())


class TestCounterNeutrality:
    @pytest.mark.parametrize("readahead,coalesce", [(2, 1), (8, 1), (1, 4), (8, 4)])
    def test_trace_matches_unpooled_run(self, readahead, coalesce):
        """The acceptance trace: pooled and unpooled ledgers agree counter
        for counter — readahead never misclassifies sequential vs random."""
        plain = BlockDevice(block_size=64)
        _mixed_workload(plain)

        pooled_device = BlockDevice(block_size=64)
        SharedBufferPool(
            pooled_device, readahead=readahead, coalesce_writes=coalesce
        )
        _mixed_workload(pooled_device)

        assert pooled_device.stats.seq_reads == plain.stats.seq_reads
        assert pooled_device.stats.seq_writes == plain.stats.seq_writes
        assert pooled_device.stats.rand_reads == plain.stats.rand_reads
        assert pooled_device.stats.rand_writes == plain.stats.rand_writes

    def test_readahead_batches_counted(self):
        device = BlockDevice(block_size=64)
        pool = SharedBufferPool(device, readahead=4)
        ef = ExternalFile.from_records(device, "f", [(i, 0) for i in range(100)], 8)
        list(ef.scan())  # 13 blocks -> 4 batches of <=4
        assert pool.readahead_batches == 4

    def test_coalesced_flushes_counted(self):
        device = BlockDevice(block_size=64)
        pool = SharedBufferPool(device, readahead=1, coalesce_writes=4)
        ExternalFile.from_records(device, "f", [(i, 0) for i in range(100)], 8)
        assert pool.coalesced_flushes >= 1

    def test_scan_results_unchanged(self):
        device = BlockDevice(block_size=64)
        SharedBufferPool(device, readahead=4, coalesce_writes=2)
        records = [(i * 3 % 97, i) for i in range(150)]
        ef = ExternalFile.from_records(device, "f", records, 8)
        assert list(ef.scan()) == records


class TestLRUCache:
    def test_repeated_random_reads_hit_cache(self):
        device = BlockDevice(block_size=64)
        pool = SharedBufferPool(device, readahead=1, cache_blocks=4)
        ef = ExternalFile.from_records(device, "f", [(i, 0) for i in range(64)], 8)
        before = device.stats.rand_reads
        ef.read_block_random(2)
        ef.read_block_random(2)
        ef.read_block_random(2)
        assert device.stats.rand_reads - before == 1  # one miss, two hits
        assert pool.hits == 2
        assert pool.misses == 1
        assert pool.hit_rate == pytest.approx(2 / 3)

    def test_eviction_is_lru(self):
        device = BlockDevice(block_size=64)
        pool = SharedBufferPool(device, readahead=1, cache_blocks=2)
        ef = ExternalFile.from_records(device, "f", [(i, 0) for i in range(64)], 8)
        ef.read_block_random(0)
        ef.read_block_random(1)
        ef.read_block_random(0)  # refresh block 0 -> block 1 is now LRU
        ef.read_block_random(2)  # evicts block 1
        before = device.stats.rand_reads
        ef.read_block_random(0)  # still cached
        assert device.stats.rand_reads == before
        ef.read_block_random(1)  # evicted: charged again
        assert device.stats.rand_reads == before + 1

    def test_overwrite_invalidates_block(self):
        device = BlockDevice(block_size=64)
        SharedBufferPool(device, readahead=1, cache_blocks=4)
        ef = ExternalFile.from_records(device, "f", [(i, 0) for i in range(16)], 8)
        ef.read_block_random(0)
        device.overwrite_block(ef._file, 0, [(99, 0)] * 8)
        block = ef.read_block_random(0)  # must not serve the stale copy
        assert block[0] == (99, 0)

    def test_delete_invalidates_file(self):
        device = BlockDevice(block_size=64)
        pool = SharedBufferPool(device, readahead=1, cache_blocks=4)
        ef = ExternalFile.from_records(device, "f", [(i, 0) for i in range(16)], 8)
        ef.read_block_random(0)
        ef.delete()
        assert not pool._cache

    def test_hit_rate_zero_when_idle(self):
        device = BlockDevice(block_size=64)
        pool = SharedBufferPool(device, cache_blocks=4)
        assert pool.hit_rate == 0.0


class TestValidation:
    def test_rejects_bad_readahead(self):
        with pytest.raises(ValueError):
            SharedBufferPool(BlockDevice(block_size=64), readahead=0)

    def test_rejects_bad_coalesce(self):
        with pytest.raises(ValueError):
            SharedBufferPool(BlockDevice(block_size=64), coalesce_writes=0)

    def test_rejects_negative_cache(self):
        with pytest.raises(ValueError):
            SharedBufferPool(BlockDevice(block_size=64), cache_blocks=-1)

    def test_attaches_to_device(self):
        device = BlockDevice(block_size=64)
        pool = SharedBufferPool(device)
        assert device.pool is pool


class TestUidKeys:
    def test_uids_are_monotonic_and_never_reused(self):
        device = BlockDevice(block_size=64)
        seen = set()
        for i in range(50):
            f = device.create(f"f{i}", 16)
            assert f.uid not in seen
            seen.add(f.uid)
            device.delete(f"f{i}")
        g = device.create("fresh", 16)
        assert g.uid not in seen

    def test_rename_overwrite_invalidates_cached_target(self):
        """rename(overwrite=True) must not leave the clobbered target's
        blocks in the shared cache, or a later open + read could be
        served the dead file's content."""
        device = BlockDevice(block_size=64)
        pool = SharedBufferPool(device, readahead=2, cache_blocks=32)
        capacity = device.block_size // 16

        old = ExternalFile.from_records(
            device, "target", [(1, 1)] * (3 * capacity), 16
        )
        list(old.scan())  # populate the cache with the doomed content

        replacement = ExternalFile.from_records(
            device, "incoming", [(2, 2)] * (3 * capacity), 16
        )
        device.rename("incoming", "target", overwrite=True)

        reopened = ExternalFile.open(device, "target")
        assert all(r == (2, 2) for r in reopened.scan())
        assert replacement.num_records == 3 * capacity
        # And uid keys keep even a re-created name distinct in the cache.
        assert reopened.num_records == 3 * capacity
        assert pool.cache_blocks > 0

    def test_cache_never_serves_dead_files_after_gc(self):
        """uid-keyed caching: a new DiskFile re-using a dead file's memory
        address must not hit the dead file's cached blocks."""
        import gc

        device = BlockDevice(block_size=64)
        SharedBufferPool(device, readahead=1, cache_blocks=64)
        capacity = device.block_size // 16
        for round_no in range(10):
            f = ExternalFile.from_records(
                device, "scratch", [(round_no, round_no)] * (2 * capacity), 16
            )
            assert all(r == (round_no, round_no) for r in f.scan())
            f.delete()
            del f
            gc.collect()
