"""The k-way merge kernel of :mod:`repro.kernels.merge`.

The kernel must produce exactly the record sequence of :func:`heapq.merge`
(ties go to the earlier stream), for any fan-in and window size.  For two
streams the classic stable two-pointer merge is kept as a second
reference.
"""

import heapq
from itertools import chain
from operator import itemgetter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels

records_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40
)
streams_strategy = st.lists(records_strategy, min_size=0, max_size=16)
windows_strategy = st.sampled_from([1, 2, 3, 4, 5, kernels.MERGE_WINDOW])

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_DONE = object()


def _two_pointer_merge(left, right, key=lambda record: record):
    """The classic stable two-pointer merge (ties emit the left stream
    first; like :func:`heapq.merge`, the key is computed once per record):
    the reference the kernel must equal record for record at k=2."""
    left, right = iter(left), iter(right)
    out = []
    l = next(left, _DONE)
    r = next(right, _DONE)
    if l is not _DONE and r is not _DONE:
        lk, rk = key(l), key(r)
        while True:
            if rk < lk:
                out.append(r)
                r = next(right, _DONE)
                if r is _DONE:
                    break
                rk = key(r)
            else:
                out.append(l)
                l = next(left, _DONE)
                if l is _DONE:
                    break
                lk = key(l)
    for pending, stream in ((l, left), (r, right)):
        if pending is not _DONE:
            out.append(pending)
            out.extend(stream)
    return out


def _merge(streams, key=None, window=kernels.MERGE_WINDOW):
    return list(chain.from_iterable(
        kernels.merge_batches([iter(s) for s in streams], key, window)
    ))


def _tagged(streams, key):
    """Sort each stream by ``key`` and tag every record with its stream
    and position, so a tie broken the wrong way shows in the output."""
    return [
        [(*record, index, position)
         for position, record in enumerate(sorted(stream, key=key))]
        for index, stream in enumerate(streams)
    ]


class TestMergeEquivalence:
    @SETTINGS
    @given(left=records_strategy, right=records_strategy)
    def test_two_stream_unkeyed_matches_two_pointer(self, left, right):
        left.sort()
        right.sort()
        expected = _two_pointer_merge(left, right)
        merged = _merge([left, right])
        assert merged == expected

    @SETTINGS
    @given(left=records_strategy, right=records_strategy)
    def test_two_stream_keyed_matches_two_pointer(self, left, right):
        key = lambda r: r[1]  # noqa: E731 - many ties exercise stability
        left.sort(key=key)
        right.sort(key=key)
        expected = _two_pointer_merge(left, right, key)
        merged = _merge([left, right], key)
        assert merged == expected

    def test_two_stream_keyed_tie_window_boundaries(self):
        # Every record shares one key: the whole merge is one tie run
        # spanning several window refills, and the left stream must still
        # drain before the right one.
        key = lambda r: r[0]  # noqa: E731
        left = [(0, "l", i) for i in range(2 * kernels.MERGE_WINDOW + 3)]
        right = [(0, "r", i) for i in range(kernels.MERGE_WINDOW + 9)]
        expected = _two_pointer_merge(left, right, key)
        assert _merge([left, right], key) == expected

    def test_merge_chunk_boundaries_and_ties(self):
        # Force several refill cycles with heavy cross-stream ties: the
        # tie rule must reproduce ties-left-first exactly.
        left = sorted((i % 5, i % 3) for i in range(3 * kernels.MERGE_WINDOW))
        right = sorted((i % 5, i % 2) for i in range(2 * kernels.MERGE_WINDOW + 7))
        expected = _two_pointer_merge(left, right)
        assert _merge([left, right]) == expected

    def test_merge_bigint_midstream(self):
        # A record beyond int64 appears mid-stream: the kernel compares
        # records as Python objects, so nothing is lost or reordered.
        left = [(i, 0) for i in range(600)] + [(1 << 80, 0)]
        right = [(i, 1) for i in range(500)]
        expected = _two_pointer_merge(left, right)
        assert _merge([left, right]) == expected


class TestKWayMerge:
    @SETTINGS
    @given(streams=streams_strategy, window=windows_strategy)
    def test_unkeyed_matches_heapq_merge(self, streams, window):
        streams = [sorted(stream) for stream in streams]
        assert _merge(streams, window=window) == list(heapq.merge(*streams))

    @SETTINGS
    @given(streams=streams_strategy, window=windows_strategy)
    def test_non_injective_key_matches_heapq_merge(self, streams, window):
        # The key sees only field 0 (eight values), so most keys tie
        # across streams; the tags make the tie order visible.
        key = itemgetter(0)
        streams = _tagged(streams, key)
        expected = list(heapq.merge(*streams, key=key))
        assert _merge(streams, key, window) == expected

    @SETTINGS
    @given(streams=streams_strategy, window=windows_strategy)
    def test_batches_are_sorted_and_non_empty(self, streams, window):
        streams = [sorted(stream) for stream in streams]
        batches = list(kernels.merge_batches(streams, None, window))
        assert all(batches)
        assert all(batch == sorted(batch) for batch in batches)

    def test_no_streams_and_empty_streams(self):
        assert _merge([]) == []
        assert _merge([[], [], []]) == []
        assert _merge([[], [(1,), (2,)], []]) == [(1,), (2,)]

    def test_sixteen_streams_across_many_windows(self):
        key = itemgetter(0)
        streams = _tagged(
            [[((i * 7919 + s) % 97,) for i in range(3 * kernels.MERGE_WINDOW + s)]
             for s in range(16)],
            key,
        )
        expected = list(heapq.merge(*streams, key=key))
        assert _merge(streams, key) == expected

    @SETTINGS
    @given(streams=streams_strategy, window=st.integers(1, 5))
    def test_reads_at_most_one_window_ahead(self, streams, window):
        # Host memory stays at about k * window records: after every
        # batch, no stream has been pulled more than one window beyond
        # the records of it already emitted.
        streams = _tagged(streams, None)
        pulled = [0] * len(streams)

        def counting(index, stream):
            for record in stream:
                pulled[index] += 1
                yield record

        emitted = [0] * len(streams)
        sources = [counting(i, s) for i, s in enumerate(streams)]
        for batch in kernels.merge_batches(sources, None, window):
            for record in batch:
                emitted[record[-2]] += 1
            assert all(p - e <= window for p, e in zip(pulled, emitted))
        assert emitted == [len(stream) for stream in streams]
