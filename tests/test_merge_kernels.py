"""The chunked 2-way merges of :mod:`repro.kernels.merge`.

Each merge must produce exactly the record sequence of the classic
stable two-pointer merge kept here as the reference, ties included.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels

records_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40
)

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_DONE = object()


def _two_pointer_merge(left, right, key=lambda record: record):
    """The classic stable two-pointer merge (ties emit the left stream
    first; like :func:`heapq.merge`, the key is computed once per record):
    the reference the chunked merges must equal record for record."""
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


class TestMergeEquivalence:
    @SETTINGS
    @given(left=records_strategy, right=records_strategy)
    def test_merge_two_unkeyed_identical(self, left, right):
        left.sort()
        right.sort()
        expected = _two_pointer_merge(left, right)
        merged = list(kernels.merge_two_unkeyed(iter(left), iter(right)))
        assert merged == expected

    @SETTINGS
    @given(left=records_strategy, right=records_strategy)
    def test_merge_two_keyed_identical(self, left, right):
        key = lambda r: r[1]  # noqa: E731 - many ties exercise stability
        left.sort(key=key)
        right.sort(key=key)
        expected = _two_pointer_merge(left, right, key)
        merged = list(kernels.merge_two_keyed(iter(left), iter(right), key))
        assert merged == expected

    def test_merge_two_keyed_tie_chunk_boundaries(self):
        # Every record shares one key: the whole merge is one tie run
        # spanning several chunk refills, and the left stream must still
        # drain before the right one.
        key = lambda r: r[0]  # noqa: E731
        left = [(0, "l", i) for i in range(2 * kernels.MERGE_CHUNK + 3)]
        right = [(0, "r", i) for i in range(kernels.MERGE_CHUNK + 9)]
        expected = _two_pointer_merge(left, right, key)
        assert list(kernels.merge_two_keyed(iter(left), iter(right), key)) == expected

    def test_merge_chunk_boundaries_and_ties(self):
        # Force several refill cycles with heavy cross-stream ties: the
        # boundary-retention rule must reproduce ties-left-first exactly.
        left = sorted((i % 5, i % 3) for i in range(3 * kernels.MERGE_CHUNK))
        right = sorted((i % 5, i % 2) for i in range(2 * kernels.MERGE_CHUNK + 7))
        expected = _two_pointer_merge(left, right)
        assert list(kernels.merge_two_unkeyed(iter(left), iter(right))) == expected

    def test_merge_bigint_midstream(self):
        # A record beyond int64 appears mid-stream: the chunked merge
        # compares records as Python objects, so nothing is lost or
        # reordered.
        left = [(i, 0) for i in range(600)] + [(1 << 80, 0)]
        right = [(i, 1) for i in range(500)]
        expected = _two_pointer_merge(left, right)
        assert list(kernels.merge_two_unkeyed(iter(left), iter(right))) == expected
