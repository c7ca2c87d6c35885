"""Merge kernels for the external-sort inner loops.

The unkeyed and keyed 2-way merges are the most common merge shapes of
:mod:`repro.io.sort` (two runs), and pure record shuffling with no I/O of
their own.  Both run as a chunked concatenate-and-stable-sort merge
(:func:`merge_two_unkeyed`, :func:`merge_two_keyed`): ``sorted`` over two
concatenated pre-sorted chunks hits Timsort's C galloping run-merge,
which measures ~2x faster than a two-pointer loop in the interpreter.

The stability contract is the two-pointer merge's: ties emit the
left/earlier stream first (the stable sorts see the left chunk before the
right chunk).  Chunking reads ahead up to :data:`MERGE_CHUNK` records per
stream, which reorders *host* work only: every simulated block is still
read exactly once, in the same scan, so the I/O ledger cannot move.  The
test suite keeps the two-pointer loops as the reference the chunked
merges must equal, tie streams included.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, List, Tuple

__all__ = [
    "MERGE_CHUNK",
    "merge_two_keyed",
    "merge_two_unkeyed",
]

Record = Tuple[int, ...]
KeyFn = Callable[[Record], object]

MERGE_CHUNK = 4096
"""Records read ahead per stream and merged per chunk step."""


def merge_two_unkeyed(
    left: Iterable[Record], right: Iterable[Record]
) -> Iterator[Record]:
    """Stable unkeyed two-way merge; ties emit the left stream first.

    A record-stream view of :func:`_merge_two_batches`:
    ``chain.from_iterable`` flattens the batches in C — one generator
    resumption per chunk instead of per record, which is worth ~40% of
    the whole merge at :data:`MERGE_CHUNK` scale.
    """
    return chain.from_iterable(_merge_two_batches(iter(left), iter(right)))


def _fill(stream: Iterator[Record]) -> List[Record]:
    return list(islice(stream, MERGE_CHUNK))


def _merge_two_batches(
    left: Iterator[Record], right: Iterator[Record]
) -> Iterator[List[Record]]:
    """Chunked bulk merge via Timsort's galloping run-merge; yields
    *batches* of merged records.

    Each step sorts the concatenation of the live chunks (left first, so
    the stable sort resolves ties left-first — Timsort recognizes the
    two pre-sorted runs and merges them in C with galloping), then emits
    the prefix that can no longer be disturbed and retains the rest as
    the survivor side's live chunk:

    * left chunk exhausted first (``last_l <= last_r``) — emit every
      record ``< last_l`` plus the left records ``== last_l``; right
      records tying ``last_l`` are retained, because a *future* left
      record may still equal them and must win the tie;
    * right chunk exhausted first — emit everything ``<= last_r``
      (a buffered left tie already precedes any future right tie, and
      future right records equal to ``last_r`` follow their buffered
      stream-mates), retain the left records beyond it.

    Both rules reproduce the two-pointer loop's order exactly; the
    equivalence suite pins this on random and adversarial tie streams.
    """
    l_buf = _fill(left)
    r_buf = _fill(right)
    while l_buf and r_buf:
        last_l = l_buf[-1]
        last_r = r_buf[-1]
        merged = l_buf + r_buf
        merged.sort()
        if last_l <= last_r:  # type: ignore[operator]
            cut = bisect_left(merged, last_l) + (
                len(l_buf) - bisect_left(l_buf, last_l)
            )
            r_buf = merged[cut:]
            l_buf = _fill(left)
        else:
            cut = bisect_right(merged, last_r)
            l_buf = merged[cut:]
            r_buf = _fill(right)
        del merged[cut:]  # the retained tail is typically tiny; keep the
        yield merged  # big prefix in place instead of copying it

    # One stream ended with its buffer drained; flush the survivor side
    # in chunks (the other stream is exhausted).
    rest, stream = (l_buf, left) if l_buf else (r_buf, right)
    while rest:
        yield rest
        rest = _fill(stream)


def merge_two_keyed(
    left: Iterable[Record], right: Iterable[Record], key: KeyFn
) -> Iterator[Record]:
    """Stable keyed two-way merge; ties (equal keys) emit the left stream
    first.

    The chunked merge of :func:`merge_two_unkeyed` with every comparison
    routed through ``key`` (``sorted(key=...)`` decorates in C, so a cheap
    key like an ``itemgetter`` never enters the interpreter loop).
    """
    return chain.from_iterable(
        _merge_two_keyed_batches(iter(left), iter(right), key)
    )


def _merge_two_keyed_batches(
    left: Iterator[Record], right: Iterator[Record], key: KeyFn
) -> Iterator[List[Record]]:
    """:func:`_merge_two_batches` with every comparison routed through
    ``key`` — the boundary-retention rules are identical with "record"
    read as "record's key" (ties are *equal keys*, resolved left-first by
    the stable sort)."""
    l_buf = _fill(left)
    r_buf = _fill(right)
    while l_buf and r_buf:
        last_l = key(l_buf[-1])
        last_r = key(r_buf[-1])
        merged = l_buf + r_buf
        merged.sort(key=key)
        if not last_r < last_l:  # type: ignore[operator]
            cut = bisect_left(merged, last_l, key=key) + (
                len(l_buf) - bisect_left(l_buf, last_l, key=key)
            )
            r_buf = merged[cut:]
            l_buf = _fill(left)
        else:
            cut = bisect_right(merged, last_r, key=key)
            l_buf = merged[cut:]
            r_buf = _fill(right)
        del merged[cut:]
        yield merged

    rest, stream = (l_buf, left) if l_buf else (r_buf, right)
    while rest:
        yield rest
        rest = _fill(stream)
