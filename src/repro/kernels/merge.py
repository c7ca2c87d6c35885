"""The k-way merge kernel of the external sort.

:func:`merge_batches` merges any number of sorted record streams in
*batches*: it buffers a window of at most :data:`MERGE_WINDOW` records per
stream, and each step emits every buffered record that no unread record
can precede.  Let ``bound`` be the smallest key among the windows' last
records and ``j`` the earliest stream whose window ends at ``bound``.
Every unread record has a key ``>= bound``, so the step takes, from each
window, the prefix with key ``< bound``, plus the records equal to
``bound`` from streams ``<= j``.  Stream ``j``'s window empties and is
refilled before the next step.  The batch is the concatenation of the
taken prefixes in stream order, sorted by ``list.sort(key=key)``: Timsort
finds the pre-sorted prefixes and merges them in C, and because the sort
is stable, ties go to the earlier stream, which is :func:`heapq.merge`'s
contract.  The test suite keeps :func:`heapq.merge` as the reference the
kernel must equal record for record.

The window reorders *host* work only: every simulated block is still read
exactly once, in the same scan, so the I/O ledger cannot move, and host
memory stays at about ``k * MERGE_WINDOW`` records.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

__all__ = ["MERGE_WINDOW", "merge_batches"]

Record = Tuple[int, ...]
KeyFn = Callable[[Record], object]

MERGE_WINDOW = 1024
"""Records buffered per stream (a 4,096-record window costs more memory
and merges no faster)."""


def merge_batches(
    streams: Iterable[Iterable[Record]],
    key: Optional[KeyFn] = None,
    window: int = MERGE_WINDOW,
) -> Iterator[List[Record]]:
    """Yield the stable merge of ``streams`` as non-empty sorted batches
    (see the module docstring for the step); ``chain.from_iterable``
    flattens them into the merged record stream in C."""
    sources: List[Iterator[Record]] = []
    buffers: List[List[Record]] = []
    for stream in streams:
        source = iter(stream)
        buffer = list(islice(source, window))
        if buffer:
            sources.append(source)
            buffers.append(buffer)
    while len(buffers) > 1:
        if key is None:
            lasts = [buffer[-1] for buffer in buffers]
        else:
            lasts = [key(buffer[-1]) for buffer in buffers]
        bound = min(lasts)
        j = lasts.index(bound)
        batch: List[Record] = []
        for i, buffer in enumerate(buffers):
            if i == j:
                batch += buffer
                continue
            if i < j:
                cut = bisect_right(buffer, bound, key=key)
            else:
                cut = bisect_left(buffer, bound, key=key)
            if cut:
                batch += buffer[:cut]
                del buffer[:cut]
        batch.sort(key=key)
        yield batch
        buffers[j] = list(islice(sources[j], window))
        if not buffers[j]:
            del buffers[j], sources[j]
    # At most one stream is left, and it is already sorted.
    for source, buffer in zip(sources, buffers):
        while buffer:
            yield buffer
            buffer = list(islice(source, window))
