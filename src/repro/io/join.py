"""Merge joins and grouping over sorted record streams.

Algorithms 3–5 of the paper are phrased as sequences of external sorts and
``X ⋈ Y`` merge joins consumed by single sequential scans.  The helpers here
implement that vocabulary:

* :func:`grouped` — stream (key, [records]) groups off a sorted scan;
* :func:`merge_join` — inner join of two sorted streams on their keys;
* :func:`cogroup` — full outer co-grouping of two sorted streams;
* :func:`semi_join` / :func:`anti_join` — keep records whose key is
  (not) present in a sorted key stream, the ``V_{i+1} ⋈ E`` filters.

Groups are buffered in memory one key at a time; in the contraction pipeline
group sizes are node degrees, and Theorem 5.3 bounds the degree of every
node the pipeline groups on by ``sqrt(2|E|)``.
"""

from __future__ import annotations

from itertools import chain, groupby, islice, product
from typing import Callable, Iterable, Iterator, List, Tuple

__all__ = ["grouped", "merge_join", "cogroup", "lookup_join", "semi_join", "anti_join"]

Record = Tuple[int, ...]
KeyFn = Callable[[Record], object]

_SENTINEL = object()


def grouped(records: Iterable[Record], key: KeyFn) -> Iterator[Tuple[object, List[Record]]]:
    """Yield ``(key, group)`` for consecutive equal-key records.

    The input must already be sorted by ``key`` (as after an external sort);
    only one group is held in memory at a time.  :func:`itertools.groupby`
    does the consecutive-equal-key bucketing in C with the same contract
    (``key`` called once per record, groups compared by ``==``).
    """
    for k, group in groupby(records, key):
        yield k, list(group)


def cogroup(
    left: Iterable[Record],
    right: Iterable[Record],
    left_key: KeyFn,
    right_key: KeyFn,
) -> Iterator[Tuple[object, List[Record], List[Record]]]:
    """Full outer co-grouping of two key-sorted streams.

    Yields ``(key, left_group, right_group)`` for every key present in either
    stream, in key order; the missing side is an empty list.  Both streams
    are consumed with a single forward pass each.
    """
    left_groups = grouped(left, left_key)
    right_groups = grouped(right, right_key)
    l = next(left_groups, None)
    r = next(right_groups, None)
    while l is not None or r is not None:
        if r is None or (l is not None and l[0] < r[0]):  # type: ignore[operator]
            yield l[0], l[1], []
            l = next(left_groups, None)
        elif l is None or r[0] < l[0]:  # type: ignore[operator]
            yield r[0], [], r[1]
            r = next(right_groups, None)
        else:
            yield l[0], l[1], r[1]
            l = next(left_groups, None)
            r = next(right_groups, None)


def merge_join(
    left: Iterable[Record],
    right: Iterable[Record],
    left_key: KeyFn,
    right_key: KeyFn,
) -> Iterator[Tuple[Record, Record]]:
    """Inner merge join: yield every (left, right) pair with equal keys.

    The per-pair cross product runs in C (``product`` flattened by
    ``chain.from_iterable``); Python resumes once per matched key, not
    once per pair.
    """
    return chain.from_iterable(
        product(lgroup, rgroup)
        for _, lgroup, rgroup in cogroup(left, right, left_key, right_key)
        if lgroup and rgroup
    )


def lookup_join(
    records: Iterable[Record],
    table: Iterable[Record],
    key: KeyFn,
    table_key: KeyFn,
) -> Iterator[Tuple[Record, Record]]:
    """Inner join of a key-sorted stream against a *unique-key* sorted
    stream; yields ``(record, match)`` pairs in record order.

    The one-match-per-key restriction (which the degree and label files
    satisfy by construction — one record per node) is what
    :func:`merge_join` cannot assume, and what lets this run chunked:
    each :data:`JOIN_CHUNK`-record step probes a dict window of the
    table rows spanning the chunk's keys, so the match loop is one
    listcomp over C-level dict lookups instead of a generator stack of
    per-key groups.  Records without a match are dropped, exactly like
    the inner merge join.  Both streams are consumed in a single forward
    pass (same blocks, same order, same ledger); the resident window is
    the table rows spanned by one record chunk plus one chunk of
    look-ahead.
    """
    return chain.from_iterable(
        _lookup_batches(iter(records), iter(table), key, table_key)
    )


def _lookup_batches(
    records: Iterator[Record],
    table_iter: Iterator[Record],
    key: KeyFn,
    table_key: KeyFn,
) -> Iterator[List[Tuple[Record, Record]]]:
    window: dict = {}
    top = _SENTINEL  # largest table key consumed so far
    exhausted = False
    while True:
        chunk = list(islice(records, JOIN_CHUNK))
        if not chunk:
            return
        ks = list(map(key, chunk))
        hi = ks[-1]
        while not exhausted and (top is _SENTINEL or top < hi):  # type: ignore[operator]
            tchunk = list(islice(table_iter, JOIN_CHUNK))
            if not tchunk:
                exhausted = True
                break
            window.update(zip(map(table_key, tchunk), tchunk))
            top = table_key(tchunk[-1])
        get = window.get
        yield [(r, m) for r, k in zip(chunk, ks) if (m := get(k)) is not None]
        # Later records have keys >= hi; once the window outgrows two
        # chunks, drop the rows that can never match again.
        if len(window) > 2 * JOIN_CHUNK:
            window = {k: v for k, v in window.items() if not k < hi}  # type: ignore[operator]


def semi_join(
    records: Iterable[Record],
    keys: Iterable[object],
    key: KeyFn,
) -> Iterator[Record]:
    """Keep records whose ``key`` appears in the sorted ``keys`` stream.

    Both inputs must be sorted; this is the single-scan filter the paper
    writes as ``V_{i+1} ⋈ E``.
    """
    return _membership_join(records, keys, key, keep_present=True)


def anti_join(
    records: Iterable[Record],
    keys: Iterable[object],
    key: KeyFn,
) -> Iterator[Record]:
    """Keep records whose ``key`` does NOT appear in the sorted ``keys``.

    This selects the edges incident to *removed* nodes (``v ∉ V_{i+1}``).
    """
    return _membership_join(records, keys, key, keep_present=False)


JOIN_CHUNK = 1024
"""Records (and keys) consumed per membership-join step."""


def _membership_join(
    records: Iterable[Record],
    keys: Iterable[object],
    key: KeyFn,
    keep_present: bool,
) -> Iterator[Record]:
    """Chunked membership filter over two key-sorted streams.

    Because both streams are sorted, a record matches iff its key occurs
    in ``keys`` at all, so each :data:`JOIN_CHUNK`-record step tests its
    chunk against a hash set of the key chunks overlapping the chunk's
    key span — the filter itself is one listcomp over C-level set
    lookups instead of a per-record two-pointer walk.  Both streams are
    still consumed in a single forward pass (every block read once,
    sequentially, same ledger); like the merge kernel's
    :data:`~repro.kernels.merge.MERGE_WINDOW` read-ahead, chunking
    reorders *host* work only.  Key chunks are dropped from the window
    as soon as the record frontier passes them, so the resident window
    is the keys spanned by one record chunk plus one chunk of
    look-ahead.
    """
    return chain.from_iterable(
        _membership_batches(iter(records), iter(keys), key, keep_present)
    )


def _membership_batches(
    records: Iterator[Record],
    key_iter: Iterator[object],
    key: KeyFn,
    keep_present: bool,
) -> Iterator[List[Record]]:
    windows: List[List[object]] = []  # key chunks overlapping the frontier
    present: set = set()
    top = _SENTINEL  # largest key consumed so far
    exhausted = False
    while True:
        chunk = list(islice(records, JOIN_CHUNK))
        if not chunk:
            return
        ks = list(map(key, chunk))
        hi = ks[-1]
        while not exhausted and (top is _SENTINEL or top < hi):  # type: ignore[operator]
            kchunk = list(islice(key_iter, JOIN_CHUNK))
            if not kchunk:
                exhausted = True
                break
            windows.append(kchunk)
            present.update(kchunk)
            top = kchunk[-1]
        if keep_present:
            yield [r for r, k in zip(chunk, ks) if k in present]
        else:
            yield [r for r, k in zip(chunk, ks) if k not in present]
        # Later records have keys >= hi, so key chunks topping out below
        # hi can never match again; drop them and rebuild the set.
        if len(windows) > 1:
            live = [w for w in windows if not w[-1] < hi]  # type: ignore[operator]
            if len(live) < len(windows):
                windows = live
                present = set()
                for w in live:
                    present.update(w)
