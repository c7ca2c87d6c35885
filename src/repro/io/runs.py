"""Sorted-run formation for the external merge sort.

A *run* is a sorted :class:`~repro.io.files.ExternalFile` produced during run
formation.  :func:`form_runs_replacement_selection` forms them with
heap-based replacement selection (Knuth TAOCP vol. 3, §5.4.1): records are
pushed through a min-heap of capacity ``M / record_size``; a record whose
key is not less than the last one written continues the *current* run,
otherwise it is earmarked for the next run.  On random input the expected
run length is ``2M``, so ``#runs ≈ m / 2M`` instead of the ``ceil(m / M)``
of the classic load-sort-write pass, and therefore fewer merge passes
``ceil(log_F(#runs))``; on already-sorted input a single run emerges
regardless of ``m``.

Run formation is *stable*: records with equal keys leave it in arrival
order (the heap breaks ties on an arrival sequence number, and a later
arrival is never assigned an earlier run), so the downstream k-way merge —
which breaks ties by run order — reproduces exactly the order the classic
load-sort-write pass produces.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.io.blocks import BlockDevice
from repro.io.codecs import Codec, FixedCodec, CompressedRecordFile, RecordStore
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget

__all__ = [
    "KEY_DST_AUX_SRC",
    "KEY_DST_SRC",
    "KEY_SRC_DST",
    "form_runs_replacement_selection",
    "run_iterator",
]

Record = Tuple[int, ...]
KeyFn = Callable[[Record], object]

# Canonical sort keys that *permute* a record's fields.  A permutation key
# is injective — equal keys imply equal records — so sorts using these
# exact objects (identity, not equality) need no stability machinery:
# any order among records with equal keys is an order among identical
# records and writes identical bytes.  Call sites share these constants
# instead of building fresh ``itemgetter``\ s so the identity check works.
KEY_DST_SRC = itemgetter(1, 0)
"""Sort 2-field edge records by (dst, src)."""
KEY_SRC_DST = itemgetter(0, 1)
"""Sort 2-field edge records by (src, dst) explicitly."""
KEY_DST_AUX_SRC = itemgetter(1, 2, 0)
"""Sort 3-field records by (field 1, field 2, field 0)."""

_INJECTIVE_KEY_ARITY = {KEY_DST_SRC: 2, KEY_SRC_DST: 2, KEY_DST_AUX_SRC: 3}
"""Registered injective keys → the record arity they permute.  Records in
one store are uniform-arity (fixed-width decode derives the field count
from ``record_size``), so checking the first record's arity is enough."""

_KEY_COLUMNS = {KEY_DST_SRC: (1, 0), KEY_SRC_DST: (0, 1), KEY_DST_AUX_SRC: (1, 2, 0)}
"""The registered permutation keys as column priorities (the source of
:data:`_KEY_INVERSE`)."""

_KEY_INVERSE: dict = {}
for _key, _cols in _KEY_COLUMNS.items():
    _inv = [0] * len(_cols)
    for _pos, _col in enumerate(_cols):
        _inv[_col] = _pos
    _KEY_INVERSE[_key] = itemgetter(*_inv)
del _key, _cols, _inv, _pos, _col
"""Inverse permutation per registered key: ``inverse(key(r)) == r``, so a
permuted stream can be mapped back to original records in C."""


def _create_run(
    device: BlockDevice,
    record_size: int,
    codec: Optional[Codec],
    prefix: str,
) -> RecordStore:
    """Open a fresh run file of the kind the codec calls for.

    ``codec=None`` (direct calls outside the sort pipeline) and
    :class:`FixedCodec` both produce a plain fixed-width
    :class:`ExternalFile`, byte-identical to the uncompressed pipeline.
    """
    name = device.temp_name(prefix)
    if codec is None or isinstance(codec, FixedCodec):
        return ExternalFile.create(device, name, record_size)
    return CompressedRecordFile(device, name, record_size, codec)


def form_runs_replacement_selection(
    device: BlockDevice,
    records: Iterable[Record],
    record_size: int,
    memory: MemoryBudget,
    key: Optional[KeyFn] = None,
    prefix: str = "run",
    codec: Optional[Codec] = None,
) -> List[RecordStore]:
    """Form sorted runs with replacement selection.

    The heap holds at most ``memory.record_capacity(record_size)`` records
    — the same footprint as a classic load-sort-write buffer — but the
    runs it emits average twice that length on random input
    (``#runs ≈ m / 2M``).

    Heap entries are ``(run_number, key, seq, record)``: ``run_number``
    keeps next-run records from escaping early, and ``seq`` (the arrival
    index) makes equal keys pop in arrival order, preserving the stability
    contract of the classic load-sort-write pass.

    Returns:
        The list of run files, in run order (possibly empty).
    """
    capacity = max(1, memory.record_capacity(record_size))
    # ``key=None`` (records sort by their own tuples) skips the key call
    # entirely — the record stands in as its own key, which is both the
    # common case and the hot one.
    key_fn: Optional[KeyFn] = key
    source = iter(records)
    fill = list(itertools.islice(source, capacity))
    if not fill:
        return []
    if len(fill) < capacity:
        # The whole input fit in the heap: every record drains as run 0 in
        # (key, arrival) order — exactly what one stable sort produces, so
        # skip the heap (and its decorated entries) entirely and bulk-write
        # the single run.
        fill.sort(key=key_fn)
        out = _create_run(device, record_size, codec, prefix)
        out.extend(fill)
        out.close()
        return [out]
    if key_fn is None or _INJECTIVE_KEY_ARITY.get(key_fn) == len(fill[0]):
        # With the record as its own key — or a registered permutation
        # key — equal keys mean *equal records*, so no arrival tiebreaker
        # is needed: interchanging identical records is unobservable in
        # the output bytes.  Lean entries make every sift cheaper.
        return _replacement_selection_lean(
            device, fill, source, record_size, codec, prefix, key_fn
        )
    heap: List[Tuple[int, object, int, Record]] = [
        (0, key_fn(record), seq, record) for seq, record in enumerate(fill)
    ]
    seq = capacity
    heapq.heapify(heap)

    runs: List[RecordStore] = []
    current_run = 0
    out = _create_run(device, record_size, codec, prefix)
    # Output records are staged in memory-light chunks and emitted through
    # the batch extend path instead of per-record appends; the emission
    # order (and therefore every block cut) is unchanged.
    pending: List[Record] = []
    emit_chunk = 1024
    heapreplace = heapq.heapreplace
    # Input is drained in islice chunks rather than one ``next()`` call per
    # record; reading ahead never changes what the heap sees (the records
    # arrive in the same order), it only trades 1024 generator resumptions
    # for one C-level list fill.
    inbuf: List[Record] = []
    pos = 0
    while heap:
        # Peek instead of pop: when another input record arrives it takes
        # the emitted record's slot via heapreplace (one sift instead of a
        # pop's sift-up plus a push's sift-down).
        run_number, run_key, _, record = heap[0]
        if run_number != current_run:
            if pending:
                out.extend(pending)
                pending = []
            out.close()
            runs.append(out)
            current_run = run_number
            out = _create_run(device, record_size, codec, prefix)
        pending.append(record)
        if len(pending) >= emit_chunk:
            out.extend(pending)
            pending = []
        if pos == len(inbuf):
            inbuf = list(itertools.islice(source, emit_chunk))
            pos = 0
        nxt = inbuf[pos] if inbuf else None
        if nxt is not None:
            pos += 1
        if nxt is None:
            # Input exhausted: the heap's remaining pops arrive in plain
            # ascending entry order, so one stable sort replaces them all.
            heapq.heappop(heap)
            for run_number, run_key, _, record in sorted(heap):
                if run_number != current_run:
                    if pending:
                        out.extend(pending)
                        pending = []
                    out.close()
                    runs.append(out)
                    current_run = run_number
                    out = _create_run(device, record_size, codec, prefix)
                pending.append(record)
                if len(pending) >= emit_chunk:
                    out.extend(pending)
                    pending = []
            break
        nxt_key = key_fn(nxt)
        # An incoming record continues the current run only when it can
        # still be emitted after the record just written.
        target = run_number if not nxt_key < run_key else run_number + 1  # type: ignore[operator]
        heapreplace(heap, (target, nxt_key, seq, nxt))
        seq += 1
    assert out is not None
    if pending:
        out.extend(pending)
    out.close()
    runs.append(out)
    return runs


def _replacement_selection_lean(
    device: BlockDevice,
    fill: List[Record],
    source: Iterator[Record],
    record_size: int,
    codec: Optional[Codec],
    prefix: str,
    key_fn: Optional[KeyFn],
) -> List[RecordStore]:
    """Replacement selection over a sorted live list, without run tags.

    Only reachable when equal keys imply equal records (``key_fn=None``,
    where the record is its own key, or a registered permutation key), so
    any pop order among entries that compare equal writes identical
    bytes.  The current run's candidates sit in a *sorted* list with a
    moving head index: emitting the minimum is an index read, and an
    incoming record that continues the run is placed by one C-level
    :func:`bisect.insort` — about half the comparisons of a heap
    replacement's down-and-up sift.  Records earmarked for the next run
    collect unsorted in a side list that is sorted wholesale when the
    live list drains; the run boundaries are exactly the classic
    formulation's, because the live list empties precisely when every
    buffered record has been earmarked for the next run.  The emitted
    prefix is compacted once per input chunk, so the list's footprint
    stays at the buffer capacity.
    """
    # A registered permutation key reorders a record's own fields, so
    # instead of decorating every record with a ``(key, record)`` pair the
    # whole stream is *permuted into key order* up front (one C-level
    # ``map(key_fn, ...)`` per chunk), the selection loop runs on plain
    # tuples that sort by themselves, and emitted chunks are permuted back
    # (``map(inverse, ...)``) on the way into the run file.  Comparisons
    # and the loop body are exactly the unkeyed ones; the written bytes
    # are identical because ``inverse(key(r)) == r`` record by record.
    inverse = _KEY_INVERSE[key_fn] if key_fn is not None else None
    if key_fn is not None:
        live: List = list(map(key_fn, fill))
        live.sort()
    else:
        fill.sort()
        live = fill
    head = 0

    def emit(out: RecordStore, batch: List[Record]) -> None:
        out.extend(list(map(inverse, batch)) if inverse is not None else batch)

    runs: List[RecordStore] = []
    out = _create_run(device, record_size, codec, prefix)
    pending: List[Record] = []
    emit_chunk = 1024
    insort = bisect.insort
    pending_append = pending.append
    side: List = []
    side_append = side.append
    while True:
        inbuf = list(itertools.islice(source, emit_chunk))
        if not inbuf:
            break
        if key_fn is not None:
            inbuf = list(map(key_fn, inbuf))
        for nxt in inbuf:
            record = live[head]
            head += 1
            pending_append(record)
            if nxt < record:
                side_append(nxt)
                if head == len(live):
                    if pending:
                        emit(out, pending)
                        pending = []
                        pending_append = pending.append
                    out.close()
                    runs.append(out)
                    out = _create_run(device, record_size, codec, prefix)
                    side.sort()
                    live = side
                    head = 0
                    side = []
                    side_append = side.append
            else:
                insort(live, nxt, head)
        if len(pending) >= emit_chunk:
            emit(out, pending)
            pending = []
            pending_append = pending.append
        if head:
            del live[:head]
            head = 0
    # Input exhausted: the live list's remaining records finish the
    # current run already in order, and the side list — everything
    # earmarked for the run after it — drains the same way into a fresh
    # run file.
    pending.extend(live[head:] if head else live)
    if pending:
        emit(out, pending)
    out.close()
    runs.append(out)
    if side:
        out = _create_run(device, record_size, codec, prefix)
        side.sort()
        emit(out, side)
        out.close()
        runs.append(out)
    return runs


def run_iterator(run: RecordStore) -> Iterator[Record]:
    """Stream a run's records sequentially (one buffered block at a time)."""
    return run.scan()
