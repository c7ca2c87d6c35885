"""External merge sort under a memory budget, with a streaming interface.

This is the ``sort(m)`` primitive of the paper's I/O model: run formation
reads and writes every block once; each merge pass reads and writes every
block once; the number of passes is ``ceil(log_F(#runs))`` where the fan-in
``F`` is bounded by the number of blocks that fit in memory minus one output
buffer.  All accesses are sequential, matching
``sort(m) = Theta(m/B * log_{M/B}(m/B))``.

Two constant-factor levers on top of the textbook algorithm:

* Run formation uses **replacement selection**
  (:func:`repro.io.runs.form_runs_replacement_selection`), so an input of
  ``m`` records forms ``≈ m / 2M`` runs instead of ``m / M`` — fewer runs
  means fewer merge passes and more sorts that finish as a single run.
* :func:`external_sort_stream` exposes the *final merge as an iterator*
  instead of materializing it, so a downstream operator (a merge join, a
  semi-join filter, another sort's run formation) can consume sorted output
  directly.  The merge is handed out in batches that ``chain`` flattens in
  C, so the consumer pulls records without resuming a generator.  Every
  fused boundary eliminates one full write pass and one full read pass
  over the stream — the pipelining the tentpole operators in
  ``repro.core`` are built on.  :func:`external_sort_records` is the
  materializing wrapper; when run formation yields a single run (input
  ``≲ 2M``) it renames the run into place instead of copying it, saving
  another read+write pass.

Every merge, whatever its fan-in, is the one k-way kernel
:func:`repro.kernels.merge_batches`: a window of records per run, merged
a batch at a time by Timsort, with ties going to the earlier run.

Merge passes are reported to the device's :class:`~repro.io.stats.IOStats`
(``stats.merge_passes`` / ``stats.runs_formed``) so benchmarks can verify
the replacement-selection claim directly.

Both ends of the sort ride the *batch record path*: run formation stages
its output in chunks, and merge output streams into
``RecordStore.extend``, which materializes generator input
``BATCH_CHUNK`` records at a time and hands each slice to the
block-granularity codec encoders (:mod:`repro.io.codecs`).  The batching
is purely a host-CPU optimization — block cuts, codec chains, and every
ledger counter are identical to per-record appends, which is what the
batch-path equivalence suite pins down against a per-record reference
encoder.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from repro.io.blocks import BlockDevice
from repro.io.codecs import Codec, RecordStore, record_file_from_records, resolve_codec
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.runs import (
    KEY_DST_AUX_SRC,
    KEY_DST_SRC,
    KEY_SRC_DST,
    form_runs_replacement_selection,
)
from repro.kernels import merge_batches

__all__ = [
    "KEY_DST_AUX_SRC",
    "KEY_DST_SRC",
    "KEY_SRC_DST",
    "external_sort",
    "external_sort_records",
    "external_sort_stream",
    "merge_runs",
    "sorted_unique_scan",
]

Record = Tuple[int, ...]
KeyFn = Callable[[Record], object]


def external_sort(
    infile: RecordStore,
    memory: MemoryBudget,
    key: Optional[KeyFn] = None,
    unique: bool = False,
    out_name: Optional[str] = None,
    delete_input: bool = False,
    codec: Union[None, str, Codec] = None,
    sort_field: Optional[int] = None,
) -> RecordStore:
    """Sort a record file into a new file.

    Args:
        infile: closed input file (fixed-width or compressed).
        memory: memory budget governing run size and merge fan-in.
        key: sort key (default: the record tuple itself).
        unique: drop duplicate *records* (exact tuple equality) during the
            final merge — used for node files and lazy parallel-edge removal.
        out_name: name for the output file (a temp name when omitted).
        delete_input: delete ``infile`` once the sorted copy exists.
        codec: storage codec for runs, merge outputs, and the result
            (``None``: the device default, then the module default).
        sort_field: index of the record field that is non-decreasing under
            ``key`` — the gap-encoded field.  Defaults to 0 when ``key`` is
            ``None`` (records sort by their own tuples); with a custom key
            and no hint, gap encoding degrades to plain varints.

    Returns:
        A new sorted (optionally deduplicated) file on the same device.
    """
    device = infile.device
    result = external_sort_records(
        device,
        infile.scan(),
        record_size=infile.record_size,
        memory=memory,
        key=key,
        unique=unique,
        out_name=out_name,
        codec=codec,
        sort_field=sort_field,
    )
    if delete_input:
        infile.delete()
    return result


def _form_and_reduce_runs(
    device: BlockDevice,
    records: Iterable[Record],
    record_size: int,
    memory: MemoryBudget,
    key: Optional[KeyFn],
    codec: Union[None, str, Codec] = None,
    sort_field: Optional[int] = None,
) -> Tuple[List[RecordStore], Codec]:
    """Run formation plus intermediate merge passes down to one merge's
    worth of runs; shared by the streaming and materializing sorts.

    The codec is resolved here, once per sort: runs, intermediate merge
    outputs, and (in the materializing wrapper) the final file all share
    it.  With ``key=None`` records sort by their own tuples, so field 0 is
    the non-decreasing gap field unless the caller says otherwise.
    """
    memory.validate_against_block(device.block_size)
    if sort_field is None and key is None:
        sort_field = 0
    resolved = resolve_codec(codec, record_size, sort_field, device=device)
    runs = form_runs_replacement_selection(
        device, records, record_size, memory, key=key, codec=resolved
    )
    device.stats.record_runs_formed(len(runs))
    fan_in = max(2, memory.block_capacity(device.block_size) - 1)
    while len(runs) > fan_in:
        runs = _merge_pass(device, runs, record_size, fan_in, key, resolved)
    return runs, resolved


class _SortedStream(chain):
    """The final merge of :func:`external_sort_stream`, flattened from
    batches by ``chain``; :meth:`close` closes the batch generator, which
    deletes the runs."""

    __slots__ = ("_batches",)

    def close(self) -> None:
        self._batches.close()


def external_sort_stream(
    device: BlockDevice,
    records: Iterable[Record],
    record_size: int,
    memory: MemoryBudget,
    key: Optional[KeyFn] = None,
    unique: bool = False,
    codec: Union[None, str, Codec] = None,
    sort_field: Optional[int] = None,
) -> Iterator[Record]:
    """Sort a record stream and *yield* the result instead of writing it.

    The producer side of operator fusion: run formation and any
    intermediate merge passes happen eagerly on first ``next()``, then the
    final merge streams records straight to the consumer.  Compared to
    ``external_sort_records`` + ``scan()``, the fused boundary saves one
    sequential write pass and one sequential read pass over the data.

    Run files are deleted when the stream is exhausted or closed, so
    abandoning the iterator early does not leak simulated disk space.
    """
    batches = _sorted_batches(
        device, records, record_size, memory, key, unique, codec, sort_field
    )
    stream = _SortedStream.from_iterable(batches)
    stream._batches = batches
    return stream


def _sorted_batches(
    device: BlockDevice,
    records: Iterable[Record],
    record_size: int,
    memory: MemoryBudget,
    key: Optional[KeyFn],
    unique: bool,
    codec: Union[None, str, Codec],
    sort_field: Optional[int],
) -> Iterator[List[Record]]:
    """The batches behind :func:`external_sort_stream`.  With ``unique``,
    each batch is deduplicated in C and a record that repeats the previous
    batch's last record is dropped."""
    runs, _ = _form_and_reduce_runs(
        device, records, record_size, memory, key, codec, sort_field
    )
    if not runs:
        return
    try:
        if len(runs) > 1:
            device.stats.record_merge_pass()
        batches = merge_batches([run.scan() for run in runs], key)
        if not unique:
            yield from batches
            return
        last = None
        for batch in batches:
            batch = list(sorted_unique_scan(batch))
            if batch[0] == last:
                del batch[0]
            if batch:
                last = batch[-1]
                yield batch
    finally:
        for run in runs:
            if device.exists(run.name):
                run.delete()


def external_sort_records(
    device: BlockDevice,
    records: Iterable[Record],
    record_size: int,
    memory: MemoryBudget,
    key: Optional[KeyFn] = None,
    unique: bool = False,
    out_name: Optional[str] = None,
    codec: Union[None, str, Codec] = None,
    sort_field: Optional[int] = None,
) -> RecordStore:
    """Sort a record stream into a new file (see :func:`external_sort`)."""
    runs, resolved = _form_and_reduce_runs(
        device, records, record_size, memory, key, codec, sort_field
    )
    out_name = out_name if out_name is not None else device.temp_name("sorted")
    if not runs:
        return record_file_from_records(
            device, out_name, [], record_size, codec=resolved
        )
    if len(runs) == 1 and not unique:
        # A single run already *is* the sorted output — rename it into
        # place instead of copying (saves one read+write pass).
        run = runs[0]
        if device.exists(out_name):
            device.delete(out_name)
        run.rename(out_name)
        return run
    device.stats.record_merge_pass()
    merged = merge_runs((run.scan() for run in runs), key=key)
    if unique:
        merged = sorted_unique_scan(merged)
    result = record_file_from_records(
        device, out_name, merged, record_size, codec=resolved, overwrite=True
    )
    for run in runs:
        run.delete()
    return result


def _merge_pass(
    device: BlockDevice,
    runs: List[RecordStore],
    record_size: int,
    fan_in: int,
    key: Optional[KeyFn],
    codec: Codec,
) -> List[RecordStore]:
    """Merge groups of ``fan_in`` runs into longer runs (one full pass).

    The groups are independent (disjoint inputs, separate outputs) and
    merge one after another.
    """
    device.stats.record_merge_pass()

    def merge_group(group: List[RecordStore]) -> RecordStore:
        merged = merge_runs((run.scan() for run in group), key=key)
        out = record_file_from_records(
            device, device.temp_name("merge"), merged, record_size, codec=codec
        )
        for run in group:
            run.delete()
        return out

    return [
        merge_group(runs[start : start + fan_in])
        for start in range(0, len(runs), fan_in)
    ]


def merge_runs(
    streams: Iterable[Iterator[Record]], key: Optional[KeyFn] = None
) -> Iterator[Record]:
    """Stable k-way merge of sorted record streams: on a tie the *earlier*
    stream wins, exactly :func:`heapq.merge`'s contract.

    One stream needs no merge; every fan-in of two or more runs through
    the chunked kernel :func:`repro.kernels.merge_batches`, flattened in
    C.
    """
    streams = list(streams)
    if len(streams) == 1:
        return iter(streams[0])
    return chain.from_iterable(merge_batches(streams, key))


def sorted_unique_scan(records: Iterable[Record]) -> Iterator[Record]:
    """Drop exact-duplicate neighbors from an already-sorted stream.

    ``groupby`` with no key function buckets consecutive ``==`` records
    and hands back each run's first element as the group key, so the
    whole dedup pipeline (comparisons and skipping) runs in C — Python
    resumes once per *unique* record, not once per record.
    """
    return map(itemgetter(0), groupby(records))
