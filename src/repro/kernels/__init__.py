"""CPU kernels for the per-record hot loops.

The simulated external-memory model charges I/O per *block*, but the
host-CPU cost of a run is dominated by per-record Python loops.
:mod:`repro.kernels.merge` holds the external sort's one k-way merge: a
window of records per stream, merged a batch at a time by Timsort's C
run-merge.

Every kernel obeys one contract: **bit-for-bit output equality with the
reference** the test suite keeps (:func:`heapq.merge` for the merge).  A
kernel may reorder host work (batching, read-ahead) but never changes an
emitted record or any simulated-I/O counter.
"""

from repro.kernels.merge import MERGE_WINDOW, merge_batches

__all__ = ["MERGE_WINDOW", "merge_batches"]
