"""CPU kernels for the per-record hot loops.

The simulated external-memory model charges I/O per *block*, but the
host-CPU cost of a run is dominated by per-record Python loops.
:mod:`repro.kernels.merge` holds the chunked 2-way merges of the external
sort (pure Python; Timsort's C run-merge does the bulk work).

Every kernel obeys one contract: **bit-for-bit output equality with the
two-pointer reference loops** the test suite keeps.  A kernel may reorder
host work (chunking, lookahead) but never changes an emitted record or
any simulated-I/O counter.
"""

from repro.kernels.merge import (
    MERGE_CHUNK,
    merge_two_keyed,
    merge_two_unkeyed,
)

__all__ = [
    "MERGE_CHUNK",
    "merge_two_keyed",
    "merge_two_unkeyed",
]
