"""CPU kernels for the per-record hot loops.

The simulated external-memory model charges I/O per *block*, but the
host-CPU cost of a run is dominated by per-record Python loops.  This
package holds the replacements for the two that matter:

* :mod:`repro.kernels.reachability` — frontier propagation for the FW-BW
  solver family (single-bit and multi-source bitset-column variants).
  The one place numpy pays (~4x on propagation), so it is the only
  kernel with a numpy path, behind ``REPRO_NUMPY=1``; the pure-Python
  path is its byte-identical fallback.
* :mod:`repro.kernels.merge` — the chunked 2-way merges of the external
  sort (pure Python; Timsort's C run-merge does the bulk work).

This package is also the single home of the ``REPRO_NUMPY`` feature
flag:

* :func:`available` — the flag is set *and* numpy imports.
* :func:`fallback_reason` — why the pure-Python path is running
  (``None`` when the numpy path is active); surfaced by ``scc -v`` and
  the ``--trace-json`` context so a silently-degraded benchmark run is
  visible in its artifacts.
* :func:`set_enabled` — test/bench toggle.

Every kernel obeys one contract: **bit-for-bit output equality with the
two-pointer / per-edge reference loops** the test suite keeps.  A kernel
may reorder host work (chunking, lookahead) but never changes a staged
mark, an emitted record, or any simulated-I/O counter.
"""

from repro.kernels._flags import (
    available,
    fallback_reason,
    numpy_module,
    requested,
    set_enabled,
)
from repro.kernels.merge import (
    MERGE_CHUNK,
    merge_two_keyed,
    merge_two_unkeyed,
)
from repro.kernels.reachability import (
    RESOLVED,
    ReachabilityKernel,
    reachability_kernel,
)

__all__ = [
    "available",
    "fallback_reason",
    "numpy_module",
    "requested",
    "set_enabled",
    "MERGE_CHUNK",
    "merge_two_keyed",
    "merge_two_unkeyed",
    "RESOLVED",
    "ReachabilityKernel",
    "reachability_kernel",
]
