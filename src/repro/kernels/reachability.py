"""Frontier-propagation kernels for the semi-external solvers.

Every reachability round in the FW-BW family is, at heart, the same
operation: scan the edge file once and OR frontier marks across edges
whose endpoints share an unresolved partition.  Marks stage against the
*block-start* state and apply at each block boundary
(:meth:`ReachabilityKernel.relax_to_fixpoint`,
:meth:`ReachabilityKernel.relax_masks_to_fixpoint`): marks from earlier
blocks are visible to later blocks of the same scan, but the outcome
does not depend on edge order *within* a block — which is exactly the
granularity a bulk boolean-mask OR can reproduce bit-for-bit.

The numpy and scalar implementations of each method are mark-for-mark
identical — same staged bits, same round counts, same ledger — which the
kernel equivalence suite pins on random graphs.

The numpy path decodes each edge block into dense index columns once per
scan (``np.asarray`` + a sorted-id lookup), then stages marks with one
``np.bitwise_or.at`` scatter per direction instead of a Python loop per
edge.  Nothing is cached across scans: every scan re-reads its blocks
through the charged sequential-scan path, so the I/O ledger is untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.kernels import _flags

__all__ = ["ReachabilityKernel", "reachability_kernel", "RESOLVED"]

Record = Tuple[int, ...]
Block = Sequence[Record]

RESOLVED = -1
"""Partition id of a node whose SCC label is final (shared by the FW-BW
family; kept here so the kernels can exclude resolved nodes uniformly)."""


def reachability_kernel(nodes: List[int]) -> "ReachabilityKernel":
    """Build the reachability kernel for a node universe — numpy-backed
    when :func:`repro.kernels.available`, scalar otherwise.  The choice is
    made once per solver run; both produce identical marks."""
    if _flags.available():
        return _NumpyReachability(nodes)
    return _ScalarReachability(nodes)


class ReachabilityKernel:
    """Shared interface of the two implementations (see module docs)."""

    def mark_degrees(
        self,
        blocks: Iterable[Block],
        part: List[int],
        has_in: bytearray,
        has_out: bytearray,
    ) -> None:
        """Trim marking: for every edge inside a live partition, set
        ``has_out`` on the source and ``has_in`` on the target."""
        raise NotImplementedError

    def relax_to_fixpoint(
        self,
        scan_blocks: Callable[[], Iterable[Block]],
        part: List[int],
        active: Set[int],
        fwd: bytearray,
        bwd: bytearray,
    ) -> int:
        """Block-granular relaxation to the reachability fixpoint: repeat
        sequential scans (``scan_blocks()`` opens a fresh charged scan per
        round) until one full scan sets no new bit; marks apply at each
        block boundary.  Returns the number of scans charged."""
        raise NotImplementedError

    def relax_masks_to_fixpoint(
        self,
        scan_blocks: Callable[[], Iterable[Block]],
        part: List[int],
        active: Set[int],
        fwd: List[int],
        bwd: List[int],
    ) -> int:
        """Multi-source variant of :meth:`relax_to_fixpoint`: each node
        carries one bitset *column per source* (an S-bit integer mask),
        and the staged OR merges whole masks, so S frontiers advance in
        every shared scan.  Returns the number of scans charged."""
        raise NotImplementedError


# -- scalar implementation ---------------------------------------------------


class _ScalarReachability(ReachabilityKernel):
    """Pure-Python fallback: fused per-edge loops, staged per block where
    the semantics call for it.  This is the reference the numpy path must
    match bit-for-bit."""

    def __init__(self, nodes: List[int]) -> None:
        self.n = len(nodes)
        self._index: Dict[int, int] = {v: i for i, v in enumerate(nodes)}

    def mark_degrees(self, blocks, part, has_in, has_out):
        index = self._index
        for block in blocks:
            for u, v in block:
                iu = index[u]
                iv = index[v]
                pu = part[iu]
                if pu == RESOLVED or pu != part[iv]:
                    continue
                has_out[iu] = 1
                has_in[iv] = 1

    def relax_to_fixpoint(self, scan_blocks, part, active, fwd, bwd):
        index = self._index
        scans = 0
        changed = True
        while changed:
            changed = False
            scans += 1
            for block in scan_blocks():
                # Stage against block-start bits, apply at the block
                # boundary: sources read the array (unmodified during the
                # block), targets collect in the staging dicts.
                staged_f: Dict[int, int] = {}
                staged_b: Dict[int, int] = {}
                for u, v in block:
                    iu = index[u]
                    iv = index[v]
                    pu = part[iu]
                    if pu == RESOLVED or pu != part[iv] or pu not in active:
                        continue
                    if fwd[iu] and not fwd[iv]:
                        staged_f[iv] = 1
                    if bwd[iv] and not bwd[iu]:
                        staged_b[iu] = 1
                for i in staged_f:
                    if not fwd[i]:
                        fwd[i] = 1
                        changed = True
                for i in staged_b:
                    if not bwd[i]:
                        bwd[i] = 1
                        changed = True
        return scans

    def relax_masks_to_fixpoint(self, scan_blocks, part, active, fwd, bwd):
        index = self._index
        scans = 0
        changed = True
        while changed:
            changed = False
            scans += 1
            for block in scan_blocks():
                staged_f: Dict[int, int] = {}
                staged_b: Dict[int, int] = {}
                for u, v in block:
                    iu = index[u]
                    iv = index[v]
                    pu = part[iu]
                    if pu == RESOLVED or pu != part[iv] or pu not in active:
                        continue
                    m = fwd[iu] & ~fwd[iv]
                    if m:
                        staged_f[iv] = staged_f.get(iv, 0) | m
                    m = bwd[iv] & ~bwd[iu]
                    if m:
                        staged_b[iu] = staged_b.get(iu, 0) | m
                for i, m in staged_f.items():
                    merged = fwd[i] | m
                    if merged != fwd[i]:
                        fwd[i] = merged
                        changed = True
                for i, m in staged_b.items():
                    merged = bwd[i] | m
                    if merged != bwd[i]:
                        bwd[i] = merged
                        changed = True
        return scans


# -- numpy implementation ----------------------------------------------------


class _NumpyReachability(ReachabilityKernel):
    """Vectorized path: one decode per block per scan, bulk boolean-mask
    OR per direction.  Mark-for-mark identical to the scalar kernel."""

    def __init__(self, nodes: List[int]) -> None:
        np = _flags.numpy_module()
        assert np is not None  # guarded by the factory
        self._np = np
        self.n = len(nodes)
        ids = np.asarray(nodes, dtype=np.int64)
        if self.n and bool((ids == np.arange(self.n, dtype=np.int64)).all()):
            # Dense 0..n-1 universe: identity mapping, skip the search.
            self._dense = True
            self._sorted_ids = self._positions = None
        else:
            self._dense = False
            order = np.argsort(ids, kind="stable")
            self._sorted_ids = ids[order]
            self._positions = order

    def _decode(self, block: Block):
        """One block of ``(u, v)`` records → dense index columns."""
        np = self._np
        arr = np.asarray(block, dtype=np.int64)
        if arr.size == 0:
            return None, None
        u = arr[:, 0]
        v = arr[:, 1]
        if self._dense:
            return u, v
        iu = self._positions[np.searchsorted(self._sorted_ids, u)]
        iv = self._positions[np.searchsorted(self._sorted_ids, v)]
        return iu, iv

    def _active_lookup(self, part, active):
        """``part`` as an array plus a partition-id → live? table.  The
        table has one trailing ``False`` slot so ``RESOLVED`` (-1) indexes
        to an always-dead entry."""
        np = self._np
        parr = np.asarray(part, dtype=np.int64)
        size = int(parr.max(initial=0)) + 2
        lookup = np.zeros(size, dtype=bool)
        live = [p for p in active if p < size - 1]
        if live:
            lookup[live] = True
        return parr, lookup

    def _eligible(self, iu, iv, parr, lookup):
        pu = parr[iu]
        mask = (pu == parr[iv]) & lookup[pu]
        return iu[mask], iv[mask]

    def mark_degrees(self, blocks, part, has_in, has_out):
        np = self._np
        parr = np.asarray(part, dtype=np.int64)
        out_np = np.zeros(self.n, dtype=bool)
        in_np = np.zeros(self.n, dtype=bool)
        for block in blocks:
            iu, iv = self._decode(block)
            if iu is None:
                continue
            pu = parr[iu]
            mask = (pu == parr[iv]) & (pu != RESOLVED)
            out_np[iu[mask]] = True
            in_np[iv[mask]] = True
        for i in np.nonzero(out_np)[0].tolist():
            has_out[i] = 1
        for i in np.nonzero(in_np)[0].tolist():
            has_in[i] = 1

    def relax_to_fixpoint(self, scan_blocks, part, active, fwd, bwd):
        np = self._np
        parr, lookup = self._active_lookup(part, active)
        fwd_np = np.frombuffer(bytes(fwd), dtype=np.uint8).copy()
        bwd_np = np.frombuffer(bytes(bwd), dtype=np.uint8).copy()
        scans = 0
        changed = True
        while changed:
            changed = False
            scans += 1
            for block in scan_blocks():
                iu, iv = self._decode(block)
                if iu is None:
                    continue
                iu, iv = self._eligible(iu, iv, parr, lookup)
                # Gather block-start bits, then set the newly-reached
                # targets: reads never see marks from the same block,
                # matching the scalar kernel's staged apply at the block
                # boundary.
                tgt_f = iv[(fwd_np[iu] != 0) & (fwd_np[iv] == 0)]
                tgt_b = iu[(bwd_np[iv] != 0) & (bwd_np[iu] == 0)]
                if tgt_f.size:
                    fwd_np[tgt_f] = 1
                    changed = True
                if tgt_b.size:
                    bwd_np[tgt_b] = 1
                    changed = True
        fwd[:] = fwd_np.tobytes()
        bwd[:] = bwd_np.tobytes()
        return scans

    def relax_masks_to_fixpoint(self, scan_blocks, part, active, fwd, bwd):
        np = self._np
        parr, lookup = self._active_lookup(part, active)
        fwd_np = np.asarray(fwd, dtype=np.uint64)
        bwd_np = np.asarray(bwd, dtype=np.uint64)
        scans = 0
        changed = True
        while changed:
            changed = False
            scans += 1
            for block in scan_blocks():
                iu, iv = self._decode(block)
                if iu is None:
                    continue
                iu, iv = self._eligible(iu, iv, parr, lookup)
                # Bits the source carries that the target lacked at block
                # start; scatter-OR accumulates duplicates of one target.
                cand_f = fwd_np[iu] & ~fwd_np[iv]
                cand_b = bwd_np[iv] & ~bwd_np[iu]
                new_f = cand_f != 0
                new_b = cand_b != 0
                if bool(new_f.any()):
                    np.bitwise_or.at(fwd_np, iv[new_f], cand_f[new_f])
                    changed = True
                if bool(new_b.any()):
                    np.bitwise_or.at(bwd_np, iu[new_b], cand_b[new_b])
                    changed = True
        fwd[:] = [int(m) for m in fwd_np.tolist()]
        bwd[:] = [int(m) for m in bwd_np.tolist()]
        return scans
