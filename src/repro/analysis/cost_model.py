"""Analytic I/O cost model (the paper's Theorems 5.1, 5.2 and 6.1).

The paper states per-phase I/O complexities:

* Get-V (Thm 5.1):      O(sort(|E_i|) + sort(|V_i|))
* Get-E (Thm 5.2):      O(sort(|E_i|) + scan(|V_{i+1}|) + scan(|E_{i+1}|))
* Expansion (Thm 6.1):  O(scan(|V_{i+1}|) + sort(|E_i|) + sort(|V_i|))

:class:`CostModel` turns those statements into concrete block counts for
this implementation (each O(·) expanded into the actual number of sorts
and scans the pipeline performs), so a benchmark can check the *measured*
ledger against the *predicted* cost — the closest an implementation can
get to "reproducing a theorem".

The constants below mirror `repro.core`: e.g. one contraction iteration
sorts the edge file twice for ``E_in``/``E_out``, once for ``E_d``, once
for the cover, once for ``E_pre``, and scans everything it sorts.  Sorts
whose final merge streams into the next operator (the fused boundaries in
``contraction.py`` / ``expansion.py``) are modelled by
:meth:`CostModel.sort_streamed`, which charges no output write; run counts
assume replacement-selection formation (``#runs ≈ m / 2M``).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional

from repro.constants import (
    AUGMENTED_EDGE_BYTES,
    EDGE_RECORD_BYTES,
    NODE_RECORD_BYTES,
    SCC_RECORD_BYTES,
)
from repro.core.ext_scc import IterationRecord

__all__ = ["CostModel"]


class CostModel:
    """Block-level cost predictions under the Aggarwal–Vitter model.

    Args:
        block_size: the device's ``B`` in bytes.
        memory_bytes: the budget ``M`` (drives sort fan-in and run count).
        bytes_per_record: measured *stored* bytes per record, keyed by the
            logical record width — what the compressed pipeline actually
            paid per record of each stream class.  Calibrate it from a run's
            ledger (``{w: stored / records for w, (records, stored) in
            device.stats.bytes_by_width.items()}``); widths without an
            entry fall back to their logical size (the fixed ablation).
            Disk-resident quantities (:meth:`blocks`, scans, merge passes)
            then use the stored width, while in-memory quantities (run
            lengths, fan-in) keep the logical width — the heap holds
            uncompressed tuples.
    """

    def __init__(
        self,
        block_size: int,
        memory_bytes: int,
        bytes_per_record: Optional[Mapping[int, float]] = None,
    ) -> None:
        self.block_size = block_size
        self.memory_bytes = memory_bytes
        self.bytes_per_record = dict(bytes_per_record) if bytes_per_record else {}

    # -- primitives ----------------------------------------------------------

    def stored_width(self, record_size: int) -> float:
        """Effective on-disk bytes per record of this logical width."""
        return self.bytes_per_record.get(record_size, record_size)

    def blocks(self, records: int, record_size: int) -> int:
        """Blocks occupied by ``records`` records (at the stored width)."""
        return math.ceil(max(0, records) * self.stored_width(record_size) / self.block_size)

    def scan(self, records: int, record_size: int) -> int:
        """``scan(m)``: one sequential pass."""
        return self.blocks(records, record_size)

    def expected_runs(self, records: int, record_size: int) -> int:
        """Expected initial run count under replacement selection.

        Runs average ``2M`` records on random input (Knuth §5.4.1), so
        ``#runs ≈ ceil(m / 2M)`` — half the classic ``ceil(m / M)`` — and
        anything that fits in memory is one run.
        """
        run_records = max(1, self.memory_bytes // record_size)
        if records <= run_records:
            return 1
        return max(2, math.ceil(records / (2 * run_records)))

    def sort(self, records: int, record_size: int) -> int:
        """``sort(m)``: run formation writes + merge passes (reads+writes).

        Matches :func:`repro.io.sort.external_sort_records` with
        replacement-selection run formation: expected ``m / 2M`` runs,
        merge fan-in ``M/B - 1``, one final merge producing the output
        file — except the single-run case, where the run file is renamed
        into the output and the final merge costs nothing.
        """
        if records <= 0:
            return 0
        nblocks = self.blocks(records, record_size)
        runs = self.expected_runs(records, record_size)
        if runs == 1:
            # single-run shortcut: formation writes, then a free rename.
            return nblocks
        fan_in = max(2, self.memory_bytes // self.block_size - 1)
        levels = math.ceil(math.log(runs, fan_in)) or 1
        # run formation writes + each level reads and writes every block.
        return (1 + 2 * levels) * nblocks

    def sort_streamed(self, records: int, record_size: int) -> int:
        """``sort(m)`` when the final merge streams into a consumer
        (:func:`repro.io.sort.external_sort_stream`): the output is never
        written, so a fused boundary costs one read of the run files in
        place of a write + later re-read of a materialized result.
        """
        if records <= 0:
            return 0
        nblocks = self.blocks(records, record_size)
        runs = self.expected_runs(records, record_size)
        fan_in = max(2, self.memory_bytes // self.block_size - 1)
        levels = 1 if runs <= 1 else (math.ceil(math.log(runs, fan_in)) or 1)
        # formation writes + intermediate passes + the final streaming read.
        return (2 * levels) * nblocks

    # -- pipeline phases -------------------------------------------------------

    def get_v(self, num_nodes: int, num_edges: int,
              product_operator: bool = False) -> int:
        """Theorem 5.1 instantiated: Get-V's sorts and scans."""
        e, v = num_edges, num_nodes
        ed_width = EDGE_RECORD_BYTES + (8 if product_operator else 4)
        cost = 2 * self.sort(e, EDGE_RECORD_BYTES)        # E_in, E_out
        cost += 2 * self.scan(e, EDGE_RECORD_BYTES)       # degree co-scan
        cost += self.scan(v, 12 if product_operator else 8)  # V_d write
        cost += self.scan(e, ed_width)                    # E_d build
        cost += self.sort_streamed(e, ed_width)           # E_d resort (fused)
        cost += self.sort(e, NODE_RECORD_BYTES)           # cover sort+dedupe
        return cost

    def get_e(self, num_edges: int, next_nodes: int, next_edges: int) -> int:
        """Theorem 5.2 instantiated: Get-E's joins and the E_pre sort."""
        cost = 2 * self.scan(num_edges, EDGE_RECORD_BYTES)   # E_del co-scans
        cost += self.sort_streamed(num_edges, EDGE_RECORD_BYTES)  # E_pre (fused)
        cost += self.scan(next_nodes, NODE_RECORD_BYTES)     # cover scans
        cost += self.scan(next_edges, EDGE_RECORD_BYTES)     # E_{i+1} write
        return cost

    def contraction_iteration(self, record: IterationRecord,
                              product_operator: bool = False) -> int:
        """Predicted blocks for one full contraction iteration."""
        return (
            self.get_v(record.num_nodes, record.num_edges, product_operator)
            + self.get_e(record.num_edges, record.next_num_nodes,
                         record.next_num_edges)
        )

    def expansion_iteration(self, record: IterationRecord) -> int:
        """Theorem 6.1 instantiated: two augments + the label merge."""
        e, v = record.num_edges, record.num_nodes
        per_augment = (
            self.sort_streamed(e, EDGE_RECORD_BYTES)   # by destination (fused)
            + self.sort_streamed(e, EDGE_RECORD_BYTES) # by source (fused)
            + self.scan(v, SCC_RECORD_BYTES)           # label merge join
            + self.sort(e, AUGMENTED_EDGE_BYTES)       # (v, SCC, u) grouping
        )
        # The reverse-graph augment flips edges in-flight; no reversed copy.
        labels = 2 * self.scan(v, SCC_RECORD_BYTES)  # SCC_del + merged SCC_i
        return 2 * per_augment + labels

    def semi_scc(self, num_edges: int, passes: int) -> int:
        """Semi-SCC: ``passes`` sequential scans of the edge file plus the
        label write-back."""
        return passes * self.scan(num_edges, EDGE_RECORD_BYTES)

    def ext_scc(
        self,
        iterations: Iterable[IterationRecord],
        semi_passes: int = 3,
        product_operator: bool = False,
    ) -> int:
        """Predicted total for a whole Ext-SCC run, given the measured
        per-iteration graph sizes (the sizes are data-dependent; the I/O
        per size is what the model predicts)."""
        records = list(iterations)
        total = 0
        final_edges = 0
        for record in records:
            total += self.contraction_iteration(record, product_operator)
            total += self.expansion_iteration(record)
            final_edges = record.next_num_edges
        total += self.semi_scc(final_edges, semi_passes)
        return total
