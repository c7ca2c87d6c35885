"""Configuration for Ext-SCC and Ext-SCC-Op.

The paper evaluates two variants: plain **Ext-SCC** (Algorithms 2–5) and
**Ext-SCC-Op** with every Section VII reduction enabled.  Each reduction is
an independent toggle here so the ablation benchmark can measure them
separately:

* ``trim_type1`` — drop nodes with ``deg_in = 0`` or ``deg_out = 0`` from
  ``V_{i+1}`` (they are singleton SCCs; Lemma 7.1);
* ``type2_reduction`` — skip adding a cover node when the edge's smaller
  endpoint is already covered, tracked in a bounded in-memory table;
* ``dedupe_parallel_edges`` — lazily remove parallel edges while sorting
  ``E_in`` / ``E_out`` in the next iteration;
* ``remove_self_loops`` — drop ``(u, u)`` edges when emitting ``E_add``;
* ``product_operator`` — Definition 7.1's ``deg_in*deg_out``-aware order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional

from repro.constants import SEMI_EXTERNAL_BYTES_PER_NODE

__all__ = ["ExtSCCConfig"]


@dataclass(frozen=True)
class ExtSCCConfig:
    """Tunables of the contract-and-expand pipeline.

    Attributes:
        trim_type1: Type-1 node reduction (Section VII).
        trim_rounds: how many times to cascade Type-1 trimming per
            iteration (extension beyond the paper, which trims once:
            removing a dead-end node can expose new dead ends; each extra
            round costs two semi-join-plus-sort passes over the trimmed
            edge set).  Ignored unless ``trim_type1`` is set.
        type2_reduction: Type-2 node reduction via the bounded table.
        codec: storage codec for every intermediate the pipeline writes —
            sort runs, merge outputs, degree/cover files, per-level SCC
            label files.  ``"gap-varint"`` (default) gap-encodes the sort
            field and varint-encodes the rest; ``"varint"`` skips the gap
            encoding; ``"fixed"`` is the uncompressed ablation,
            byte-identical to the pre-codec pipeline.  A storage-format
            extension beyond the paper; never changes which SCCs are found.
        dedupe_parallel_edges: lazy parallel-edge removal.
        remove_self_loops: drop self-loops when building ``E_add``.
        product_operator: use Definition 7.1 instead of 5.1.
        bytes_per_node: in-memory bytes per node charged to the
            semi-external solver; drives the contraction stop condition
            ``bytes_per_node * |V_i| + B <= M`` (paper: 8).
        type2_table_bytes: memory carved out for the Type-2 table
            (default: the full budget — the table piggybacks on M).
        semi_scc: name of the semi-external solver (see
            :data:`repro.semi_external.SEMI_SCC_SOLVERS`).
        max_iterations: safety cap on contraction iterations; Lemma 5.2
            guarantees progress so this only guards against bugs.
        validate: run extra internal assertions (Lemma 6.2 uniqueness of
            the SCC intersection); useful in tests, off for benchmarks.
        pool_readahead: blocks the shared buffer pool fetches per batch on
            sequential scans (1 disables pool attachment entirely).  The
            pool is counter-neutral: it batches requests without changing
            any :class:`~repro.io.stats.IOStats` counter.
        pool_coalesce_writes: blocks the file layer may buffer before a
            back-to-back flush (1 disables coalescing).
    """

    trim_type1: bool = False
    trim_rounds: int = 1
    type2_reduction: bool = False
    dedupe_parallel_edges: bool = False
    remove_self_loops: bool = False
    product_operator: bool = False
    codec: str = "gap-varint"
    bytes_per_node: int = SEMI_EXTERNAL_BYTES_PER_NODE
    type2_table_bytes: Optional[int] = None
    semi_scc: str = "spanning-tree"
    max_iterations: int = 10_000
    validate: bool = False
    pool_readahead: int = 8
    pool_coalesce_writes: int = 4

    @classmethod
    def baseline(cls, **overrides) -> "ExtSCCConfig":
        """Plain Ext-SCC: Algorithms 2–5 with no Section VII reduction."""
        return cls(**overrides)

    @classmethod
    def optimized(cls, **overrides) -> "ExtSCCConfig":
        """Ext-SCC-Op: every Section VII reduction enabled."""
        base = cls(
            trim_type1=True,
            type2_reduction=True,
            dedupe_parallel_edges=True,
            remove_self_loops=True,
            product_operator=True,
        )
        return replace(base, **overrides) if overrides else base

    def fingerprint(self) -> dict:
        """A JSON-able snapshot of every knob, for checkpoint compatibility.

        A resume under a different configuration (or memory budget) would
        rebuild different contraction levels than the journal describes, so
        :class:`~repro.recovery.checkpoint.CheckpointManager` stores this
        dict in the journal header and refuses to resume on mismatch.
        """
        return asdict(self)

    @property
    def name(self) -> str:
        """Display name matching the paper's legend."""
        all_on = (
            self.trim_type1
            and self.type2_reduction
            and self.dedupe_parallel_edges
            and self.remove_self_loops
            and self.product_operator
        )
        any_on = (
            self.trim_type1
            or self.type2_reduction
            or self.dedupe_parallel_edges
            or self.remove_self_loops
            or self.product_operator
        )
        if all_on:
            return "Ext-SCC-Op"
        if not any_on:
            return "Ext-SCC"
        return "Ext-SCC-custom"
