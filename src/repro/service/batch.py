"""Batched point-lookup execution: N lookups in O(sorted scan) reads.

Wang et al.'s batched multi-source reachability amortizes many
traversals into shared sequential scans; this module applies the same
idea to the service's point lookups.  Lookups
arriving within one epoch are buffered (:class:`BatchCollector`),
deduplicated against the LRU :class:`~repro.io.cache.LabelCache`, sorted
by block through the node table's in-memory fence keys, and answered
with one block read per *distinct* block in ascending order
(:class:`BatchEngine`) — a partial sorted scan instead of one random
seek per lookup.

Accounting: each session is charged, at admission, for the distinct
blocks *its own* missing keys needed (so an over-budget tenant is
rejected before any I/O happens, without touching other tenants'
entries), while the physical reads — the union of the admitted entries'
blocks — land on the service-level ledger the node table reads through.
Every flush records one PR 5 trace span carrying the block count and
the wall time.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.node_table import NodeTable
from repro.exceptions import IOBudgetExceeded
from repro.io.cache import LabelCache
from repro.plan.trace import Span, TraceLedger
from repro.service.session import TenantSession

__all__ = ["BatchCollector", "BatchEngine"]

Record = Tuple[int, ...]
Entry = Tuple[Optional[TenantSession], Sequence[int]]


class BatchEngine:
    """Executes batches of point lookups against one :class:`NodeTable`.

    Args:
        table: the sorted on-disk table (fence keys ideally prefilled,
            so locating blocks costs no I/O).
        cache: the LRU point cache consulted first; capacity 0 disables.
        trace: optional ledger that receives one span per flush.
        name: label used in span stages (``"scc-label"``).
    """

    def __init__(
        self,
        table: NodeTable,
        cache: LabelCache,
        trace: Optional[TraceLedger] = None,
        name: str = "lookup",
    ) -> None:
        self.table = table
        self.cache = cache
        self.trace = trace
        self.name = name
        self.flushes = 0
        self._lock = threading.Lock()

    def lookup(
        self, session: Optional[TenantSession], nodes: Sequence[int]
    ) -> Dict[int, Optional[Record]]:
        """Answer one entry synchronously (a batch of size one).

        Raises :class:`IOBudgetExceeded` when the session is throttled.
        """
        outcome = self.flush([(session, nodes)])[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def flush(self, entries: Sequence[Entry]) -> List[object]:
        """Execute a batch of entries; one outcome per entry, in order.

        An outcome is either a ``{node: record-or-None}`` dict over the
        entry's (deduplicated) nodes, or the :class:`IOBudgetExceeded`
        the entry's throttled admission raised — a throttled entry never
        blocks the others in the batch.
        """
        with self._lock:
            started = time.perf_counter()
            # Cache pass + per-entry block planning.
            plans = []
            for session, nodes in entries:
                wanted = sorted(set(nodes))
                found: Dict[int, Optional[Record]] = {}
                missing: List[int] = []
                for node in wanted:
                    value = self.cache.get(node)
                    if value is LabelCache.MISSING:
                        missing.append(node)
                    else:
                        found[node] = value  # type: ignore[assignment]
                if missing and self.table.file.num_blocks:
                    blocks = sorted({self.table.block_of(n) for n in missing})
                else:
                    blocks = []
                plans.append([session, found, missing, blocks, None])
            # Admission: charge each session its own distinct blocks
            # before any physical read; a throttled entry drops out here.
            for plan in plans:
                session, _, _, blocks, _ = plan
                if session is None or not blocks:
                    continue
                try:
                    session.admit_read_blocks(
                        len(blocks), sequential=len(blocks) > 1
                    )
                except IOBudgetExceeded as exc:
                    plan[4] = exc
            # Physical reads: the union of the admitted entries' missing
            # keys, one read per distinct block, ascending.
            union_nodes = [
                node for plan in plans if plan[4] is None for node in plan[2]
            ]
            union_blocks = {
                block for plan in plans if plan[4] is None for block in plan[3]
            }
            looked: Dict[int, Optional[Record]] = (
                self.table.get_batch(union_nodes) if union_nodes else {}
            )
            for node, record in looked.items():
                self.cache.put(node, record)
            # Assemble per-entry outcomes.
            outcomes: List[object] = []
            for session, found, missing, _, error in plans:
                if error is not None:
                    outcomes.append(error)
                    continue
                result = dict(found)
                for node in missing:
                    result[node] = looked.get(node)
                if session is not None:
                    session.note_query(len(result), cache_hits=len(found))
                outcomes.append(result)
            self.flushes += 1
            if self.trace is not None:
                reads = len(union_blocks)
                self.trace.record(
                    Span(
                        plan="service",
                        stage=f"{self.name}#{self.flushes}",
                        phase=f"query/{self.name}",
                        predicted_ios=reads,
                        reads=reads,
                        writes=0,
                        random_ios=reads if reads == 1 else 0,
                        records=len(union_nodes),
                        bytes_stored=0,
                        wall_seconds=time.perf_counter() - started,
                    )
                )
            return outcomes

    def hit_rate_report(self) -> dict:
        """Cache effectiveness, surfaced in server stats and traces."""
        return {
            "label_cache_hit_rate": self.cache.hit_rate,
            "label_cache_lookups": self.cache.lookups,
            "table_cache_hit_rate": self.table.cache_hit_rate,
            "batch_block_reads": self.table.batch_block_reads,
            "batch_lookups": self.table.batch_lookups,
            "flushes": self.flushes,
        }


class _Pending:
    __slots__ = ("session", "nodes", "event", "outcome")

    def __init__(self, session: Optional[TenantSession], nodes: Sequence[int]) -> None:
        self.session = session
        self.nodes = nodes
        self.event = threading.Event()
        self.outcome: object = None


class BatchCollector:
    """Epoch buffer in front of a :class:`BatchEngine`.

    Concurrent callers :meth:`submit` lookups and block; a background
    flusher wakes on the first arrival, sleeps one epoch so co-arriving
    requests coalesce, then flushes everything buffered as one batch.
    ``epoch_seconds=0`` degrades to flush-per-wakeup (still coalescing
    whatever queued while a flush was running).
    """

    def __init__(
        self,
        engine: BatchEngine,
        epoch_seconds: float = 0.005,
        max_batch: int = 4096,
    ) -> None:
        self.engine = engine
        self.epoch_seconds = epoch_seconds
        self.max_batch = max_batch
        self._pending: List[_Pending] = []
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name=f"batch-{engine.name}", daemon=True
        )
        self._thread.start()

    def submit(
        self, session: Optional[TenantSession], nodes: Sequence[int]
    ) -> Dict[int, Optional[Record]]:
        """Enqueue one entry and wait for its epoch to flush.

        Raises the entry's own :class:`IOBudgetExceeded` when throttled.
        """
        entry = _Pending(session, list(nodes))
        with self._cond:
            if self._closed:
                raise RuntimeError("batch collector is closed")
            self._pending.append(entry)
            self._cond.notify_all()
        entry.event.wait()
        if isinstance(entry.outcome, Exception):
            raise entry.outcome
        return entry.outcome  # type: ignore[return-value]

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if self._closed and not self._pending:
                    return
            if self.epoch_seconds > 0:
                time.sleep(self.epoch_seconds)
            with self._cond:
                batch = self._pending[: self.max_batch]
                del self._pending[: self.max_batch]
            if batch:
                self._flush(batch)

    def _flush(self, batch: List[_Pending]) -> None:
        try:
            outcomes = self.engine.flush(
                [(entry.session, entry.nodes) for entry in batch]
            )
        except Exception as exc:  # engine bug / storage error: fail all
            outcomes = [exc] * len(batch)
        for entry, outcome in zip(batch, outcomes):
            entry.outcome = outcome
            entry.event.set()

    def close(self) -> None:
        """Stop the flusher after draining anything still buffered."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join()
