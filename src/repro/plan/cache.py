"""A persistent plan cache for service-style repeated queries.

Planning is cheap but not free — the autotuner prices the full knob
cross-product (codec × workers × executor × solver) before every run.
A service answering repeated SCC queries over the same graph should pay
that once: :class:`PlanCache` memoizes tuning decisions keyed by
(graph-stats fingerprint, memory budget, block size, config fingerprint,
calibration version, objective).  A hit skips the search entirely — and,
because stored payloads round-trip through JSON exactly, replays a
decision *byte-identical* to the one a fresh search would record, so
warm runs execute the same plans as cold ones.

The cache optionally persists as versioned JSON (``save``/``load`` via
the constructor's ``path``), with the same graceful fallback discipline
as :class:`~repro.analysis.calibration.CalibrationProfile`: an
unreadable or schema-incompatible file starts empty instead of raising.
Hit/miss counters are surfaced in traces and bench JSON.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from collections import OrderedDict
from typing import Dict, Optional

__all__ = ["PlanCache", "PLAN_CACHE_SCHEMA_VERSION"]

PLAN_CACHE_SCHEMA_VERSION = 2
"""Version of the persisted JSON; a file of any other version loads empty.
Version 2 dropped the ``processes`` executor and the ``coloring`` /
``parallel-fw-bw`` solvers from the knob grid.  The cache key does not
name the grid, so a version-1 file could replay a decision naming one."""


class PlanCache:
    """An LRU cache of serialized tuning decisions.

    Args:
        path: optional JSON file to load from now and :meth:`save` to
            later (missing or incompatible files start empty).
        max_entries: LRU bound; the least-recently-used entry is evicted
            past it.
    """

    def __init__(self, path: Optional[str] = None,
                 max_entries: int = 256) -> None:
        self.path = path
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        if path is not None:
            self._load(path)

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def make_key(
        num_nodes: int,
        num_edges: int,
        memory_bytes: int,
        block_size: int,
        config_fingerprint: dict,
        calibration_version: str,
        objective: str,
    ) -> str:
        """Deterministic cache key over everything the search depends on.

        The graph enters as its stats fingerprint (|V|, |E|) — the search
        prices sizes, not contents — and the calibration version makes any
        newly ingested measurement invalidate plans priced under the old
        constants.
        """
        canonical = json.dumps(
            {
                "nodes": num_nodes,
                "edges": num_edges,
                "memory": memory_bytes,
                "block": block_size,
                "config": config_fingerprint,
                "calibration": calibration_version,
                "objective": objective,
            },
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]

    def lookup(self, key: str) -> Optional[dict]:
        """The stored payload for ``key`` (a deep copy, so callers cannot
        mutate the cache), counting the hit or miss."""
        payload = self._entries.get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return copy.deepcopy(payload)

    def store(self, key: str, payload: dict) -> None:
        """Insert (or refresh) an entry, evicting LRU past the bound."""
        self._entries[key] = copy.deepcopy(payload)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        """Counters for traces and bench JSON."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}

    # -- persistence ---------------------------------------------------------

    def _load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="ascii") as f:
                payload = json.load(f)
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict) or \
                payload.get("schema") != PLAN_CACHE_SCHEMA_VERSION:
            return
        entries = payload.get("entries")
        if isinstance(entries, dict):
            for key, value in entries.items():
                if isinstance(key, str) and isinstance(value, dict):
                    self._entries[key] = value

    def save(self, path: Optional[str] = None) -> None:
        """Persist the entries as versioned JSON (atomic rename)."""
        target = path or self.path
        if target is None:
            raise ValueError("no path given to PlanCache.save")
        payload = {
            "schema": PLAN_CACHE_SCHEMA_VERSION,
            "entries": dict(self._entries),
        }
        tmp = f"{target}.tmp"
        with open(tmp, "w", encoding="ascii") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
        os.replace(tmp, target)
