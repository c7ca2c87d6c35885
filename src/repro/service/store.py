"""The persisted label store the query service serves from.

``build_store`` runs Ext-SCC once and materializes everything the
daemon needs onto a :class:`~repro.io.persistent.PersistentBlockDevice`:

* ``scc-labels`` — ``(node, label)`` records sorted by node (canonical
  min-member labels, the same invariant the whole package pins);
* ``cond-edges`` — the distinct condensation edges ``(label_u,
  label_v)``, sorted;
* ``topo-layers`` — ``(component, layer)`` from
  :func:`~repro.apps.topological.external_topological_sort` over the
  condensation, sorted by component;
* ``service-meta.json`` — graph stats plus the *fence keys* (each
  block's leading id) of both tables, so a serving process can locate
  any key's block without a single bootstrap read.

:class:`LabelStore` opens that directory through the shared read-only
handle registry, attaches :class:`~repro.baselines.node_table.NodeTable`
readers with prefilled fences, builds the boot-time
:class:`~repro.apps.reachability.ReachabilityIndex` over the
condensation (the condensation of a DAG under identity labels is
itself), and exposes the query API the daemon dispatches to.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.apps.reachability import ReachabilityIndex
from repro.apps.topological import external_topological_sort
from repro.baselines.node_table import NodeTable
from repro.constants import EDGE_RECORD_BYTES, SCC_RECORD_BYTES
from repro.core.ext_scc import ExtSCCConfig, compute_sccs
from repro.exceptions import StorageError, UnknownNodeError
from repro.graph.digraph import DiGraph
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import DEFAULT_BLOCK_SIZE
from repro.io.cache import LabelCache
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.persistent import DeviceHandle, PersistentBlockDevice, open_shared
from repro.io.stats import IOStats
from repro.plan.trace import TraceLedger
from repro.service.batch import BatchEngine
from repro.service.session import TenantSession

__all__ = [
    "LabelStore",
    "build_store",
    "META_NAME",
    "LABELS_FILE",
    "COND_EDGES_FILE",
    "TOPO_FILE",
]

META_NAME = "service-meta.json"
LABELS_FILE = "scc-labels"
COND_EDGES_FILE = "cond-edges"
TOPO_FILE = "topo-layers"
SPAN_WINDOW = 1024  # recent flush spans a LabelStore keeps

Edge = Tuple[int, int]


def _fence_keys(device, name: str):
    """Each block's leading key — exact, read back from the blocks."""
    file = ExternalFile.open(device, name)
    return [block[0][0] for block in file.scan_blocks() if block]


def build_store(
    edges: Iterable[Edge],
    directory,
    num_nodes: Optional[int] = None,
    memory_bytes: int = 1 << 20,
    block_size: int = DEFAULT_BLOCK_SIZE,
    config: Optional[ExtSCCConfig] = None,
) -> dict:
    """Compute SCCs and persist the full label store; returns the meta.

    Any previous store in ``directory`` is replaced.
    """
    edges = [(int(u), int(v)) for u, v in edges]
    out = compute_sccs(
        edges,
        num_nodes=num_nodes,
        memory_bytes=memory_bytes,
        block_size=block_size,
        config=config,
    )
    labels = out.result.labels
    memory = MemoryBudget(memory_bytes)
    device = PersistentBlockDevice(directory, block_size=block_size)
    for name in list(device.list_files()):
        device.delete(name)
    label_records = sorted(labels.items())
    ExternalFile.from_records(
        device, LABELS_FILE, label_records, SCC_RECORD_BYTES
    )
    condensation_edges = sorted(
        {(labels[u], labels[v]) for u, v in edges if labels[u] != labels[v]}
    )
    cond_file = ExternalFile.from_records(
        device, COND_EDGES_FILE, condensation_edges, EDGE_RECORD_BYTES
    )
    components = sorted(set(labels.values()))
    node_file = NodeFile.from_ids(
        device, device.temp_name("cond-nodes"), components, memory,
        presorted=True,
    )
    layers = external_topological_sort(
        device, EdgeFile(cond_file), node_file, memory
    )
    # The sort output may be codec-compressed (a var-record store); the
    # serving path needs fixed-width records for block binary search, so
    # re-materialize it plain.
    ExternalFile.from_records(
        device, TOPO_FILE, layers.scan(), SCC_RECORD_BYTES, overwrite=True
    )
    layers.delete()
    node_file.delete()
    # Drop any sort intermediates so the manifest carries exactly the
    # three serving files.
    keep = {LABELS_FILE, COND_EDGES_FILE, TOPO_FILE}
    for name in list(device.list_files()):
        if name not in keep:
            device.delete(name)
    meta = {
        "format": 1,
        "block_size": block_size,
        "num_nodes": len(labels),
        "num_edges": len(edges),
        "num_sccs": len(components),
        "scc_io": out.io.total,
        "fences": {
            LABELS_FILE: _fence_keys(device, LABELS_FILE),
            TOPO_FILE: _fence_keys(device, TOPO_FILE),
        },
    }
    (Path(directory) / META_NAME).write_text(json.dumps(meta, indent=1))
    device.close()
    return meta


class LabelStore:
    """A serving handle over a built store directory.

    Holds one shared read-only device lease, two fence-prefilled node
    tables behind batch engines + label caches, the service-level
    physical I/O ledger, and the boot-time reachability index.

    Args:
        directory: a directory ``build_store`` populated.
        memory_bytes: budget for the tables' buffer pools.
        cache_entries: LRU label-cache capacity per table (0 disables —
            the configuration the batched-vs-random CI gate measures).
        num_labelings / seed: forwarded to the reachability index.
    """

    def __init__(
        self,
        directory,
        memory_bytes: int = 1 << 20,
        cache_entries: int = 4096,
        num_labelings: int = 3,
        seed: int = 0,
    ) -> None:
        self.directory = Path(directory)
        meta_path = self.directory / META_NAME
        if not meta_path.exists():
            raise StorageError(f"no label store at {self.directory} (missing {META_NAME})")
        self.meta = json.loads(meta_path.read_text())
        self.handle: DeviceHandle = open_shared(
            self.directory, self.meta["block_size"]
        )
        self.stats = IOStats()  # the service-level *physical* ledger
        self.reader = self.handle.reader(stats=self.stats)
        memory = MemoryBudget(memory_bytes)
        fences = self.meta.get("fences", {})
        self.labels = NodeTable.open(
            self.reader, LABELS_FILE, memory, fence=fences.get(LABELS_FILE)
        )
        self.topo = NodeTable.open(
            self.reader, TOPO_FILE, memory, fence=fences.get(TOPO_FILE)
        )
        # One span per batch flush for the life of the daemon: keep the
        # recent ones for inspection and running totals for the rest.
        self.trace = TraceLedger(window=SPAN_WINDOW)
        self.label_engine = BatchEngine(
            self.labels, LabelCache(cache_entries), trace=self.trace,
            name="scc-label",
        )
        self.topo_engine = BatchEngine(
            self.topo, LabelCache(cache_entries), trace=self.trace,
            name="topo-order",
        )
        # Reachability over the condensation: one boot-time sequential
        # scan of the (far smaller) condensation edges, then in-memory
        # interval pruning + memoized DFS per query.  Identity labels —
        # a DAG's condensation under them is itself.
        with self.stats.phase("boot"):
            dag_edges = list(
                ExternalFile.open(self.reader, COND_EDGES_FILE).scan()
            )
        linked = set()
        for cu, cv in dag_edges:
            linked.add(cu)
            linked.add(cv)
        self._linked_components = linked
        self._reach = ReachabilityIndex(
            DiGraph(dag_edges, nodes=linked),
            {c: c for c in linked},
            num_labelings=num_labelings,
            seed=seed,
        )
        self._reach_lock = threading.Lock()

    # -- queries (all session-attributed through the engines) -------------

    def lookup_labels(
        self, session: Optional[TenantSession], nodes: Sequence[int]
    ) -> Dict[int, Optional[int]]:
        """SCC label per node (``None`` for nodes the store never saw)."""
        records = self.label_engine.lookup(session, nodes)
        return {
            node: (record[1] if record is not None else None)
            for node, record in records.items()
        }

    def _require_labels(
        self, session: Optional[TenantSession], nodes: Sequence[int]
    ) -> Dict[int, int]:
        labels = self.lookup_labels(session, nodes)
        for node, label in labels.items():
            if label is None:
                raise UnknownNodeError(node)
        return labels  # type: ignore[return-value]

    def same_component(
        self, session: Optional[TenantSession], u: int, v: int
    ) -> bool:
        """Whether ``u`` and ``v`` are strongly connected."""
        labels = self._require_labels(session, [u, v])
        return labels[u] == labels[v]

    def reachable(
        self, session: Optional[TenantSession], u: int, v: int
    ) -> bool:
        """Whether a directed path ``u -> v`` exists."""
        labels = self._require_labels(session, [u, v])
        cu, cv = labels[u], labels[v]
        if cu == cv:
            return True
        if cu not in self._linked_components or cv not in self._linked_components:
            return False  # an isolated component reaches only itself
        with self._reach_lock:  # the index memoizes; guard its caches
            return self._reach.reachable(cu, cv)

    def topo_orders(
        self, session: Optional[TenantSession], nodes: Sequence[int]
    ) -> Dict[int, Optional[Tuple[int, int]]]:
        """``node -> (component, layer)`` — sorting by ``(layer, node)``
        over any answered set is a valid topological order of their
        components; ``None`` for unknown nodes."""
        labels = self.lookup_labels(session, nodes)
        components = sorted(
            {label for label in labels.values() if label is not None}
        )
        layer_records = (
            self.topo_engine.lookup(session, components) if components else {}
        )
        out: Dict[int, Optional[Tuple[int, int]]] = {}
        for node, label in labels.items():
            if label is None:
                out[node] = None
            else:
                record = layer_records.get(label)
                out[node] = (label, record[1] if record is not None else 0)
        return out

    # -- reporting / lifecycle ---------------------------------------------

    def server_stats(self) -> dict:
        """Physical ledger, cache effectiveness, and store metadata."""
        return {
            "store": {
                "directory": str(self.directory),
                "num_nodes": self.meta.get("num_nodes"),
                "num_edges": self.meta.get("num_edges"),
                "num_sccs": self.meta.get("num_sccs"),
                "block_size": self.meta.get("block_size"),
            },
            "physical_io": self.stats.snapshot().to_dict(),
            "scc_label": self.label_engine.hit_rate_report(),
            "topo_order": self.topo_engine.hit_rate_report(),
            "spans": self.trace.recorded,
        }

    def close(self) -> None:
        self.handle.close()

    def __enter__(self) -> "LabelStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
