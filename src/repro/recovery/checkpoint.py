"""Crash-consistent checkpointing for the Ext-SCC pipeline.

The pipeline's own structure supplies the checkpoint boundaries: every
``contract-i`` materializes the next level's files, the semi-external solve
materializes the top-level labels, and every ``expand-i`` materializes the
next label file.  :class:`CheckpointManager` journals each boundary — the
names, sizes, and checksums of the files that phase leaves behind — into
the device's ``checkpoint_journal`` (persisted inside the manifest on a
:class:`~repro.io.persistent.PersistentBlockDevice`), following the
write-ahead discipline *commit, then delete*: a phase's inputs are only
retired after the entry describing its outputs is durable.

On restart :meth:`CheckpointManager.recover` finds the longest journal
prefix whose surviving files validate (existence, record/block counts, and
per-block checksums — the validation reads are charged to the ``recovery``
phase), truncates anything beyond it, deletes the partial outputs of the
interrupted phase, and hands :class:`~repro.core.ext_scc.ExtSCC` a
:class:`ResumeState` from which the run continues at the last durable
level instead of replaying the whole pipeline.

Journal commits perform **no simulated I/O** (checksums are maintained
incrementally by the device; the manifest write is host-filesystem work
outside the model), so enabling checkpointing leaves the I/O ledger of an
uninterrupted run byte-identical — the zero-cost-when-on invariant the CI
smoke gate checks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.core.config import ExtSCCConfig
from repro.core.contraction import ContractionLevel
from repro.core.ext_scc import IterationRecord
from repro.exceptions import CheckpointError, CorruptBlockError
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice, DiskFile
from repro.io.codecs import CompressedRecordFile, RecordStore, resolve_codec
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.stats import RECOVERY_PHASE, IOSnapshot

__all__ = ["CheckpointManager", "ResumeState", "describe_store", "reopen_store"]

_RETIRED_ROLES = ("next_nodes", "removed", "next_edges")


def _disk_file(store: RecordStore) -> DiskFile:
    """The raw :class:`DiskFile` under either record-file kind."""
    if isinstance(store, CompressedRecordFile):
        return store._var._file
    return store._file


def describe_store(store: RecordStore) -> dict:
    """A JSON-able descriptor of a (closed) record file: enough to reopen
    it after a restart and to validate it was not damaged in between."""
    f = _disk_file(store)
    device = store.device
    desc = {
        "name": store.name,
        "record_size": store.record_size,
        "num_records": store.num_records,
        "num_blocks": f.num_blocks,
        "checksum": device.file_checksum(f),
    }
    if isinstance(store, CompressedRecordFile):
        desc["kind"] = "compressed"
        desc["codec"] = store.codec.name
        desc["gap_field"] = getattr(store.codec, "gap_field", None)
    else:
        desc["kind"] = "fixed"
    return desc


def reopen_store(device: BlockDevice, desc: dict) -> RecordStore:
    """Reattach to the file a :func:`describe_store` descriptor names."""
    if desc["kind"] == "fixed":
        return ExternalFile.open(device, desc["name"])
    codec = resolve_codec(
        desc["codec"], desc["record_size"], sort_field=desc.get("gap_field")
    )
    return CompressedRecordFile.open(
        device, desc["name"], desc["record_size"], codec
    )


@dataclass
class ResumeState:
    """Where a crashed run left off, reconstructed from the journal.

    Attributes:
        resumed: False for a fresh run (empty journal).
        nodes: the input/derived node file ``V_1`` (reopened), if journaled.
        iterations: completed contraction iterations (their records are
            replayed into the output without re-running them).
        levels: reconstructed :class:`ContractionLevel` bundles still
            awaiting expansion, ascending by level.
        semi_done: the semi-external solve already committed.
        scc_store: the current SCC label file (reopened) when ``semi_done``.
        frontier_edges / frontier_nodes: the contraction frontier
            ``E_{i+1}`` / ``V_{i+1}`` of the last committed iteration, for
            resuming mid-contraction.
    """

    resumed: bool = False
    nodes: Optional[NodeFile] = None
    iterations: List[IterationRecord] = field(default_factory=list)
    levels: List[ContractionLevel] = field(default_factory=list)
    semi_done: bool = False
    scc_store: Optional[RecordStore] = None
    frontier_edges: Optional[EdgeFile] = None
    frontier_nodes: Optional[NodeFile] = None


class CheckpointManager:
    """Journals Ext-SCC phase boundaries on a device and rebuilds runs.

    One manager serves one device; create it fresh after reopening a
    persistent directory (the journal travels inside the manifest) or
    reuse the device object across the simulated crash in tests.

    Args:
        device: the simulated disk holding both the data and the journal.
    """

    def __init__(self, device: BlockDevice) -> None:
        self.device = device
        self._verified: Dict[str, bool] = {}

    @property
    def journal(self) -> List[dict]:
        """The device's journal entries (authoritative, device-resident)."""
        return self.device.checkpoint_journal

    def _persist(self) -> None:
        """Make the journal durable (manifest sync on persistent devices;
        a no-op for the in-RAM device, whose journal shares the data's
        fate anyway).  Host-filesystem work — no simulated I/O."""
        sync = getattr(self.device, "sync", None)
        if sync is not None:
            sync()

    def reset(self) -> None:
        """Drop the journal (start the next run from scratch)."""
        self.device.checkpoint_journal = []
        self._persist()

    # -- commits (called by ExtSCC.run at phase boundaries) -----------------

    def begin(
        self,
        edges: EdgeFile,
        nodes: Optional[NodeFile],
        memory: MemoryBudget,
        config: ExtSCCConfig,
    ) -> None:
        """Journal the run header: inputs plus the parameters a resume must
        match (block size, memory budget, config fingerprint).  Files
        already on the device are recorded as ``preexisting`` so recovery
        never garbage-collects them."""
        self.journal.append({
            "entry": "begin",
            "block_size": self.device.block_size,
            "memory": memory.nbytes,
            "config": config.fingerprint(),
            "edges": describe_store(edges.file),
            "nodes": describe_store(nodes.file) if nodes is not None else None,
            "preexisting": self.device.list_files(),
        })
        self._persist()

    def commit_nodes(self, nodes: NodeFile) -> None:
        """Journal the node file derived from the edges (when the caller
        did not supply one)."""
        self.journal.append({"entry": "nodes", "nodes": describe_store(nodes.file)})
        self._persist()

    def commit_contract(self, level: ContractionLevel, record: IterationRecord) -> None:
        """Journal one completed contraction iteration and its outputs."""
        self.journal.append({
            "entry": "contract",
            "level": level.level,
            "files": {
                role: describe_store(store) for role, store in level.stores().items()
            },
            "meta": {
                "num_nodes": record.num_nodes,
                "num_edges": record.num_edges,
                "next_num_nodes": record.next_num_nodes,
                "next_num_edges": record.next_num_edges,
                "io": asdict(record.io),
            },
        })
        self._persist()

    def commit_semi(self, scc_store: RecordStore) -> None:
        """Journal the semi-external solve's label file."""
        self.journal.append({"entry": "semi", "scc": describe_store(scc_store)})
        self._persist()

    def commit_expand(self, level: ContractionLevel, scc_store: RecordStore) -> None:
        """Journal one completed expansion step.  The entry *retires* the
        previous label file and the level's own files — the caller deletes
        them only after this returns (commit, then delete)."""
        self.journal.append({
            "entry": "expand",
            "level": level.level,
            "scc": describe_store(scc_store),
        })
        self._persist()

    def finish(self) -> None:
        """The run completed; nothing is left to resume."""
        self.reset()

    def plan_hooks(
        self,
        record_factory=None,
        level: Optional[ContractionLevel] = None,
    ) -> Dict[str, "object"]:
        """Commit callbacks keyed by the checkpoint *role* a plan's
        stages declare, for :meth:`~repro.plan.PlanExecutor.execute`.

        Each callback receives the executing stage's result:

        * ``"contract"`` — the :class:`ContractionLevel`; ``record_factory``
          (required for this role) maps it to the :class:`IterationRecord`
          the journal entry embeds.
        * ``"semi"`` — the label :class:`RecordStore`.
        * ``"expand"`` — the new label store; ``level`` (required for this
          role) names the expanded level.

        Commits still do zero simulated I/O, so firing them from inside
        the executor leaves the ledger identical to the pre-plan
        phase-boundary call sites.
        """
        hooks: Dict[str, object] = {"semi": self.commit_semi}
        if record_factory is not None:
            hooks["contract"] = lambda lvl: self.commit_contract(
                lvl, record_factory(lvl)
            )
        if level is not None:
            hooks["expand"] = lambda store: self.commit_expand(level, store)
        return hooks

    # -- recovery -----------------------------------------------------------

    @staticmethod
    def _live_after(journal: List[dict], k: int) -> Dict[str, dict]:
        """Replay the first ``k`` entries; returns name -> descriptor of
        every file that must exist at that point."""
        live: Dict[str, dict] = {}
        level_files: Dict[int, dict] = {}
        scc_desc: Optional[dict] = None
        for entry in journal[:k]:
            kind = entry["entry"]
            if kind == "begin":
                live[entry["edges"]["name"]] = entry["edges"]
                if entry["nodes"] is not None:
                    live[entry["nodes"]["name"]] = entry["nodes"]
            elif kind == "nodes":
                live[entry["nodes"]["name"]] = entry["nodes"]
            elif kind == "contract":
                files = entry["files"]
                for role in _RETIRED_ROLES:
                    live[files[role]["name"]] = files[role]
                level_files[entry["level"]] = files
            elif kind == "semi":
                scc_desc = entry["scc"]
                live[scc_desc["name"]] = scc_desc
            elif kind == "expand":
                for role in _RETIRED_ROLES:
                    live.pop(level_files[entry["level"]][role]["name"], None)
                if scc_desc is not None:
                    live.pop(scc_desc["name"], None)
                scc_desc = entry["scc"]
                live[scc_desc["name"]] = scc_desc
        return live

    def _verify_desc(self, desc: dict) -> bool:
        """Validate one journaled file against the device (cached by name —
        files are immutable once journaled)."""
        name = desc["name"]
        cached = self._verified.get(name)
        if cached is not None:
            return cached
        ok = self._verify_uncached(desc)
        self._verified[name] = ok
        return ok

    def _verify_uncached(self, desc: dict) -> bool:
        device = self.device
        name = desc["name"]
        if not device.exists(name):
            return False
        f = device.open(name)
        if f.num_records != desc["num_records"] or f.num_blocks != desc["num_blocks"]:
            return False
        if desc.get("checksum") is None or device.file_checksum(f) is None:
            # No checksum recorded (legacy file): metadata had to suffice.
            return True
        crc = 0
        try:
            # Full sweep: every block is re-read (charged as sequential
            # recovery reads) and checked against its stored checksum —
            # this is what catches torn writes the metadata cannot see.
            for index in range(f.num_blocks):
                device.verify_block(f, index)
        except CorruptBlockError:
            return False
        crc = device.file_checksum(f)
        return crc == desc["checksum"]

    def damaged_inputs(self) -> List[str]:
        """Names of the journaled input files that fail validation.

        Every journal prefix depends on the run's inputs, so a damaged
        input is the one fault :meth:`recover` cannot route around.  The
        caller re-stages each named file from its source (same name, same
        content) and then resumes.  The sweep is charged to the
        ``recovery`` phase, and an intact input's verdict is kept, so
        :meth:`recover` does not read it again.
        """
        if not self.journal:
            return []
        header = self.journal[0]
        inputs = [d for d in (header["edges"], header["nodes"]) if d is not None]
        with self.device.stats.phase(RECOVERY_PHASE):
            damaged = [d["name"] for d in inputs if not self._verify_desc(d)]
        for name in damaged:
            del self._verified[name]  # the caller replaces the file
        return damaged

    def recover(
        self,
        edges: EdgeFile,
        memory: MemoryBudget,
        config: ExtSCCConfig,
    ) -> ResumeState:
        """Validate the journal and rebuild the run's state.

        Finds the longest prefix of the journal whose live files all
        validate, truncates the rest, garbage-collects every file that is
        neither live nor preexisting (the partial outputs of the
        interrupted phase), and returns the :class:`ResumeState` to
        continue from.  An empty journal yields a fresh (non-resumed)
        state; incompatible run parameters raise :class:`CheckpointError`.
        """
        device = self.device
        journal = list(self.journal)
        if not journal:
            return ResumeState(resumed=False)
        header = journal[0]
        if header.get("entry") != "begin":
            raise CheckpointError("checkpoint journal has no header entry")
        self._check_header(header, edges, memory, config)

        valid_k = 0
        for k in range(len(journal), 0, -1):
            live = self._live_after(journal, k)
            if all(self._verify_desc(desc) for desc in live.values()):
                valid_k = k
                break
        if valid_k == 0:
            raise CheckpointError(
                "no valid checkpoint prefix: the journaled input files "
                "fail validation"
            )
        if valid_k < len(journal):
            del self.journal[valid_k:]
            self._persist()
            journal = journal[:valid_k]

        live = self._live_after(journal, valid_k)
        keep = set(live) | set(header["preexisting"])
        for name in device.list_files():
            if name not in keep:
                device.delete(name)  # deleting is free: no I/O charged
        remove_orphans = getattr(device, "remove_orphan_blocks", None)
        if remove_orphans is not None:
            remove_orphans()
        self._persist()
        return self._build_state(journal)

    def _check_header(
        self,
        header: dict,
        edges: EdgeFile,
        memory: MemoryBudget,
        config: ExtSCCConfig,
    ) -> None:
        """A resume under different parameters would rebuild different
        contraction levels than the journal describes — refuse."""
        if header["block_size"] != self.device.block_size:
            raise CheckpointError(
                f"journal was written with block size {header['block_size']}, "
                f"not {self.device.block_size}"
            )
        if header["memory"] != memory.nbytes:
            raise CheckpointError(
                f"journal was written with a {header['memory']}-byte memory "
                f"budget, not {memory.nbytes}"
            )
        if header["config"] != config.fingerprint():
            raise CheckpointError(
                "journal was written under a different ExtSCCConfig; resume "
                "with the original configuration or reset the checkpoint"
            )
        if header["edges"]["name"] != edges.name:
            raise CheckpointError(
                f"journal belongs to input {header['edges']['name']!r}, "
                f"not {edges.name!r}"
            )

    def _build_state(self, journal: List[dict]) -> ResumeState:
        device = self.device
        state = ResumeState(resumed=True)
        header = journal[0]
        nodes_desc = header["nodes"]
        level_files: Dict[int, dict] = {}
        level_meta: Dict[int, dict] = {}
        expanded: List[int] = []
        scc_desc: Optional[dict] = None
        for entry in journal[1:]:
            kind = entry["entry"]
            if kind == "nodes":
                nodes_desc = entry["nodes"]
            elif kind == "contract":
                meta = entry["meta"]
                state.iterations.append(IterationRecord(
                    level=entry["level"],
                    num_nodes=meta["num_nodes"],
                    num_edges=meta["num_edges"],
                    next_num_nodes=meta["next_num_nodes"],
                    next_num_edges=meta["next_num_edges"],
                    io=IOSnapshot(**meta["io"]),
                ))
                level_files[entry["level"]] = entry["files"]
                level_meta[entry["level"]] = meta
            elif kind == "semi":
                state.semi_done = True
                scc_desc = entry["scc"]
            elif kind == "expand":
                expanded.append(entry["level"])
                scc_desc = entry["scc"]
        if nodes_desc is not None:
            state.nodes = NodeFile(reopen_store(device, nodes_desc))
        for level_id in sorted(level_files):
            if level_id in expanded:
                continue
            files = level_files[level_id]
            meta = level_meta[level_id]
            state.levels.append(ContractionLevel(
                level=level_id,
                edges=EdgeFile(reopen_store(device, files["edges"])),
                next_nodes=NodeFile(reopen_store(device, files["next_nodes"])),
                removed=NodeFile(reopen_store(device, files["removed"])),
                next_edges=EdgeFile(reopen_store(device, files["next_edges"])),
                num_nodes=meta["num_nodes"],
                num_edges=meta["num_edges"],
            ))
        if scc_desc is not None:
            state.scc_store = reopen_store(device, scc_desc)
        if level_files and not state.semi_done:
            last = level_files[max(level_files)]
            state.frontier_edges = EdgeFile(reopen_store(device, last["next_edges"]))
            state.frontier_nodes = NodeFile(reopen_store(device, last["next_nodes"]))
        return state
