"""Benchmark harness: run any of the four algorithms on a workload and
collect the two quantities the paper plots — wall time and block I/Os —
with INF/NONTERM statuses handled the way the paper's 24-hour cutoff is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import dfs_scc, em_scc
from repro.core import ExtSCC, ExtSCCConfig
from repro.exceptions import InsufficientMemory, IOBudgetExceeded, NonTermination
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.memory import MemoryBudget
from repro.io.stats import IOBudget
from repro.plan import TraceLedger
from repro.semi_external import spanning_tree_scc

if TYPE_CHECKING:  # pragma: no cover
    from repro.recovery.fault import FaultSchedule
    from repro.recovery.policy import FaultPolicy

__all__ = ["RunResult", "Sweep", "run_algorithm", "run_sweep", "ALGORITHMS"]

Edge = Tuple[int, int]

STATUS_OK = "OK"
STATUS_INF = "INF"
STATUS_NONTERM = "NONTERM"
STATUS_NOMEM = "NOMEM"


@dataclass
class RunResult:
    """One algorithm on one workload point."""

    algorithm: str
    x: object
    status: str
    io_total: int = 0
    io_random: int = 0
    io_sequential: int = 0
    wall_seconds: float = 0.0
    num_sccs: Optional[int] = None
    iterations: Optional[int] = None
    merge_passes: int = 0
    runs_formed: int = 0
    records_written: int = 0
    bytes_logical: int = 0
    bytes_stored: int = 0
    width_profile: Dict[int, float] = field(default_factory=dict)
    # per-phase counters, plus the float "wall_seconds" measurement
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    trace: Dict[str, Dict[str, int]] = field(default_factory=dict)
    trace_predicted: int = 0
    trace_measured: int = 0
    # fault-tolerance ledger delta of the run (retries, escalations,
    # backoff seconds, degradation events)
    # — all zeros/empty on a fault-free run
    health: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the run finished within budget."""
        return self.status == STATUS_OK

    @property
    def compression_ratio(self) -> float:
        """Logical payload bytes over stored bytes (1.0 = uncompressed)."""
        if self.bytes_stored == 0:
            return 1.0
        return self.bytes_logical / self.bytes_stored

    @property
    def bytes_per_record(self) -> float:
        """Average stored bytes per payload record written."""
        if self.records_written == 0:
            return 0.0
        return self.bytes_stored / self.records_written

    def cell(self, metric: str = "io") -> str:
        """Render one table cell the way the paper's plots label points."""
        if self.status != STATUS_OK:
            return self.status if self.status != STATUS_INF else "INF"
        if metric == "io":
            return f"{self.io_total:,}"
        if metric == "time":
            return f"{self.wall_seconds:.2f}s"
        if metric == "random":
            return f"{self.io_random:,}"
        raise ValueError(f"unknown metric {metric!r}")


def _run_ext(config: ExtSCCConfig):
    def runner(device: BlockDevice, edges: EdgeFile, nodes: NodeFile,
               memory: MemoryBudget) -> Tuple[int, Optional[int], Optional[TraceLedger]]:
        output = ExtSCC(config).run(device, edges, memory, nodes=nodes)
        return output.result.num_sccs, output.num_iterations, output.trace
    return runner


def _run_dfs(device: BlockDevice, edges: EdgeFile, nodes: NodeFile,
             memory: MemoryBudget) -> Tuple[int, Optional[int], Optional[TraceLedger]]:
    output = dfs_scc(device, edges, nodes, memory)
    return output.result.num_sccs, None, None


def _run_em(device: BlockDevice, edges: EdgeFile, nodes: NodeFile,
            memory: MemoryBudget) -> Tuple[int, Optional[int], Optional[TraceLedger]]:
    trace = TraceLedger()
    output = em_scc(device, edges, nodes, memory, trace=trace)
    return output.result.num_sccs, output.iterations, trace


def _run_semi(device: BlockDevice, edges: EdgeFile, nodes: NodeFile,
              memory: MemoryBudget) -> Tuple[int, Optional[int], Optional[TraceLedger]]:
    labels = spanning_tree_scc(edges, nodes.scan(), memory=memory)
    return len(set(labels.values())), None, None


ALGORITHMS: Dict[str, Callable] = {
    "Ext-SCC": _run_ext(ExtSCCConfig.baseline()),
    "Ext-SCC-Op": _run_ext(ExtSCCConfig.optimized()),
    "DFS-SCC": _run_dfs,
    "EM-SCC": _run_em,
    "Semi-SCC": _run_semi,
}
"""The paper's four compared algorithms plus the semi-external substrate."""


def run_algorithm(
    name: str,
    edges: Sequence[Edge],
    num_nodes: int,
    memory_bytes: int,
    block_size: int = 1024,
    io_budget: Optional[int] = None,
    x: object = None,
    config: Optional[ExtSCCConfig] = None,
    fault_policy: Optional["FaultPolicy"] = None,
    fault_schedule: Optional["FaultSchedule"] = None,
) -> RunResult:
    """Run one algorithm on a fresh simulated disk.

    Args:
        name: key into :data:`ALGORITHMS` (ignored when ``config`` given —
            then an Ext-SCC variant with that config runs under ``name``).
        edges: the workload's edges, in on-disk order.
        num_nodes: nodes are ``0 .. num_nodes - 1``.
        memory_bytes: the budget ``M``.
        block_size: the block size ``B``.
        io_budget: block-I/O cap; exceeding it reports ``INF``.
        x: the sweep coordinate to record.
        fault_policy: retry/backoff policy for transient faults; the
            device default applies when ``None``.
        fault_schedule: deterministic fault injection schedule (chaos
            benchmarking); attached to the device before the input loads
            so fault ordinals are stable across runs.

    Returns:
        A populated :class:`RunResult`.
    """
    runner = _run_ext(config) if config is not None else ALGORITHMS[name]
    device = BlockDevice(block_size=block_size)
    if fault_policy is not None:
        device.attach_policy(fault_policy)
    if fault_schedule is not None:
        fault_schedule.attach(device)
    memory = MemoryBudget(memory_bytes)
    edge_file = EdgeFile.from_edges(device, "bench-edges", edges)
    node_file = NodeFile.from_ids(
        device, "bench-nodes", range(num_nodes), memory, presorted=True
    )
    if io_budget is not None:
        # The cutoff applies to the algorithm's work, not to loading the
        # input (the paper's 24h clock starts with the algorithm).
        device.stats.budget = IOBudget(device.stats.total + io_budget)
    result = RunResult(algorithm=name, x=x, status=STATUS_OK)
    start = time.perf_counter()
    baseline = device.stats.snapshot()
    trace: Optional[TraceLedger] = None
    try:
        result.num_sccs, result.iterations, trace = runner(
            device, edge_file, node_file, memory
        )
    except IOBudgetExceeded:
        result.status = STATUS_INF
    except NonTermination:
        result.status = STATUS_NONTERM
    except InsufficientMemory:
        result.status = STATUS_NOMEM
    result.wall_seconds = time.perf_counter() - start
    delta = device.stats.snapshot() - baseline
    result.io_total = delta.total
    result.io_random = delta.random
    result.io_sequential = delta.sequential
    result.merge_passes = device.stats.merge_passes
    result.runs_formed = device.stats.runs_formed
    result.records_written = device.stats.records_written
    result.bytes_logical = device.stats.bytes_logical
    result.bytes_stored = device.stats.bytes_stored
    result.width_profile = {
        width: stored / count
        for width, (count, stored) in device.stats.bytes_by_width.items()
        if count
    }
    empty_bytes = (0, 0, 0)
    result.phases = {
        label: {
            "io_total": snap.total,
            "io_sequential": snap.sequential,
            "io_random": snap.random,
            "merge_passes": device.stats.passes_by_phase.get(label, 0),
            "runs_formed": device.stats.runs_by_phase.get(label, 0),
            "records_written": records,
            "bytes_logical": logical,
            "bytes_stored": stored,
            # Host wall-clock (float seconds) — reported alongside the
            # simulated counters but never compared by regression gates.
            "wall_seconds": device.stats.seconds_by_phase.get(label, 0.0),
        }
        for label, snap in device.stats.by_phase.items()
        for records, logical, stored in (
            device.stats.bytes_by_phase.get(label, empty_bytes),
        )
    }
    # Fresh device per run, so the full health ledger *is* the run's
    # delta — and it covers input loading, where scheduled faults may
    # already fire.
    result.health = device.stats.health.snapshot()
    if trace is not None and trace.spans:
        result.trace = trace.by_phase()
        result.trace_predicted = trace.total_predicted
        result.trace_measured = trace.total_measured
    return result


@dataclass
class Sweep:
    """All runs of one figure: a grid of (x value, algorithm)."""

    title: str
    x_label: str
    runs: List[RunResult] = field(default_factory=list)

    @property
    def algorithms(self) -> List[str]:
        """Algorithm names in first-appearance order."""
        seen: List[str] = []
        for run in self.runs:
            if run.algorithm not in seen:
                seen.append(run.algorithm)
        return seen

    @property
    def x_values(self) -> List[object]:
        """Sweep coordinates in first-appearance order."""
        seen: List[object] = []
        for run in self.runs:
            if run.x not in seen:
                seen.append(run.x)
        return seen

    def series(self, algorithm: str) -> List[RunResult]:
        """All runs of one algorithm, in sweep order."""
        return [r for r in self.runs if r.algorithm == algorithm]

    def result(self, algorithm: str, x: object) -> RunResult:
        """The run at one grid point."""
        for run in self.runs:
            if run.algorithm == algorithm and run.x == x:
                return run
        raise KeyError((algorithm, x))


def run_sweep(
    title: str,
    x_label: str,
    points: Sequence[Tuple[object, Sequence[Edge], int, int]],
    algorithms: Sequence[str],
    block_size: int = 1024,
    io_budget: Optional[int] = None,
) -> Sweep:
    """Run every algorithm at every sweep point.

    Args:
        title: figure title (e.g. ``"Fig 7(b) WEBSPAM: I/Os vs memory"``).
        x_label: name of the sweep coordinate.
        points: ``(x, edges, num_nodes, memory_bytes)`` tuples.
        algorithms: keys into :data:`ALGORITHMS`.
        block_size: the block size ``B``.
        io_budget: per-run I/O cap (the INF cutoff).
    """
    sweep = Sweep(title=title, x_label=x_label)
    for x, edges, num_nodes, memory_bytes in points:
        for name in algorithms:
            sweep.runs.append(
                run_algorithm(
                    name, edges, num_nodes, memory_bytes,
                    block_size=block_size, io_budget=io_budget, x=x,
                )
            )
    return sweep
