"""Benchmark harness reproducing the paper's evaluation (Figures 6–9)."""

from repro.bench.harness import (
    ALGORITHMS,
    RunResult,
    Sweep,
    run_algorithm,
    run_sweep,
)
from repro.bench.reporting import (
    ascii_chart,
    format_sweep,
    format_trace,
    print_sweep,
    shape_summary,
    sweep_to_json,
)
from repro.bench.recovery import (
    RecoveryReport,
    RecoveryTrial,
    measure_recovery,
    render_recovery_report,
)
from repro.bench.regression import SweepComparison, compare_files, compare_sweeps
from repro.bench.workloads import (
    BENCH_NODES,
    DEFAULT_MEMORY_RATIO,
    BLOCK_SIZE,
    MEMORY_RATIOS,
    WEBSPAM_MEMORY_RATIOS,
    family_graph,
    memory_for_ratio,
    semi_threshold,
    shuffled_edges,
    subsample_edges,
    webspam_graph,
)

__all__ = [
    "ALGORITHMS",
    "RunResult",
    "Sweep",
    "run_algorithm",
    "run_sweep",
    "format_sweep",
    "format_trace",
    "ascii_chart",
    "print_sweep",
    "shape_summary",
    "sweep_to_json",
    "BENCH_NODES",
    "DEFAULT_MEMORY_RATIO",
    "compare_sweeps",
    "compare_files",
    "SweepComparison",
    "RecoveryReport",
    "RecoveryTrial",
    "measure_recovery",
    "render_recovery_report",
    "BLOCK_SIZE",
    "MEMORY_RATIOS",
    "WEBSPAM_MEMORY_RATIOS",
    "family_graph",
    "memory_for_ratio",
    "semi_threshold",
    "shuffled_edges",
    "subsample_edges",
    "webspam_graph",
]
