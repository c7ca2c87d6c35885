"""Rendering sweeps as the rows/series the paper's figures report,
including a log-scale ASCII chart approximating the figures themselves and
a JSON export for downstream plotting."""

from __future__ import annotations

import json
import math
from typing import List, Optional

from repro.bench.harness import RunResult, Sweep

__all__ = ["format_sweep", "print_sweep", "shape_summary", "ascii_chart",
           "sweep_to_json", "format_phase_table",
           "format_trace"]


def format_phase_table(run: RunResult) -> str:
    """Per-phase breakdown of one run: I/Os, merge passes, runs formed.

    Phase labels nest (``contraction`` contains ``contract-1``,
    ``contract-2``, …; ``expansion`` contains ``expand-i``), so the
    top-level rows sum the per-level rows below them.  The pass counts come
    from :attr:`repro.io.stats.IOStats.passes_by_phase` — they are how the
    run-formation strategies are compared level by level.  The last three
    columns show what the codec bought per phase (logical over stored
    payload bytes, stored bytes per record) and the host wall-clock seconds
    the phase took — the one measured (non-simulated) column.
    """

    def _ratio(logical: int, stored: int) -> str:
        return f"{logical / stored:.2f}" if stored else "-"

    def _per_record(stored: int, records: int) -> str:
        return f"{stored / records:.2f}" if records else "-"

    header = ["phase", "io_total", "seq", "rand", "merge_passes",
              "runs_formed", "compression_ratio", "bytes_per_record",
              "wall_s"]
    rows: List[List[str]] = [header]
    for label in sorted(run.phases):
        p = run.phases[label]
        rows.append([
            label,
            f"{p['io_total']:,}",
            f"{p['io_sequential']:,}",
            f"{p['io_random']:,}",
            str(p["merge_passes"]),
            str(p["runs_formed"]),
            _ratio(p.get("bytes_logical", 0), p.get("bytes_stored", 0)),
            _per_record(p.get("bytes_stored", 0), p.get("records_written", 0)),
            f"{p.get('wall_seconds', 0.0):.3f}",
        ])
    rows.append([
        "(run total)",
        f"{run.io_total:,}",
        f"{run.io_sequential:,}",
        f"{run.io_random:,}",
        str(run.merge_passes),
        str(run.runs_formed),
        _ratio(run.bytes_logical, run.bytes_stored),
        _per_record(run.bytes_stored, run.records_written),
        f"{run.wall_seconds:.3f}",
    ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [f"{run.algorithm} @ {run.x}  —  per-phase I/O and merge passes"]
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_trace(run: RunResult) -> str:
    """Predicted vs. measured blocks per top-level phase, from the plan
    executor's trace ledger (empty string when the run carried no trace,
    e.g. DFS-SCC or a failed run).

    The delta column is how far the planner's cost model strayed from the
    measured pipeline; the trace-envelope benchmark gates it, this table just
    reports it alongside the paper-style rows.
    """
    if not run.trace:
        return ""
    header = ["phase", "predicted", "measured", "delta", "wall_s"]
    rows: List[List[str]] = [header]

    def _delta(predicted: int, measured: int) -> str:
        if not predicted:
            return "-"
        return f"{100 * (measured - predicted) / predicted:+.1f}%"

    for label in sorted(run.trace):
        bucket = run.trace[label]
        rows.append([
            label,
            f"{bucket['predicted']:,}",
            f"{bucket['measured']:,}",
            _delta(bucket["predicted"], bucket["measured"]),
            f"{bucket.get('wall_seconds', 0.0):.3f}",
        ])
    rows.append([
        "(total)",
        f"{run.trace_predicted:,}",
        f"{run.trace_measured:,}",
        _delta(run.trace_predicted, run.trace_measured),
        f"{run.wall_seconds:.3f}",
    ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [f"{run.algorithm} @ {run.x}  —  plan trace (predicted vs measured blocks)"]
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_sweep(sweep: Sweep, metric: str = "io") -> str:
    """One text table per figure: x values down, algorithms across.

    Args:
        sweep: the grid of runs.
        metric: ``"io"`` (block I/Os, the paper's "Number of I/Os" axis),
            ``"time"`` (wall seconds, the paper's time axis), or
            ``"random"`` (random block I/Os).
    """
    algorithms = sweep.algorithms
    header = [sweep.x_label] + algorithms
    rows: List[List[str]] = [header]
    for x in sweep.x_values:
        row = [str(x)]
        for algorithm in algorithms:
            row.append(sweep.result(algorithm, x).cell(metric))
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [f"{sweep.title}  —  metric: {metric}"]
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def print_sweep(sweep: Sweep, metrics: Optional[List[str]] = None) -> None:
    """Print the sweep in every requested metric (default: I/Os and time)."""
    for metric in metrics or ["io", "time"]:
        print()
        print(format_sweep(sweep, metric))


def ascii_chart(sweep: Sweep, metric: str = "io", width: int = 50) -> str:
    """A log-scale horizontal bar chart of the sweep — the figures' shapes
    as text.  Non-OK points render as their status instead of a bar.

    Args:
        sweep: the grid of runs.
        metric: ``"io"``, ``"time"``, or ``"random"``.
        width: bar width in characters for the largest value.
    """
    def value(run: RunResult) -> Optional[float]:
        if not run.ok:
            return None
        if metric == "io":
            return float(run.io_total)
        if metric == "time":
            return run.wall_seconds
        if metric == "random":
            return float(run.io_random)
        raise ValueError(f"unknown metric {metric!r}")

    values = [v for run in sweep.runs if (v := value(run)) is not None and v > 0]
    if not values:
        return f"{sweep.title} — no finished runs to chart"
    low, high = math.log10(min(values)), math.log10(max(values))
    span = max(high - low, 1e-9)
    label_width = max(
        len(f"{run.algorithm} @ {run.x}") for run in sweep.runs
    )
    lines = [f"{sweep.title}  —  {metric} (log scale)"]
    for x in sweep.x_values:
        for algorithm in sweep.algorithms:
            run = sweep.result(algorithm, x)
            label = f"{algorithm} @ {x}".rjust(label_width)
            v = value(run)
            if v is None:
                lines.append(f"{label} | {run.status}")
            elif v <= 0:
                lines.append(f"{label} | 0")
            else:
                bar = "#" * max(1, round((math.log10(v) - low) / span * width))
                lines.append(f"{label} | {bar} {run.cell(metric)}")
        lines.append(label_width * " " + " |")
    return "\n".join(lines[:-1])


def sweep_to_json(sweep: Sweep, indent: Optional[int] = 1) -> str:
    """Serialize a sweep for external plotting tools.

    The schema is one record per run: algorithm, sweep coordinate, status,
    the three I/O counters, wall seconds, SCC count, iteration count, the
    payload-byte ledger (logical vs stored bytes, compression ratio,
    stored bytes per record, and the per-width profile), and the trace
    totals.  Each
    record also carries the run's fault-health ledger (all zeros/empty on
    fault-free runs).
    """
    payload = {
        "title": sweep.title,
        "x_label": sweep.x_label,
        "runs": [
            {
                "algorithm": run.algorithm,
                "x": run.x,
                "status": run.status,
                "io_total": run.io_total,
                "io_random": run.io_random,
                "io_sequential": run.io_sequential,
                "wall_seconds": run.wall_seconds,
                "num_sccs": run.num_sccs,
                "iterations": run.iterations,
                "merge_passes": run.merge_passes,
                "runs_formed": run.runs_formed,
                "records_written": run.records_written,
                "bytes_logical": run.bytes_logical,
                "bytes_stored": run.bytes_stored,
                "compression_ratio": run.compression_ratio,
                "bytes_per_record": run.bytes_per_record,
                "width_profile": {
                    str(width): per_record
                    for width, per_record in sorted(run.width_profile.items())
                },
                "phases": run.phases,
                "trace": run.trace,
                "trace_predicted": run.trace_predicted,
                "trace_measured": run.trace_measured,
                "health": run.health,
            }
            for run in sweep.runs
        ],
    }
    return json.dumps(payload, indent=indent)


def shape_summary(sweep: Sweep, better: str, worse: str) -> str:
    """Summarize who wins and by what factor, point by point.

    Points where ``worse`` hit INF/NONTERM are reported as such — that *is*
    the paper's result for DFS-SCC and EM-SCC.
    """
    lines = [f"{better} vs {worse}:"]
    for x in sweep.x_values:
        b = sweep.result(better, x)
        w = sweep.result(worse, x)
        if not w.ok:
            lines.append(f"  {sweep.x_label}={x}: {worse} -> {w.status}")
        elif not b.ok:
            lines.append(f"  {sweep.x_label}={x}: {better} -> {b.status} (!)")
        elif b.io_total == 0:
            lines.append(f"  {sweep.x_label}={x}: {better} used no I/O")
        else:
            ratio = w.io_total / b.io_total
            lines.append(
                f"  {sweep.x_label}={x}: {better} wins {ratio:.1f}x on I/Os"
            )
    return "\n".join(lines)
