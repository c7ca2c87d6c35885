"""The repository benchmark: one command, four workloads, every metric.

Usage (from the root of a checkout)::

    python benchmarks/perf/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--out FILE]

Each workload runs in its own subprocess (``workloads.py``), which checks
its answers and reports its metrics; this script prints every metric by
name with its unit and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced runs
(the default) report the end-to-end metrics; ``--trace`` runs report the
per-layer metrics.  Times are corrected for the host's own speed
(``hostspeed.py``).  ``--out FILE`` appends the full run records (counts,
sample sizes, raw times, host) to ``FILE`` for ``compare.py``.  The exit
code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
RUN_TIMEOUT = 170.0


def stop_group(child: subprocess.Popen) -> None:
    """Kill ``child``'s process group and wait until it is empty."""
    os.killpg(child.pid, signal.SIGKILL)
    child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh interpreter and return its record."""
    from workloads import child_env

    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir), "--result", str(result_path),
    ]
    started = time.perf_counter()
    # Its own process group, so a hung run is stopped with every daemon
    # it started.
    child = subprocess.Popen(command, stdout=sys.stderr, env=child_env(),
                             start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(child)
        raise SystemExit(f"error: {workload} did not finish in {RUN_TIMEOUT:.0f} s")
    if code != 0 or not result_path.exists():
        raise SystemExit(f"error: {workload} failed (exit {code})")
    record = json.loads(result_path.read_text())
    record["elapsed_s"] = time.perf_counter() - started
    return record


def render(record: dict) -> str:
    lines = [
        f"{record['workload']} (seed {record['seed']}, {record['seconds']:g} s, "
        f"trace {record['trace']}): {record['attempted']} attempted, "
        f"{record['failed']} failed, correct={record['correct']}"
    ]
    for name, entry in record["metrics"].items():
        lines.append(f"  {name:42s} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in record["info"].items():
        if not isinstance(value, list):
            lines.append(f"  ({name} = {value})")
    for problem in record["info"]["invalid"]:
        lines.append(f"  INVALID: {problem}")
    for target in record["info"].get("missing_targets", []):
        lines.append(f"  not traced (no longer in repro): {target}")
    return "\n".join(lines)


def append_out(path: Path, records: List[dict]) -> None:
    """Append run records to ``path`` (created with the host details)."""
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {
            "host": platform.node(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "runs": [],
        }
    data["runs"].extend(records)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default 7)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per workload (default 15)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", type=Path, help="append run records here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED, WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed

    records = [run_one(name, seed, args.seconds, args.trace) for name in names]
    for record in records:
        print(render(record))
    if args.out is not None:
        append_out(args.out, records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{record['workload']}/{name}": entry
            for record in records for name, entry in record["metrics"].items()
        }
    correct = all(record["correct"] for record in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
