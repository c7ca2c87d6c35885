"""Gate the exact counts of a repository-benchmark run.

The counts a ``benchmarks/perf/run.py`` run records per workload and seed
(``io_total``, ``bytes_stored``, ``num_sccs``, ``levels``,
``labels_sha256``; serve ``scc_io``) are deterministic, so they can be
compared exactly: any difference is a change in labels or in the
simulated I/O ledger, never host noise.  Wall metrics are not checked.

Usage (from the root of a checkout)::

    python benchmarks/perf/run.py --workload webspam-contract --seed 1 \\
        --seconds 2 --out run.json
    python benchmarks/check_perf_counts.py run.json            # gate
    python benchmarks/check_perf_counts.py --write run.json    # regenerate

The gate exits 1 if any run's counts differ from
``benchmarks/results/perf_counts.json``, or if a run's workload and seed
have no committed counts; ``--write`` replaces the committed file with the
runs' counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

EXPECTED = Path(__file__).resolve().parent / "results" / "perf_counts.json"


def counts_by_run(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    """``{workload: {seed: counts}}``; repeated runs must agree."""
    table: Dict[str, Dict[str, dict]] = {}
    for run in runs:
        seeds = table.setdefault(run["workload"], {})
        seed = str(run["seed"])
        if seeds.setdefault(seed, run["counts"]) != run["counts"]:
            raise SystemExit(
                f"error: two {run['workload']} runs at seed {seed} disagree"
            )
    return table


def problems(runs: List[dict], expected: Dict[str, Dict[str, dict]]) -> List[str]:
    """One line per run whose counts differ from ``expected``."""
    found = []
    for run in runs:
        name, seed = run["workload"], str(run["seed"])
        want = expected.get(name, {}).get(seed)
        if want is None:
            found.append(f"{name} seed {seed}: no committed counts")
            continue
        for field in sorted(set(want) | set(run["counts"])):
            got = run["counts"].get(field)
            if got != want.get(field):
                found.append(
                    f"{name} seed {seed}: {field} is {got}, "
                    f"committed {want.get(field)}"
                )
    return found


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", type=Path, help="a run.py --out file")
    parser.add_argument("--write", action="store_true",
                        help="replace the committed counts with this run's")
    args = parser.parse_args(argv)

    runs = json.loads(args.run.read_text())["runs"]
    if not runs:
        print(f"error: {args.run} holds no runs", file=sys.stderr)
        return 1
    if args.write:
        EXPECTED.write_text(json.dumps(counts_by_run(runs), indent=1,
                                       sort_keys=True) + "\n")
        print(f"wrote the counts of {len(runs)} runs to {EXPECTED}")
        return 0
    found = problems(runs, json.loads(EXPECTED.read_text()))
    for line in found:
        print(line)
    if found:
        return 1
    print(f"counts match for all {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
