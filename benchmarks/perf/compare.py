"""Summarize one set of benchmark runs, or compare two.

Usage::

    python benchmarks/perf/compare.py SET.json             # one set
    python benchmarks/perf/compare.py BASE.json HEAD.json  # base vs head

A set is a file ``run.py --out`` appended to (one record per workload
run, normally ten seeds per workload).  For every workload x metric the
summary prints the median, the quartiles and the spread (interquartile
range over the median).  A comparison also gives a verdict per row, by
the benchmark's own bounds (``BENCHMARK.json``):

* ``unresolved`` -- either side's spread exceeds the bound, unless every
  head run is better than every base run;
* ``worse`` -- the head median is worse than the base median by more
  than the bound;
* ``better`` -- the head median is better by more than the base spread
  and head wins at least nine tenths of the runs paired by seed;
* ``within bound`` -- otherwise.

Per-layer metrics have no bound and get no verdict.  The exact counts
(I/O ledger, stored bytes, SCC count) must match seed for seed.  The exit
code is 1 when any row is worse, unresolved, or a count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

Key = Tuple[str, int]  # (workload, trace)


def load_runs(path: Path) -> Dict[Key, List[dict]]:
    runs: Dict[Key, List[dict]] = defaultdict(list)
    for record in json.loads(path.read_text())["runs"]:
        runs[record["workload"], record["trace"]].append(record)
    return runs


def load_spec() -> Dict[str, dict]:
    """``{metric: {unit, better, bound?}}`` from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        entry["name"]: entry for entry in spec["end_to_end"] + spec["per_layer"]
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def series(records: List[dict], metric: str) -> Dict[int, float]:
    return {
        record["seed"]: record["metrics"][metric]["value"]
        for record in records if metric in record["metrics"]
    }


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _stats(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{_fmt(median)} [{_fmt(q1)}, {_fmt(q3)}]"


def summarize(runs: Dict[Key, List[dict]], spec: Dict[str, dict]) -> int:
    for (workload, trace), records in sorted(runs.items()):
        print(f"{workload} (trace {trace}, {len(records)} runs, "
              f"{sum(r['failed'] for r in records)} failed of "
              f"{sum(r['attempted'] for r in records)} attempted)")
        print(f"  {'metric':42s} {'median [q1, q3]':>32s} {'spread':>7s} "
              f"{'bound':>6s}")
        for metric in records[0]["metrics"]:
            values = list(series(records, metric).values())
            bound = spec.get(metric, {}).get("bound")
            flag = ""
            if bound is not None and spread(values) > bound / 3:
                flag = "  spread > bound/3"
            print(f"  {metric:42s} {_stats(values):>32s} "
                  f"{spread(values):7.1%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6s}{flag}")
    return 0


def verdict(base: Dict[int, float], head: Dict[int, float],
            better: str, bound: Optional[float]) -> Tuple[str, float]:
    """The verdict for one workload x metric and the signed change of the
    median (positive = worse)."""
    b_med = quartiles(list(base.values()))[1]
    h_med = quartiles(list(head.values()))[1]
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (h_med - b_med) / abs(b_med) if b_med else 0.0
    if bound is None:
        return "", change

    def is_better(h: float, b: float) -> bool:
        return h < b if better == "lower" else h > b

    every_better = all(
        is_better(h, b) for h in head.values() for b in base.values()
    )
    if max(spread(list(base.values())), spread(list(head.values()))) > bound:
        return ("better" if every_better else "unresolved"), change
    if change > bound:
        return "worse", change
    pairs = [(head[s], base[s]) for s in head if s in base]
    wins = sum(is_better(h, b) for h, b in pairs)
    if -change > spread(list(base.values())) and pairs and wins >= 0.9 * len(pairs):
        return "better", change
    return "within bound", change


def compare(base: Dict[Key, List[dict]], head: Dict[Key, List[dict]],
            spec: Dict[str, dict]) -> int:
    bad = 0
    for key in sorted(set(base) & set(head)):
        workload, trace = key
        print(f"{workload} (trace {trace}; base {len(base[key])} runs, "
              f"head {len(head[key])} runs)")
        print(f"  {'metric':42s} {'base median [q1, q3]':>30s} "
              f"{'head median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  "
              f"verdict")
        for metric in base[key][0]["metrics"]:
            b, h = series(base[key], metric), series(head[key], metric)
            if not b or not h:
                continue
            entry = spec.get(metric, {"better": "lower"})
            bound = entry.get("bound")
            text, change = verdict(b, h, entry["better"], bound)
            bad += text in ("worse", "unresolved")
            print(f"  {metric:42s} {_stats(list(b.values())):>30s} "
                  f"{_stats(list(h.values())):>30s} {change:>+8.1%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6s}  {text}")
        base_counts = {r["seed"]: r["counts"] for r in base[key]}
        head_counts = {r["seed"]: r["counts"] for r in head[key]}
        seeds = sorted(set(base_counts) & set(head_counts))
        differ = [s for s in seeds if base_counts[s] != head_counts[s]]
        bad += bool(differ)
        print(f"  exact counts: {len(seeds) - len(differ)} of {len(seeds)} "
              f"seeds match" + (f"; DIFFER at seeds {differ}" if differ else ""))
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", type=Path, metavar="SET.json",
                        help="one set to summarize, or base and head")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one set, or two (base, head)")
    spec = load_spec()
    if len(args.sets) == 1:
        return summarize(load_runs(args.sets[0]), spec)
    return compare(load_runs(args.sets[0]), load_runs(args.sets[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
