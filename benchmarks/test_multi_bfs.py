"""Multi-source BFS vs forward-backward on the Fig. 6 size points.

Wang et al.'s batched reachability shares one sequential edge scan among
up to S concurrent pivot searches (one mask bit per source), so a
workload that single-pivot FW-BW covers in R rounds of scans costs about
R/S rounds here.  This bench runs the semi-external solvers directly on
each Fig. 6 subsample (the webspam stand-in, 20%..100% of edges) and
checks the two claims made for ``multi-bfs``:

* **same answer** — labels identical to ``forward-backward`` at every
  size point (canonical min-member labels, so dict equality is exact);
* **fewer scans** — strictly fewer sequential scans of the edge file
  than ``forward-backward`` at the 40% point (and, as the table shows,
  at every other point too).

Scan counts divide the sequential-read delta by the edge file's block
count: every solver round reads each block exactly once, so the quotient
is the round count.  Results land in ``benchmarks/results/multi_bfs.txt``.
"""

from conftest import RESULTS_DIR

from repro.bench import BLOCK_SIZE, shuffled_edges, subsample_edges, webspam_graph
from repro.graph.edge_file import EdgeFile
from repro.io import BlockDevice
from repro.semi_external import SEMI_SCC_SOLVERS

PERCENTAGES = (20, 40, 60, 80, 100)
SCAN_GATE_PCT = 40  # the point where the strict scan win is a hard gate
SOLVERS = ("forward-backward", "multi-bfs")


def _run_solver(name, edges, n):
    device = BlockDevice(block_size=BLOCK_SIZE)
    edge_file = EdgeFile.from_edges(device, "E", edges)
    baseline = device.stats.snapshot()
    labels = SEMI_SCC_SOLVERS[name](edge_file, range(n))
    delta = device.stats.snapshot() - baseline
    num_blocks = edge_file.file.num_blocks
    scans = delta.sequential // max(1, num_blocks)
    return labels, scans, delta.total, delta.random


def _run_all():
    graph = webspam_graph()
    edges = shuffled_edges(graph)
    n = graph.num_nodes
    rows = {}
    for pct in PERCENTAGES:
        sub = subsample_edges(edges, pct)
        for name in SOLVERS:
            rows[(pct, name)] = _run_solver(name, sub, n)
    return rows


def test_multi_bfs_matches_fw_bw_with_fewer_scans(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    lines = [
        "Multi-source BFS vs forward-backward — Fig 6 size points "
        "(webspam stand-in)",
        f"{'size%':>5} {'solver':>17} {'scans':>6} {'I/Os':>10} {'random':>7}",
    ]
    for pct in PERCENTAGES:
        for name in SOLVERS:
            _, scans, total, rand = rows[(pct, name)]
            lines.append(
                f"{pct:>5} {name:>17} {scans:>6} {total:>10,} {rand:>7,}"
            )
    text = "\n".join(lines) + "\n"
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "multi_bfs.txt").write_text(text)

    for pct in PERCENTAGES:
        reference = rows[(pct, "forward-backward")][0]
        for name in SOLVERS[1:]:
            assert rows[(pct, name)][0] == reference, (pct, name)
        # Scan-only solvers: not a single random access anywhere.
        for name in SOLVERS:
            assert rows[(pct, name)][3] == 0, (pct, name)

    # The batched scans must pay off where the gate says so (strictly).
    gate_multi = rows[(SCAN_GATE_PCT, "multi-bfs")][1]
    gate_fw_bw = rows[(SCAN_GATE_PCT, "forward-backward")][1]
    assert gate_multi < gate_fw_bw, (gate_multi, gate_fw_bw)
