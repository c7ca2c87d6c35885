"""Figure 6 — WEBSPAM: time (a) and #I/Os (b) while varying graph size.

Paper: the edge file of WEBSPAM-UK2007 is subsampled 20%..100% at the
default memory; DFS-SCC cannot finish even at 20%; both Ext variants grow
with |E| (more contraction iterations and bigger sorts), with Ext-SCC-Op
ahead of Ext-SCC.

Here: same percentages on the webspam stand-in at the paper's default
memory ratio (400M / 847M ≈ 0.47 of the semi-external threshold).
"""

from conftest import RESULTS_DIR, assert_ext_wins_or_inf, assert_monotone, report

from repro.bench import (
    BLOCK_SIZE,
    memory_for_ratio,
    run_algorithm,
    run_sweep,
    shape_summary,
    shuffled_edges,
    subsample_edges,
    webspam_graph,
)
from repro.bench.harness import Sweep
from repro.bench.regression import compare_files, render
from repro.core import ExtSCCConfig

TITLE = "Fig 6 — WEBSPAM-like: cost vs graph size (% of edges)"
PERCENTAGES = (20, 40, 60, 80, 100)
MEMORY_RATIO = 0.47  # the paper's default 400M vs the 847.4M threshold
SMOKE_BASELINE = RESULTS_DIR / "fig6_smoke.baseline.json"
SMOKE_FIXED_BASELINE = RESULTS_DIR / "fig6_smoke_fixed.baseline.json"

VARIANTS = (
    ("Ext-SCC", ExtSCCConfig.baseline),
    ("Ext-SCC-Op", ExtSCCConfig.optimized),
)


def _run_sweep():
    graph = webspam_graph()
    edges = shuffled_edges(graph)
    n = graph.num_nodes
    memory = memory_for_ratio(n, MEMORY_RATIO)
    points = [
        (pct, subsample_edges(edges, pct), n, memory) for pct in PERCENTAGES
    ]
    sweep = run_sweep(TITLE, "size%", points, ["Ext-SCC", "Ext-SCC-Op"],
                      block_size=BLOCK_SIZE)
    budget = max(4 * max(r.io_total for r in sweep.runs), 100_000)
    for pct, sub, n_, memory_ in points:
        for name in ("DFS-SCC", "EM-SCC"):
            sweep.runs.append(
                run_algorithm(name, sub, n_, memory_, block_size=BLOCK_SIZE,
                              io_budget=budget, x=pct)
            )
    return sweep


def test_fig6_webspam_size(benchmark):
    sweep = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    report(sweep, "fig6_webspam_size.txt",
           extra=shape_summary(sweep, "Ext-SCC-Op", "DFS-SCC"))

    for name in ("Ext-SCC", "Ext-SCC-Op"):
        series = sweep.series(name)
        assert all(r.ok for r in series)
        # Paper: cost grows with |E| (more iterations, bigger sorts).
        assert_monotone([r.io_total for r in series], increasing=True)
        assert all(r.io_random == 0 for r in series)

    # Ext-SCC-Op outperforms Ext-SCC at the full graph (paper: all cases).
    assert (
        sweep.result("Ext-SCC-Op", 100).io_total
        <= sweep.result("Ext-SCC", 100).io_total
    )
    assert_ext_wins_or_inf(sweep, "Ext-SCC-Op", "DFS-SCC")
    assert all(not r.ok for r in sweep.series("EM-SCC"))


def _run_smallest(codec=None):
    """Only the 20% point, Ext variants only — the CI smoke workload.

    ``codec`` overrides the pipeline codec (``None`` keeps the default,
    gap-varint; ``"fixed"`` is the uncompressed ablation CI also gates).
    """
    graph = webspam_graph()
    edges = shuffled_edges(graph)
    n = graph.num_nodes
    memory = memory_for_ratio(n, MEMORY_RATIO)
    sub = subsample_edges(edges, PERCENTAGES[0])
    suffix = f", codec={codec}" if codec else ""
    sweep = Sweep(title=f"{TITLE} [smoke: {PERCENTAGES[0]}%{suffix}]",
                  x_label="size%")
    for name, make in VARIANTS:
        config = make(codec=codec) if codec is not None else None
        sweep.runs.append(
            run_algorithm(name, sub, n, memory, block_size=BLOCK_SIZE,
                          x=PERCENTAGES[0], config=config)
        )
    return sweep


def _check_smoke_baseline(sweep, baseline_path, candidate_name):
    for run in sweep.runs:
        assert run.ok
        assert run.io_random == 0
    assert (
        sweep.result("Ext-SCC-Op", 20).io_total
        <= sweep.result("Ext-SCC", 20).io_total
    )

    if baseline_path.exists():
        comparison = compare_files(
            str(baseline_path), str(RESULTS_DIR / candidate_name),
            tolerance=0.05,
        )
        assert comparison.ok, render(comparison)
        import json

        baseline = json.loads(baseline_path.read_text())
        expected_sccs = {
            (r["algorithm"], r["x"]): r["num_sccs"] for r in baseline["runs"]
        }
        for run in sweep.runs:
            assert run.num_sccs == expected_sccs[(run.algorithm, run.x)]


def test_fig6_smallest_smoke(benchmark):
    """The smallest Fig. 6 point, gated against the checked-in baseline:
    >5% Ext-SCC I/O growth (or any status/SCC-count change) fails CI."""
    sweep = benchmark.pedantic(_run_smallest, rounds=1, iterations=1)
    report(sweep, "fig6_smoke.txt")
    _check_smoke_baseline(sweep, SMOKE_BASELINE, "fig6_smoke.json")


def test_fig6_smallest_smoke_fixed_codec(benchmark):
    """The same smoke point under ``codec="fixed"`` — the uncompressed
    ablation, gated against its own baseline so codec work cannot silently
    regress the fixed-width pipeline either."""
    sweep = benchmark.pedantic(
        lambda: _run_smallest(codec="fixed"), rounds=1, iterations=1
    )
    report(sweep, "fig6_smoke_fixed.txt")
    _check_smoke_baseline(sweep, SMOKE_FIXED_BASELINE, "fig6_smoke_fixed.json")

    # The default (gap-varint) smoke baseline must beat this one: the
    # compressed pipeline's reason to exist, stated as a gate.
    if SMOKE_BASELINE.exists():
        import json

        compressed = json.loads(SMOKE_BASELINE.read_text())
        comp_io = {
            (r["algorithm"], r["x"]): r["io_total"] for r in compressed["runs"]
        }
        for run in sweep.runs:
            assert comp_io[(run.algorithm, run.x)] < run.io_total


def test_fig6_codec_delta(benchmark):
    """The tentpole's acceptance gate: at every Fig 6 size point, the
    gap-varint pipeline performs >=20% fewer block I/Os than the fixed
    ablation while finding identical SCCs.  The measured deltas are
    recorded next to the fusion deltas of the previous PR."""
    graph = webspam_graph()
    edges = shuffled_edges(graph)
    n = graph.num_nodes
    memory = memory_for_ratio(n, MEMORY_RATIO)
    points = [(pct, subsample_edges(edges, pct)) for pct in PERCENTAGES]

    def run_codec(codec):
        sweep = Sweep(title=f"{TITLE} [codec={codec}]", x_label="size%")
        for pct, sub in points:
            for name, make in VARIANTS:
                sweep.runs.append(
                    run_algorithm(name, sub, n, memory,
                                  block_size=BLOCK_SIZE, x=pct,
                                  config=make(codec=codec))
                )
        return sweep

    fixed = benchmark.pedantic(
        lambda: run_codec("fixed"), rounds=1, iterations=1
    )
    comp = run_codec("gap-varint")

    lines = [
        "Codec delta: gap-varint vs fixed-width intermediates",
        "baseline  = codec='fixed' (uncompressed ablation)",
        "candidate = codec='gap-varint' (the default)",
        "",
        f"{'variant':>11} {'size%':>5} {'fixed':>10} {'gap-varint':>10} "
        f"{'saved':>6} {'ratio':>6} {'B/rec':>6}",
    ]
    for pct, _ in points:
        for name, _ in VARIANTS:
            f = fixed.result(name, pct)
            c = comp.result(name, pct)
            assert f.ok and c.ok
            assert c.num_sccs == f.num_sccs, (name, pct)
            saved = 1 - c.io_total / f.io_total
            lines.append(
                f"{name:>11} {pct:>5} {f.io_total:>10,} {c.io_total:>10,} "
                f"{saved:>6.1%} {c.compression_ratio:>6.2f} "
                f"{c.bytes_per_record:>6.2f}"
            )
            # The acceptance bar: >=20% fewer I/Os at every size point.
            assert saved >= 0.20, (name, pct, saved)
    text = "\n".join(lines) + "\n"
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fig6_webspam_size.codec_delta.txt").write_text(text)

