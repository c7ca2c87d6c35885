"""Wall-clock invariance: the Fig. 6 smoke point is deterministic.

There is one execution path, so at every codec a repeat of the smoke run
reproduces the first run's simulated ledger and answer exactly; only wall
time may move.  That identity is gated exactly.  Wall time itself is
measured by the repository benchmark (``BENCHMARK.json``,
``benchmarks/perf``).
"""

from repro.bench import (
    BLOCK_SIZE,
    memory_for_ratio,
    run_algorithm,
    shuffled_edges,
    subsample_edges,
    webspam_graph,
)
from repro.core import ExtSCCConfig

MEMORY_RATIO = 0.47  # Fig. 6 default memory
SMOKE_PCT = 20

MATRIX_CODECS = ("gap-varint", "varint", "fixed")
REPEATS = 2


def _smoke_point():
    graph = webspam_graph()
    edges = subsample_edges(shuffled_edges(graph), SMOKE_PCT)
    memory = memory_for_ratio(graph.num_nodes, MEMORY_RATIO)
    return edges, graph.num_nodes, memory


def _fingerprint(run):
    """Everything the simulation promises is run-invariant (not wall
    seconds)."""
    return {
        "status": run.status,
        "io_total": run.io_total,
        "io_random": run.io_random,
        "io_sequential": run.io_sequential,
        "merge_passes": run.merge_passes,
        "runs_formed": run.runs_formed,
        "records_written": run.records_written,
        "bytes_logical": run.bytes_logical,
        "bytes_stored": run.bytes_stored,
        "num_sccs": run.num_sccs,
        "iterations": run.iterations,
    }


def _run_smoke(edges, n, memory, *, codec):
    return run_algorithm("Ext-SCC-Op", edges, n, memory,
                         block_size=BLOCK_SIZE, x=SMOKE_PCT,
                         config=ExtSCCConfig.optimized(codec=codec))


def test_wallclock_invariance_matrix(benchmark):
    """Exact ledger identity at every codec across repeated runs."""
    edges, n, memory = _smoke_point()

    def run_matrix():
        mismatches = []
        for codec in MATRIX_CODECS:
            reference = _fingerprint(_run_smoke(edges, n, memory, codec=codec))
            for repeat in range(1, REPEATS):
                run = _fingerprint(_run_smoke(edges, n, memory, codec=codec))
                if run != reference:
                    mismatches.append((codec, repeat, run, reference))
        return mismatches

    mismatches = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    assert not mismatches, mismatches[0]
