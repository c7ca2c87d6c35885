"""Wall-clock invariance: the Fig. 6 smoke point under every execution
configuration.

The one execution knob left — the worker count K — is a *pure*
wall-clock knob: at every codec × K combination the smoke run's simulated
ledger and its answer are exactly the K=1 run's.  That identity is gated
exactly.  Wall time itself is measured by ``benchmarks/perf``;
``BENCH_wallclock.json`` is the frozen history of the earlier
scalar-vs-batch comparison.
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
MATRIX_WORKERS = (1, 2, 4, 8)


def _smoke_point():
    graph = webspam_graph()
    edges = subsample_edges(shuffled_edges(graph), SMOKE_PCT)
    memory = memory_for_ratio(graph.num_nodes, MEMORY_RATIO)
    return edges, graph.num_nodes, memory


def _fingerprint(run):
    """Everything the simulation promises is execution-strategy-invariant
    (not wall seconds, not makespan/channel_io, which depend on K)."""
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


def _run_smoke(edges, n, memory, *, codec, workers=1):
    return run_algorithm("Ext-SCC-Op", edges, n, memory,
                         block_size=BLOCK_SIZE, x=SMOKE_PCT,
                         config=ExtSCCConfig.optimized(codec=codec),
                         workers=workers)


def test_wallclock_invariance_matrix(benchmark):
    """Exact ledger identity at every codec × K against the K=1 run."""
    edges, n, memory = _smoke_point()

    def run_matrix():
        mismatches = []
        for codec in MATRIX_CODECS:
            reference = _fingerprint(_run_smoke(edges, n, memory, codec=codec))
            for workers in MATRIX_WORKERS:
                run = _run_smoke(edges, n, memory, codec=codec,
                                 workers=workers)
                if _fingerprint(run) != reference:
                    mismatches.append((codec, workers, _fingerprint(run),
                                       reference))
        return mismatches

    mismatches = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    assert not mismatches, mismatches[0]
