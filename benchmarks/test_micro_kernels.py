"""Kernel micro-benchmark: pure Python vs numpy reachability propagation.

Frontier propagation is the one hot loop with a numpy path: one
block-granular relaxation scan
(:meth:`~repro.kernels.ReachabilityKernel.relax_to_fixpoint`) over a
million edges, the inner loop of every FW-BW-family reachability round.
(The two-way merge has no numpy path, so it has no row here.)  Both
sides are timed in paired back-to-back rounds (the
:mod:`test_micro_codecs` pattern) and mark-for-mark equality is asserted
before any timing is trusted.

Gates: the numpy kernel must be at least ``2×`` faster (``AGGREGATE_GATE``
and ``KERNEL_FLOOR`` apply to the single row).  Results land in
``benchmarks/results/micro_kernels.txt``.
"""

import gc
import random
import time

import pytest

from conftest import RESULTS_DIR

from repro import kernels
from repro.kernels.reachability import _NumpyReachability, _ScalarReachability

NUM_EDGES = 1_000_000
NUM_NODES = 200_000
BLOCK_RECORDS = 2048  # edges per simulated block handed to the kernel
AGGREGATE_GATE = 2.0  # kernels must be at least this much faster overall
KERNEL_FLOOR = 1.3  # and clearly win on each kernel individually
ROUNDS = 3  # paired scalar/kernel rounds; the gate sees the median ratio


def _has_numpy():
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


pytestmark = pytest.mark.skipif(
    not _has_numpy(), reason="numpy not installed (scalar-only build)"
)


def _edge_blocks():
    """A million random edges cut into block-sized tuples — the shape
    ``EdgeFile.scan_blocks`` feeds the reachability kernels."""
    rng = random.Random(42)
    edges = [
        (rng.randrange(NUM_NODES), rng.randrange(NUM_NODES))
        for _ in range(NUM_EDGES)
    ]
    return [
        tuple(edges[i : i + BLOCK_RECORDS])
        for i in range(0, NUM_EDGES, BLOCK_RECORDS)
    ]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _paired(scalar_fn, kernel_fn):
    """Median-of-paired-rounds timing (see module docs)."""
    rounds = []
    scalar_result = kernel_result = None
    for _ in range(ROUNDS):
        gc.collect()
        scalar_result, t_scalar = _timed(scalar_fn)
        kernel_result, t_kernel = _timed(kernel_fn)
        rounds.append((t_scalar, t_kernel))
    t_scalar, t_kernel = sorted(rounds, key=lambda r: r[0] / r[1])[ROUNDS // 2]
    return scalar_result, kernel_result, t_scalar, t_kernel


def _measure_propagation(blocks):
    nodes = list(range(NUM_NODES))
    part = [0] * NUM_NODES
    active = {0}
    seeds = random.Random(3).sample(range(NUM_NODES), 64)
    scalar_kernel = _ScalarReachability(nodes)
    previous = kernels.set_enabled(True)
    try:
        numpy_kernel = _NumpyReachability(nodes)
    finally:
        kernels.set_enabled(previous)

    def one_pass(kernel):
        fwd = bytearray(NUM_NODES)
        bwd = bytearray(NUM_NODES)
        for seed in seeds:
            fwd[seed] = bwd[seed] = 1
        # The first scan hands over the million edges and the fixpoint
        # check after it an empty one, so exactly one relaxation scan is
        # timed.
        scans = iter((blocks, ()))
        kernel.relax_to_fixpoint(lambda: next(scans), part, active, fwd, bwd)
        return bytes(fwd), bytes(bwd)

    s_marks, n_marks, t_scalar, t_kernel = _paired(
        lambda: one_pass(scalar_kernel), lambda: one_pass(numpy_kernel)
    )
    assert n_marks == s_marks, "numpy propagation diverged from scalar"
    return t_scalar, t_kernel


def _run_all():
    return {"propagate": _measure_propagation(_edge_blocks())}


def _mrps(count, seconds):
    """Millions of records per second."""
    return count / seconds / 1e6


def test_micro_kernels_beat_scalar(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    volumes = {"propagate": NUM_EDGES}

    lines = [
        "Kernel micro-benchmark — scalar vs kernel "
        f"({NUM_EDGES:,} edges, one relaxation scan)",
        f"{'kernel':<12} {'scalar':>12} {'kernel':>12} "
        f"{'scalar':>10} {'kernel':>10} {'ratio':>7}",
        f"{'':<12} {'s':>12} {'s':>12} "
        f"{'Mrec/s':>10} {'Mrec/s':>10} {'x':>7}",
        "-" * 68,
    ]
    for name, (t_scalar, t_kernel) in results.items():
        count = volumes[name]
        lines.append(
            f"{name:<12} {t_scalar:>12.3f} {t_kernel:>12.3f} "
            f"{_mrps(count, t_scalar):>10.2f} {_mrps(count, t_kernel):>10.2f} "
            f"{t_scalar / t_kernel:>6.2f}x"
        )
    text = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "micro_kernels.txt").write_text(text)
    print()
    print(text)

    total_scalar = sum(t for t, _ in results.values())
    total_kernel = sum(t for _, t in results.values())
    aggregate = total_scalar / total_kernel
    print(f"aggregate kernel ratio: {aggregate:.2f}x (gate {AGGREGATE_GATE}x)")
    assert aggregate >= AGGREGATE_GATE, (
        f"kernels only {aggregate:.2f}x scalar in aggregate "
        f"(gate {AGGREGATE_GATE}x)"
    )
    for name, (t_scalar, t_kernel) in results.items():
        assert t_scalar / t_kernel >= KERNEL_FLOOR, (
            f"{name}: kernel only {t_scalar / t_kernel:.2f}x scalar "
            f"(floor {KERNEL_FLOOR}x)"
        )
