"""The kernel layer (`repro.kernels`) and its equivalence contracts.

Three families of guarantees, each pinned on random inputs:

* **Solver agreement** — ``multi-bfs`` produces canonical labels identical
  to ``forward-backward`` (and the Tarjan oracle) on random multigraphs.
* **Reference equivalence** — with the numpy reachability kernel on,
  every semi solver produces byte-identical labels *and* a byte-identical
  I/O ledger (same scans, same rounds) as with it off; the chunked merges
  produce exactly the record sequences of the two-pointer merge kept here
  as the reference, stability included.
* **The flag** — ``repro.kernels`` is the single home of ``REPRO_NUMPY``,
  and the fallback reason distinguishes "off" from "requested but numpy
  missing".

The whole module runs with or without numpy installed: when numpy is
missing the "numpy on" runs exercise the requested-but-unavailable
fallback, which must be byte-identical anyway.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import reference_sccs

from repro import kernels
from repro.core.result import SCCResult
from repro.graph.edge_file import EdgeFile
from repro.io.blocks import BlockDevice
from repro.io.memory import MemoryBudget
from repro.semi_external import SEMI_SCC_SOLVERS
from repro.semi_external.multi_bfs import MAX_SOURCES, multi_bfs_scc, source_budget

N_NODES = 14

edges_strategy = st.lists(
    st.tuples(st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1)),
    min_size=0,
    max_size=45,
)

records_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        # numpy_toggle restores process state once per test function; the
        # per-example body always sets the flag itself before relying on it.
        HealthCheck.function_scoped_fixture,
    ],
)


_DONE = object()


def _two_pointer_merge(left, right, key=lambda record: record):
    """The classic stable two-pointer merge (ties emit the left stream
    first; like :func:`heapq.merge`, the key is computed once per record):
    the reference the chunked merges must equal record for record."""
    left, right = iter(left), iter(right)
    out = []
    l = next(left, _DONE)
    r = next(right, _DONE)
    if l is not _DONE and r is not _DONE:
        lk, rk = key(l), key(r)
        while True:
            if rk < lk:
                out.append(r)
                r = next(right, _DONE)
                if r is _DONE:
                    break
                rk = key(r)
            else:
                out.append(l)
                l = next(left, _DONE)
                if l is _DONE:
                    break
                lk = key(l)
    for pending, stream in ((l, left), (r, right)):
        if pending is not _DONE:
            out.append(pending)
            out.extend(stream)
    return out


def _edge_file(edges, name="E", block_size=64):
    device = BlockDevice(block_size=block_size)
    return EdgeFile.from_edges(device, name, edges)


def _ledger(device):
    stats = device.stats
    return (stats.seq_reads, stats.rand_reads, stats.seq_writes, stats.rand_writes)


@pytest.fixture
def numpy_toggle():
    """Restore the process-wide flag whatever a test does to it."""
    previous = kernels.set_enabled(kernels.requested())
    yield
    kernels.set_enabled(previous)


class TestSolverAgreement:
    @SETTINGS
    @given(edges_strategy)
    def test_multi_bfs_matches_fw_bw_family(self, edges):
        reference = reference_sccs(edges, N_NODES)
        for name in ("multi-bfs", "forward-backward"):
            edge_file = _edge_file(edges, name)
            labels = SEMI_SCC_SOLVERS[name](edge_file, range(N_NODES))
            assert SCCResult(labels) == reference, name

    @SETTINGS
    @given(edges_strategy, st.integers(1, MAX_SOURCES))
    def test_multi_bfs_any_source_budget(self, edges, sources):
        """Labels are independent of the source batch size S."""
        edge_file = _edge_file(edges)
        labels = multi_bfs_scc(edge_file, range(N_NODES), max_sources=sources)
        assert SCCResult(labels) == reference_sccs(edges, N_NODES)


class TestNumpyScalarEquivalence:
    @SETTINGS
    @given(edges=edges_strategy)
    def test_solvers_identical_ledgers_and_labels(self, numpy_toggle, edges):
        for name, solver in SEMI_SCC_SOLVERS.items():
            outcomes = {}
            for enabled in (False, True):
                kernels.set_enabled(enabled)
                edge_file = _edge_file(edges, f"E-{name}-{enabled}")
                labels = solver(edge_file, range(N_NODES))
                outcomes[enabled] = (labels, _ledger(edge_file.device))
            assert outcomes[True] == outcomes[False], name

    @SETTINGS
    @given(left=records_strategy, right=records_strategy)
    def test_merge_two_unkeyed_identical(self, left, right):
        left.sort()
        right.sort()
        expected = _two_pointer_merge(left, right)
        merged = list(kernels.merge_two_unkeyed(iter(left), iter(right)))
        assert merged == expected

    @SETTINGS
    @given(left=records_strategy, right=records_strategy)
    def test_merge_two_keyed_identical(self, left, right):
        key = lambda r: r[1]  # noqa: E731 - many ties exercise stability
        left.sort(key=key)
        right.sort(key=key)
        expected = _two_pointer_merge(left, right, key)
        merged = list(kernels.merge_two_keyed(iter(left), iter(right), key))
        assert merged == expected

    def test_merge_two_keyed_tie_chunk_boundaries(self):
        # Every record shares one key: the whole merge is one tie run
        # spanning several chunk refills, and the left stream must still
        # drain before the right one.
        key = lambda r: r[0]  # noqa: E731
        left = [(0, "l", i) for i in range(2 * kernels.MERGE_CHUNK + 3)]
        right = [(0, "r", i) for i in range(kernels.MERGE_CHUNK + 9)]
        expected = _two_pointer_merge(left, right, key)
        assert list(kernels.merge_two_keyed(iter(left), iter(right), key)) == expected

    def test_merge_chunk_boundaries_and_ties(self):
        # Force several refill cycles with heavy cross-stream ties: the
        # boundary-retention rule must reproduce ties-left-first exactly.
        left = sorted((i % 5, i % 3) for i in range(3 * kernels.MERGE_CHUNK))
        right = sorted((i % 5, i % 2) for i in range(2 * kernels.MERGE_CHUNK + 7))
        expected = _two_pointer_merge(left, right)
        assert list(kernels.merge_two_unkeyed(iter(left), iter(right))) == expected

    def test_merge_bigint_midstream(self):
        # A record beyond int64 appears mid-stream: the chunked merge
        # compares records as Python objects, so nothing is lost or
        # reordered (and no int64 bail-out is needed).
        left = [(i, 0) for i in range(600)] + [(1 << 80, 0)]
        right = [(i, 1) for i in range(500)]
        expected = _two_pointer_merge(left, right)
        assert list(kernels.merge_two_unkeyed(iter(left), iter(right))) == expected


class TestSourceBudget:
    def test_unbounded_without_memory(self):
        assert source_budget(1000, None, 64) == MAX_SOURCES

    def test_caps_by_spare_bytes(self):
        n = 100
        base = 8 * n + 64
        # Spare for exactly 2 mask bytes per node per direction -> S = 16.
        memory = MemoryBudget(base + 2 * 2 * n)
        assert source_budget(n, memory, 64) == 16
        # Not even one byte per direction spare: degrade to S = 1.
        assert source_budget(n, MemoryBudget(base + n), 64) == 1
        assert source_budget(n, MemoryBudget(base), 64) == 1

    def test_requested_floor_and_ceiling(self):
        assert source_budget(10, None, 64, requested=0) == 1
        assert source_budget(10, None, 64, requested=1000) == MAX_SOURCES

    def test_tight_budget_still_solves(self):
        edges = [(i, (i + 1) % 9) for i in range(9)] + [(3, 7), (8, 2)]
        edge_file = _edge_file(edges, block_size=64)
        memory = MemoryBudget(8 * N_NODES + 64 + 2 * N_NODES)
        labels = multi_bfs_scc(edge_file, range(N_NODES), memory=memory)
        assert SCCResult(labels) == reference_sccs(edges, N_NODES)


class TestFlagCentralization:
    def test_fallback_reason_states(self, numpy_toggle):
        kernels.set_enabled(False)
        assert "not requested" in kernels.fallback_reason()
        kernels.set_enabled(True)
        if kernels.available():
            assert kernels.fallback_reason() is None
        else:
            assert "not importable" in kernels.fallback_reason()

    def test_requested_vs_available(self, numpy_toggle):
        kernels.set_enabled(True)
        assert kernels.requested()
        # available() may be False (no numpy); it must never be True
        # without the module actually importable.
        if kernels.available():
            assert kernels.numpy_module() is not None
        else:
            assert kernels.numpy_module() is None
