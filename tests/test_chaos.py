"""Fault tolerance: retry/backoff policy, fault schedules, corrupt blocks
answered by the checkpoint journal, and the chaos property suite.

The load-bearing invariants, checked by the hypothesis suite at the bottom:

* a run that survives a transient fault produces byte-identical SCC
  labels, and the *only* ledger difference against the fault-free run is
  the ``retry`` fault label — every algorithm phase charges exactly the
  same I/Os;
* a corrupt block stops a checkpointed run with ``CorruptBlockError``,
  and resuming from the journal (after re-staging a damaged input from
  its source) reproduces the fault-free labels.
"""

import os
import stat

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ExtSCC, ExtSCCConfig, compute_sccs
from repro.exceptions import CorruptBlockError, RetryExhaustedError
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.files import ExternalFile
from repro.io.memory import MemoryBudget
from repro.io.stats import FAULT_PHASES, IOSnapshot, RETRY_PHASE
from repro.recovery import CheckpointManager, FaultPolicy, FaultSchedule, FaultSpec


# ---------------------------------------------------------------------------
# FaultPolicy


class TestFaultPolicy:
    def test_backoff_is_deterministic(self):
        a = FaultPolicy(seed=7)
        b = FaultPolicy(seed=7)
        for attempt in (1, 2, 3):
            assert a.backoff_seconds(attempt, token=42) == \
                b.backoff_seconds(attempt, token=42)

    def test_backoff_grows_exponentially_within_jitter_bounds(self):
        policy = FaultPolicy(backoff_base=0.01, backoff_factor=2.0, jitter=0.1)
        for attempt in (1, 2, 3, 4):
            base = 0.01 * 2.0 ** (attempt - 1)
            seconds = policy.backoff_seconds(attempt)
            assert base <= seconds < base * 1.1

    def test_zero_jitter_is_exact(self):
        policy = FaultPolicy(backoff_base=0.5, backoff_factor=3.0, jitter=0.0)
        assert policy.backoff_seconds(1) == 0.5
        assert policy.backoff_seconds(2) == 1.5

    def test_token_varies_jitter_stream(self):
        policy = FaultPolicy(jitter=0.5)
        assert policy.backoff_seconds(1, token=1) != \
            policy.backoff_seconds(1, token=2)

    def test_parse_full_spec(self):
        policy = FaultPolicy.parse(
            "retries=5,backoff=0.01,factor=3,jitter=0,seed=9,"
            "deadline=2.5,sleep=1"
        )
        assert policy.max_retries == 5
        assert policy.backoff_base == 0.01
        assert policy.backoff_factor == 3.0
        assert policy.jitter == 0.0
        assert policy.seed == 9
        assert policy.phase_deadline == 2.5
        assert policy.sleep is True

    def test_parse_empty_is_default(self):
        assert FaultPolicy.parse("") == FaultPolicy()

    @pytest.mark.parametrize("spec", ["bogus=1", "retries", "retries=x"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPolicy.parse(spec)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_base=-0.1)


class TestFaultSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor-strike", at_io=1)

    def test_device_kind_needs_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            FaultSpec("transient-read")
        with pytest.raises(ValueError):
            FaultSpec("transient-read", at_io=1, in_phase="semi-scc")

    @pytest.mark.parametrize("kind", ["channel-outage", "worker-die", "worker-hang"])
    def test_deleted_kinds_are_unknown(self, kind):
        # The device is one disk with no worker pool: nothing for these
        # kinds to name.
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind, at_io=1)


# ---------------------------------------------------------------------------
# Transient faults + retry on the base device


def _loaded_device(num_blocks=4, **kwargs):
    device = BlockDevice(block_size=64, **kwargs)
    f = device.create("data", record_size=2)
    for i in range(num_blocks):
        device.append_block(f, [(i, i + 1)] * 4)
    return device, f


class TestTransientRetry:
    def test_read_retries_then_succeeds(self):
        device, f = _loaded_device()
        FaultSchedule.single("transient-read", at_io=1, failures=2).attach(device)
        device.attach_policy(FaultPolicy(max_retries=3))
        before = device.stats.total
        assert device.read_block(f, 0, sequential=True) == ((0, 1),) * 4
        health = device.stats.health
        assert health.retries == 2
        assert device.stats.phase_total(RETRY_PHASE) == 2
        # failed attempts + the successful read are all charged
        assert device.stats.total - before == 3

    def test_write_retries_then_succeeds(self):
        device, f = _loaded_device()
        FaultSchedule.single("transient-write", at_io=1, failures=1).attach(device)
        device.attach_policy(FaultPolicy(max_retries=3))
        device.append_block(f, [(9, 9)] * 4)
        assert device.stats.health.retries == 1
        assert device.read_block(f, 4, sequential=False) == ((9, 9),) * 4

    def test_retry_exhaustion_escalates(self):
        device, f = _loaded_device()
        FaultSchedule.single("transient-read", at_io=1, failures=10).attach(device)
        device.attach_policy(FaultPolicy(max_retries=2))
        with pytest.raises(RetryExhaustedError) as excinfo:
            device.read_block(f, 0, sequential=True)
        assert excinfo.value.attempts == 3
        assert device.stats.health.escalations == 1
        # every failed attempt was still charged to the retry label
        assert device.stats.phase_total(RETRY_PHASE) == 3

    def test_phase_deadline_escalates_early(self):
        device, f = _loaded_device()
        FaultSchedule.single("transient-read", at_io=1, failures=10).attach(device)
        device.attach_policy(FaultPolicy(max_retries=50, phase_deadline=0.0))
        with pytest.raises(RetryExhaustedError, match="deadline"):
            device.read_block(f, 0, sequential=True)
        assert device.stats.health.escalations == 1

    def test_retries_do_not_shift_later_fault_ordinals(self):
        # Two schedules, same at_io targets; the first run retries, the
        # second doesn't — the second fault must land on the same logical
        # operation either way.
        def run(failures):
            device, f = _loaded_device()
            schedule = FaultSchedule([
                FaultSpec("transient-read", at_io=1, failures=failures),
                FaultSpec("transient-read", at_io=3, failures=1),
            ]).attach(device)
            device.attach_policy(FaultPolicy(max_retries=5))
            for i in range(3):
                device.read_block(f, i, sequential=True)
            return [s.fired_at for s in schedule.specs]

        assert run(3) == run(1)

    def test_default_policy_applies_without_attach(self):
        device, f = _loaded_device()
        FaultSchedule.single("transient-read", at_io=1, failures=2).attach(device)
        assert device.read_block(f, 0, sequential=True) == ((0, 1),) * 4
        assert device.stats.health.retries == 2

    def test_budget_still_enforced_on_retries(self):
        from repro.exceptions import IOBudgetExceeded
        from repro.io.stats import IOBudget

        device, f = _loaded_device()
        device.stats.budget = IOBudget(device.stats.total + 2)
        FaultSchedule.single("transient-read", at_io=1, failures=5).attach(device)
        device.attach_policy(FaultPolicy(max_retries=10))
        with pytest.raises(IOBudgetExceeded):
            device.read_block(f, 0, sequential=True)


# ---------------------------------------------------------------------------
# Corrupt blocks


class TestCorruptRepair:
    """The device keeps no redundancy: a corrupt block raises, and the
    repair is a resume from the checkpoint journal."""

    def test_corrupt_without_parity_raises(self):
        device, f = _loaded_device()
        FaultSchedule.single("corrupt", at_io=1).attach(device)
        with pytest.raises(CorruptBlockError):
            device.read_block(f, 0, sequential=True)
        # no redundancy, so nothing is rewritten and no retry is charged
        assert device.stats.fault_total() == 0

    def test_damaged_inputs_names_only_failing_inputs(self):
        device = BlockDevice(block_size=64)
        memory = MemoryBudget(1 << 12)
        edge_file = EdgeFile.from_edges(device, "edges", [(0, 1), (1, 0)] * 8)
        node_file = NodeFile.from_ids(device, "nodes", range(2), memory,
                                      presorted=True)
        manager = CheckpointManager(device)
        assert manager.damaged_inputs() == []  # no journal yet
        manager.begin(edge_file, node_file, memory, ExtSCCConfig.optimized())
        assert manager.damaged_inputs() == []
        device._damage_block(device.open("edges"), 1)
        # a fresh manager, as after a restart (verdicts are cached)
        assert CheckpointManager(device).damaged_inputs() == ["edges"]


# ---------------------------------------------------------------------------
# Durable manifest sync (satellite regression)


class TestPersistentSyncDurability:
    def test_sync_fsyncs_manifest_then_parent_directory(self, tmp_path, monkeypatch):
        from repro.io.persistent import PersistentBlockDevice

        device = PersistentBlockDevice(str(tmp_path / "dev"), block_size=256)
        calls = []
        real_fsync = os.fsync

        def spy(fd):
            calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        device.sync()
        assert "file" in calls and "dir" in calls
        # the directory entry is made durable after the manifest rename
        assert calls.index("dir") > calls.index("file")

    def test_sync_tolerates_unfsyncable_directory(self, tmp_path, monkeypatch):
        from repro.io.persistent import PersistentBlockDevice

        device = PersistentBlockDevice(str(tmp_path / "dev"), block_size=256)

        def refuse(path, flags):
            raise OSError("directories cannot be opened here")

        monkeypatch.setattr(os, "open", refuse)
        device.sync()  # must not raise


# ---------------------------------------------------------------------------
# End-to-end: faults through compute_sccs


class TestComputeSccsFaults:
    def test_fault_run_matches_clean_labels_and_health_delta(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
        clean = compute_sccs(edges, num_nodes=4, memory_bytes=1 << 14)
        schedule = FaultSchedule.single("transient-read", at_io=6, failures=2)
        faulty = compute_sccs(
            edges, num_nodes=4, memory_bytes=1 << 14,
            fault_schedule=schedule, fault_policy=FaultPolicy(max_retries=4),
        )
        assert faulty.result.labels == clean.result.labels
        assert clean.health["retries"] == 0
        assert faulty.health["retries"] == 2
        assert faulty.io.total - clean.io.total == 2

# ---------------------------------------------------------------------------
# Chaos property suite


N_NODES = 10

edges_strategy = st.lists(
    st.tuples(st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1)),
    min_size=1,
    max_size=30,
)

trigger_strategy = st.one_of(
    st.just(("in_phase", "semi-scc")),
    st.tuples(st.just("at_io"), st.integers(1, 12)),
)

fault_strategy = st.fixed_dictionaries({
    "kind": st.sampled_from(["transient-read", "transient-write"]),
    "trigger": trigger_strategy,
    "failures": st.integers(1, 2),
})


def _load(device, edges, memory):
    edge_file = EdgeFile.from_edges(device, "edges", edges)
    node_file = NodeFile.from_ids(
        device, "nodes", range(N_NODES), memory, presorted=True
    )
    return edge_file, node_file


def _chaos_run(edges, schedule=None, policy=None):
    device = BlockDevice(block_size=256)
    if policy is not None:
        device.attach_policy(policy)
    if schedule is not None:
        schedule.attach(device)
    memory = MemoryBudget(1 << 14)
    edge_file, node_file = _load(device, edges, memory)
    out = ExtSCC(ExtSCCConfig.optimized()).run(
        device, edge_file, memory, nodes=node_file
    )
    return out, device


def restage_damaged_inputs(device, manager, sources):
    """Rewrite every journaled input that fails validation from its source
    (``sources``: name -> loader), as ``scc --resume`` does from the edge
    list; returns the reopened ``(edges, nodes)`` stores to resume with."""
    for name in manager.damaged_inputs():
        device.delete(name)
        sources[name]()
    return (
        EdgeFile(ExternalFile.open(device, "edges")),
        NodeFile(ExternalFile.open(device, "nodes")),
    )


CHAOS_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestChaosProperties:
    @CHAOS_SETTINGS
    @given(edges=edges_strategy, fault=fault_strategy)
    def test_single_fault_changes_only_the_fault_ledger(self, edges, fault):
        trigger_key, trigger_value = fault["trigger"]
        schedule = FaultSchedule.single(
            fault["kind"], failures=fault["failures"],
            **{trigger_key: trigger_value},
        )

        clean_out, clean_dev = _chaos_run(edges)
        faulty_out, faulty_dev = _chaos_run(
            edges, schedule=schedule, policy=FaultPolicy(max_retries=6)
        )

        # 1. Output identity: byte-identical SCC labels.
        assert faulty_out.result.labels == clean_out.result.labels

        # 2. Every non-fault phase label charged exactly the same I/Os.
        empty = IOSnapshot()
        labels = set(clean_dev.stats.by_phase) | set(faulty_dev.stats.by_phase)
        for label in labels - set(FAULT_PHASES):
            assert faulty_dev.stats.by_phase.get(label, empty) == \
                clean_dev.stats.by_phase.get(label, empty), label

        # 3. The fault labels are the entire total-ledger delta.
        assert faulty_dev.stats.total - clean_dev.stats.total == \
            faulty_dev.stats.fault_total()
        assert clean_dev.stats.fault_total() == 0

        # 4. Health ledger: clean run spotless; a fired fault shows up,
        #    an unfired one leaves no trace.
        assert clean_dev.stats.health.retries == 0
        if not schedule.fired:
            assert faulty_dev.stats.fault_total() == 0
            assert faulty_dev.stats.health.retries == 0

    @CHAOS_SETTINGS
    @given(edges=edges_strategy, trigger=trigger_strategy)
    def test_corrupt_block_resumes_from_journal(self, edges, trigger):
        clean_out, _ = _chaos_run(edges)
        device = BlockDevice(block_size=256)
        schedule = FaultSchedule.single("corrupt", **{trigger[0]: trigger[1]})
        schedule.attach(device)
        memory = MemoryBudget(1 << 14)
        edge_file, node_file = _load(device, edges, memory)
        manager = CheckpointManager(device)
        config = ExtSCCConfig.optimized()
        try:
            out = ExtSCC(config).run(device, edge_file, memory,
                                     nodes=node_file, checkpoint=manager)
        except CorruptBlockError:
            assert schedule.fired
            edge_file, node_file = restage_damaged_inputs(device, manager, {
                "edges": lambda: EdgeFile.from_edges(device, "edges", edges),
                "nodes": lambda: NodeFile.from_ids(
                    device, "nodes", range(N_NODES), memory, presorted=True
                ),
            })
            out = ExtSCC(config).run(device, edge_file, memory,
                                     nodes=node_file, checkpoint=manager)
            assert out.resumed
        assert out.result.labels == clean_out.result.labels

    @CHAOS_SETTINGS
    @given(edges=edges_strategy)
    def test_policy_alone_changes_nothing(self, edges):
        baseline_out, baseline_dev = _chaos_run(edges)
        armed_out, armed_dev = _chaos_run(
            edges, policy=FaultPolicy(max_retries=5, phase_deadline=10.0)
        )
        assert armed_out.result.labels == baseline_out.result.labels
        assert armed_dev.stats.snapshot() == baseline_dev.stats.snapshot()
        assert armed_dev.stats.by_phase == baseline_dev.stats.by_phase
