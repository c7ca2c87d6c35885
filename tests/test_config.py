"""Tests for ExtSCCConfig."""

import pytest

from repro.core.config import ExtSCCConfig
from repro.exceptions import ReproError


class TestPresets:
    def test_baseline_all_off(self):
        config = ExtSCCConfig.baseline()
        assert not config.trim_type1
        assert not config.type2_reduction
        assert not config.dedupe_parallel_edges
        assert not config.remove_self_loops
        assert not config.product_operator

    def test_optimized_all_on(self):
        config = ExtSCCConfig.optimized()
        assert config.trim_type1
        assert config.type2_reduction
        assert config.dedupe_parallel_edges
        assert config.remove_self_loops
        assert config.product_operator

    def test_optimized_overrides(self):
        config = ExtSCCConfig.optimized(product_operator=False)
        assert config.trim_type1
        assert not config.product_operator

    def test_frozen(self):
        with pytest.raises(Exception):
            ExtSCCConfig.baseline().trim_type1 = True  # type: ignore[misc]


class TestNames:
    def test_baseline_name(self):
        assert ExtSCCConfig.baseline().name == "Ext-SCC"

    def test_optimized_name(self):
        assert ExtSCCConfig.optimized().name == "Ext-SCC-Op"

    def test_partial_name(self):
        assert ExtSCCConfig(trim_type1=True).name == "Ext-SCC-custom"


class TestValidation:
    def test_unknown_semi_solver_rejected(self):
        from repro.core import ExtSCC

        with pytest.raises(ReproError):
            ExtSCC(ExtSCCConfig(semi_scc="not-a-solver"))

    def test_paper_stop_constant(self):
        assert ExtSCCConfig.baseline().bytes_per_node == 8

    def test_zero_workers_rejected(self):
        # There is no shard width: ``workers`` is not a field, so it is an
        # unknown keyword, like ``executor``.
        with pytest.raises(TypeError):
            ExtSCCConfig(workers=0)

    def test_negative_workers_rejected(self):
        with pytest.raises(TypeError):
            ExtSCCConfig(workers=-4)

    def test_unknown_executor_rejected(self):
        # One static execution path: the executor, autotune and objective
        # fields are gone, so they are unknown keywords.
        with pytest.raises(TypeError):
            ExtSCCConfig(executor="fibers")

    def test_unknown_objective_rejected(self):
        with pytest.raises(TypeError):
            ExtSCCConfig(objective="latency")

    def test_valid_knobs_accepted(self):
        config = ExtSCCConfig(trim_rounds=3)
        assert config.trim_rounds == 3

    def test_fingerprint_excludes_tuning_knobs(self):
        # Every field is an algorithm knob, so the fingerprint is the whole
        # config and names no execution knob.
        from dataclasses import asdict

        base = ExtSCCConfig.optimized()
        assert base.fingerprint() == asdict(base)
        assert "workers" not in base.fingerprint()


class TestFingerprint:
    """Checkpoint journals store the fingerprint and refuse a resume on
    mismatch, so its exact content is pinned: journals written before the
    executor/autotune/objective fields were deleted (the fingerprint
    already excluded them) must keep resuming."""

    def test_default_fingerprint(self):
        assert ExtSCCConfig().fingerprint() == {
            "trim_type1": False, "trim_rounds": 1, "type2_reduction": False,
            "dedupe_parallel_edges": False, "remove_self_loops": False,
            "product_operator": False, "codec": "gap-varint",
            "bytes_per_node": 8, "type2_table_bytes": None,
            "semi_scc": "spanning-tree", "max_iterations": 10000,
            "validate": False, "pool_readahead": 8, "pool_coalesce_writes": 4,
        }

    def test_optimized_fingerprint(self):
        assert ExtSCCConfig.optimized().fingerprint() == {
            "trim_type1": True, "trim_rounds": 1, "type2_reduction": True,
            "dedupe_parallel_edges": True, "remove_self_loops": True,
            "product_operator": True, "codec": "gap-varint",
            "bytes_per_node": 8, "type2_table_bytes": None,
            "semi_scc": "spanning-tree", "max_iterations": 10000,
            "validate": False, "pool_readahead": 8, "pool_coalesce_writes": 4,
        }
