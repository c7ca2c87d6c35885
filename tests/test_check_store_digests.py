"""The on-disk format gate of ``benchmarks/check_store_digests.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_store_digests.py"
_SPEC = importlib.util.spec_from_file_location("check_store_digests", _PATH)
check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check)


def test_built_store_matches_the_committed_digests(capsys):
    assert check.main([]) == 0
    assert "digests match for all 4 files" in capsys.readouterr().out


def test_changed_added_and_missing_files_are_named():
    want = {"a.blk": "11", "manifest.json": "22", "gone.blk": "33"}
    got = {"a.blk": "11", "manifest.json": "2f", "new.blk": "44"}
    assert check.problems(got, want) == [
        "gone.blk: sha256 is None, committed 33",
        "manifest.json: sha256 is 2f, committed 22",
        "new.blk: sha256 is 44, committed None",
    ]
