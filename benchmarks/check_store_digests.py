"""Gate the on-disk format of a built label store.

Builds the query service's label store from the Fig. 6 smoke graph (20%
of the seeded webspam stand-in, the graph ``test_service_smoke.py``
serves) into a temporary directory, then takes the sha256 of every
``.blk`` file and of ``manifest.json``.  The store is deterministic, so
any difference is a change in slot bytes, checksums or manifest layout,
never host noise: the format stays pinned until a change to it is made
on purpose and the digests are regenerated with it.

Usage (from the root of a checkout)::

    PYTHONPATH=src python benchmarks/check_store_digests.py            # gate
    PYTHONPATH=src python benchmarks/check_store_digests.py --write    # regenerate

The gate exits 1 if any digest differs from
``benchmarks/results/store_digests.json`` or a file appears or vanishes;
``--write`` replaces the committed file with this build's digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.bench import BLOCK_SIZE, shuffled_edges, subsample_edges, webspam_graph
from repro.service import build_store

EXPECTED = Path(__file__).resolve().parent / "results" / "store_digests.json"


def store_digests(directory: Path) -> Dict[str, str]:
    """``{file name: sha256}`` of every ``.blk`` file and the manifest."""
    paths = sorted(directory.glob("*.blk")) + [directory / "manifest.json"]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def build_digests() -> Dict[str, str]:
    """Build the smoke store in a scratch directory and digest it."""
    graph = webspam_graph()
    edges = subsample_edges(shuffled_edges(graph), 20)
    with tempfile.TemporaryDirectory() as scratch:
        store = Path(scratch) / "store"
        build_store(edges, store, num_nodes=graph.num_nodes,
                    block_size=BLOCK_SIZE)
        return store_digests(store)


def problems(got: Dict[str, str], want: Dict[str, str]) -> List[str]:
    """One line per file whose digest differs, appears or vanishes."""
    return [
        f"{name}: sha256 is {got.get(name)}, committed {want.get(name)}"
        for name in sorted(set(got) | set(want))
        if got.get(name) != want.get(name)
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="replace the committed digests with this build's")
    args = parser.parse_args(argv)

    digests = build_digests()
    if args.write:
        EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote the digests of {len(digests)} files to {EXPECTED}")
        return 0
    found = problems(digests, json.loads(EXPECTED.read_text()))
    for line in found:
        print(line)
    if found:
        return 1
    print(f"digests match for all {len(digests)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
