"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.core.result import SCCResult
from repro.graph.digraph import DiGraph
from repro.graph.edge_file import EdgeFile, NodeFile
from repro.io.blocks import BlockDevice
from repro.io.memory import MemoryBudget
from repro.memory_scc.tarjan import tarjan_scc

Edge = Tuple[int, int]


@pytest.fixture
def device() -> BlockDevice:
    """A small-block simulated disk (64-byte blocks keep I/O counts visible)."""
    return BlockDevice(block_size=64)


@pytest.fixture
def memory() -> MemoryBudget:
    """A small memory budget valid for the 64-byte-block device."""
    return MemoryBudget(512)


def make_graph_files(
    device: BlockDevice,
    edges: Sequence[Edge],
    num_nodes: int,
    memory: MemoryBudget,
) -> Tuple[EdgeFile, NodeFile]:
    """Write a workload onto a device as (edge file, node file)."""
    edge_file = EdgeFile.from_edges(device, device.temp_name("edges"), edges)
    node_file = NodeFile.from_ids(
        device, device.temp_name("nodes"), range(num_nodes), memory, presorted=True
    )
    return edge_file, node_file


def reference_sccs(edges: Sequence[Edge], num_nodes: int) -> SCCResult:
    """Ground truth from the in-memory Tarjan reference."""
    return SCCResult(tarjan_scc(DiGraph(edges, nodes=range(num_nodes))))


def random_edges(num_nodes: int, num_edges: int, seed: int,
                 self_loops: bool = False) -> List[Edge]:
    """A deterministic random edge list (may contain parallels)."""
    rng = random.Random(seed)
    edges: List[Edge] = []
    while len(edges) < num_edges:
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u == v and not self_loops:
            continue
        edges.append((u, v))
    return edges


def reference_blocks(codec, records: Sequence[tuple], block_size: int):
    """The per-record reference encoder behind ``CompressedRecordFile``.

    Each record is priced against its predecessor; a record that overflows
    the open block is re-priced as a block start (the gap chain restarts)
    and opens a new block only if it still overflows.  Returns
    ``(blocks, stored_bytes)`` — what one ``append`` per record lays out —
    computed without the library's batch walk, so tests can hold
    ``extend`` to it.
    """
    blocks: List[List[tuple]] = []
    block: List[tuple] = []
    tail = stored = 0
    prev = None
    for record in records:
        nbytes = codec.encoded_size(record, prev)
        if tail + nbytes > block_size:
            nbytes = codec.encoded_size(record, None)
            if tail + nbytes > block_size:
                blocks.append(block)
                block, tail = [], 0
        block.append(record)
        tail += nbytes
        stored += nbytes
        prev = record
    if block:
        blocks.append(block)
    return blocks, stored
