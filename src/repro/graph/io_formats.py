"""Import/export between real filesystem graph formats and the simulator.

Two interchange formats are supported:

* **edge-list text** — one ``u v`` pair per line, ``#`` comments allowed
  (the format of SNAP and of the WEBSPAM-UK2007 distribution);
* **packed binary** — little-endian ``<II`` pairs, the compact on-disk form
  a production deployment would use.

These operate on the *real* filesystem and convert to/from the in-simulator
:class:`~repro.graph.edge_file.EdgeFile`; they let examples persist generated
workloads and let users bring their own graphs.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple, Union

from repro.exceptions import InputFormatError
from repro.io.blocks import BlockDevice
from repro.graph.edge_file import EdgeFile

__all__ = [
    "write_edge_text",
    "read_edge_text",
    "write_edge_binary",
    "read_edge_binary",
    "load_edge_file",
    "dump_edge_file",
]

Edge = Tuple[int, int]
PathLike = Union[str, Path]

_EDGE_STRUCT = struct.Struct("<II")


def write_edge_text(path: PathLike, edges: Iterable[Edge]) -> int:
    """Write edges as ``u v`` lines; returns the number of edges written."""
    count = 0
    with open(path, "w", encoding="ascii") as f:
        for u, v in edges:
            f.write(f"{u} {v}\n")
            count += 1
    return count


def read_edge_text(path: PathLike) -> Iterator[Edge]:
    """Stream edges from a ``u v`` text file, skipping blanks and ``#`` lines.

    A line that is not two integers raises :class:`InputFormatError`
    naming the file, line and token.  A non-ASCII byte reaches that check
    inside its token (``surrogateescape``) instead of failing the decoder
    somewhere in the middle of the file.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputFormatError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                edge = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputFormatError(
                    f"{path}:{lineno}: node id {_first_non_int(parts)!r} "
                    f"is not an integer"
                ) from None
            yield edge


def _first_non_int(tokens: List[str]) -> str:
    """The first token ``int()`` rejects (the caller saw one fail)."""
    for token in tokens[:-1]:
        try:
            int(token)
        except ValueError:
            return token
    return tokens[-1]


def write_edge_binary(path: PathLike, edges: Iterable[Edge]) -> int:
    """Write edges as packed little-endian ``<II`` pairs; returns the count."""
    count = 0
    with open(path, "wb") as f:
        for u, v in edges:
            f.write(_EDGE_STRUCT.pack(u, v))
            count += 1
    return count


def read_edge_binary(path: PathLike) -> Iterator[Edge]:
    """Stream edges from a packed ``<II`` binary file."""
    with open(path, "rb") as f:
        while True:
            chunk = f.read(_EDGE_STRUCT.size)
            if not chunk:
                return
            if len(chunk) != _EDGE_STRUCT.size:
                raise InputFormatError(f"{path}: truncated edge record at end of file")
            yield _EDGE_STRUCT.unpack(chunk)  # type: ignore[misc]


def load_edge_file(
    device: BlockDevice, path: PathLike, name: str = "edges", binary: bool = False
) -> EdgeFile:
    """Load a real-filesystem edge list onto the simulated device."""
    edges = read_edge_binary(path) if binary else read_edge_text(path)
    return EdgeFile.from_edges(device, name, edges)


def dump_edge_file(edge_file: EdgeFile, path: PathLike, binary: bool = False) -> int:
    """Export a simulated edge file to the real filesystem."""
    if binary:
        return write_edge_binary(path, edge_file.scan())
    return write_edge_text(path, edge_file.scan())
