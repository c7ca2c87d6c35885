"""The ``REPRO_NUMPY`` feature flag, read by the reachability kernel.

Lives in its own module (not ``kernels/__init__``) so the kernel
implementations can import it without a circular import through the
package root; user code should reach these names through
:mod:`repro.kernels`.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "available",
    "fallback_reason",
    "numpy_module",
    "requested",
    "set_enabled",
]

_enabled = os.environ.get("REPRO_NUMPY", "0") == "1"
_np = None  # cached module once imported; never unloaded
_import_failed = False


def _load_numpy():
    global _np, _import_failed
    if _np is None and not _import_failed:
        try:
            import numpy
        except ImportError:
            _import_failed = True
            return None
        _np = numpy
    return _np


def requested() -> bool:
    """Whether the numpy path was asked for (``REPRO_NUMPY=1`` or
    :func:`set_enabled`), regardless of whether numpy is importable."""
    return _enabled


def available() -> bool:
    """Whether the numpy kernel path is active: requested *and* numpy
    imports.  The pure-Python fallback is byte-identical, so this is a
    performance switch, never a correctness one."""
    return _enabled and _load_numpy() is not None


def numpy_module():
    """The numpy module when :func:`available`, else ``None``."""
    return _np if available() else None


def fallback_reason() -> Optional[str]:
    """Why the scalar path is running (``None`` when numpy is active).

    Distinguishes "not requested" from "requested but numpy missing" —
    the latter is the case worth a ``scc -v`` warning, because the user
    asked for the fast path and is silently not getting it.
    """
    if available():
        return None
    if _enabled:
        return "numpy requested (REPRO_NUMPY=1) but not importable"
    return "numpy path not requested (set REPRO_NUMPY=1)"


def set_enabled(enabled: bool) -> bool:
    """Toggle the numpy kernel path; returns the previous setting."""
    global _enabled
    previous, _enabled = _enabled, bool(enabled)
    return previous
