"""A persistent block device: the simulator's interface over real files.

:class:`PersistentBlockDevice` is a drop-in :class:`BlockDevice` whose
blocks live in binary files under a directory instead of in RAM — every
algorithm in this package runs unchanged against it, and the data survives
the process.  The I/O ledger counts exactly the same block operations, so
measurements carry over.

Physical layout: each simulated file is one ``<name>.blk`` file of
fixed-size block slots.  A slot holds a record-count header plus the
records' integer fields, each stored as a little-endian ``int64`` and
zero-padded to the block's capacity, so one precompiled whole-slot
:class:`struct.Struct` per file packs or unpacks a block in one call.  (The
*accounted* record width stays the paper's 4-byte-id model — the model's
byte arithmetic is about block capacity, not about Python's ability to
overflow 32 bits.)  A ``manifest.json`` records every file's metadata so a
device directory can be reopened later.

Record fields are ``record_size // 4`` integers per record — the invariant
every record type in this package satisfies (ids, degrees, labels are all
4-byte fields in the accounting model).  Variable-record files
(``record_size == 1``, the substrate of :mod:`repro.io.varfile`) hold
arbitrary nested int-tuple payloads instead; their slots store a recursive
tagged encoding in a fixed-size slot sized from the accounting invariant
that a var block's payloads never exceed ``block_size`` accounted bytes.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from itertools import chain, repeat
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import CorruptBlockError, StorageError
from repro.io.blocks import BlockDevice, DEFAULT_BLOCK_SIZE, DiskFile
from repro.io.stats import IOBudget, IOStats

__all__ = [
    "PersistentBlockDevice",
    "PersistentDiskFile",
    "DeviceHandle",
    "ReadOnlyView",
    "open_shared",
]

Record = Tuple[int, ...]
PathLike = Union[str, Path]

_FIELD = struct.Struct("<q")
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_COUNT = struct.Struct("<I")
_CRC = struct.Struct("<I")
_MANIFEST = "manifest.json"


def _fields_per_record(record_size: int) -> Optional[int]:
    if record_size == 1:
        return None  # a variable-record file: payloads are nested tuples
    if record_size % 4 != 0:
        raise StorageError(
            f"persistent files need 4-byte-aligned records, got {record_size}"
        )
    return record_size // 4


# Tagged recursive encoding for variable-record payloads.
_TAG_INT = b"\x00"
_TAG_TUPLE = b"\x01"

# Real bytes per slot for a var file, per accounted byte: every payload
# costs at least one accounted byte (varint accounting), so a block holds
# at most ``block_size`` payloads and ``block_size`` integer fields.  The
# costliest shapes are a single-field record ``((v,),)`` — 19 real bytes
# (two tuple headers of 5 + one 9-byte int) on as little as 1 accounted
# byte — and an empty adjacency payload ``((src, ()),)`` at 24.
_VAR_SLOT_FACTOR = 24


def _encode_obj(obj: object, parts: List[bytes]) -> None:
    if isinstance(obj, tuple):
        parts.append(_TAG_TUPLE)
        parts.append(_COUNT.pack(len(obj)))
        for item in obj:
            _encode_obj(item, parts)
    elif isinstance(obj, int):
        parts.append(_TAG_INT)
        parts.append(_FIELD.pack(obj))
    else:
        raise StorageError(
            f"persistent var files store nested int tuples, got {type(obj).__name__}"
        )


def _decode_obj(payload: bytes, offset: int) -> Tuple[object, int]:
    tag = payload[offset : offset + 1]
    offset += 1
    if tag == _TAG_TUPLE:
        (count,) = _COUNT.unpack_from(payload, offset)
        offset += _COUNT.size
        items = []
        for _ in range(count):
            item, offset = _decode_obj(payload, offset)
            items.append(item)
        return tuple(items), offset
    if tag == _TAG_INT:
        (value,) = _FIELD.unpack_from(payload, offset)
        return value, offset + _FIELD.size
    raise StorageError(f"corrupt var-record slot (tag {tag!r})")


def _unstorable(name: str, records: Sequence[object]) -> StorageError:
    """The error for a block holding a value no ``int64`` field can store.

    Called after ``struct`` refused the block, so it walks the (nested)
    records only on that failure path to name the offending value.
    """
    stack = list(reversed(records))
    while stack:
        value = stack.pop()
        if isinstance(value, (tuple, list)):
            stack.extend(reversed(value))
        elif not (isinstance(value, int) and _INT64_MIN <= value <= _INT64_MAX):
            return StorageError(
                f"file {name!r} stores signed 64-bit integers; "
                f"{value!r} does not fit"
            )
    return StorageError(f"file {name!r}: a record does not fit its slot")


def _safe_filename(name: str) -> str:
    """File-system-safe encoding of a simulated file name."""
    return "".join(c if c.isalnum() or c in "._-" else f"_{ord(c):02x}" for c in name)


class PersistentDiskFile(DiskFile):
    """A :class:`DiskFile` whose blocks live in a real binary file."""

    def __init__(self, name: str, record_size: int, block_capacity: int,
                 path: Path) -> None:
        super().__init__(name, record_size, block_capacity)
        self.path = path
        self.fields = _fields_per_record(record_size)
        # The whole-slot codec of a fixed-width file: capacity * fields
        # little-endian int64s after the count header.
        self.slot_struct: Optional[struct.Struct] = None
        if self.fields is None:
            # Variable-record slot: bounded by the accounting invariant.
            self.slot_bytes = _COUNT.size + block_capacity * _VAR_SLOT_FACTOR
        else:
            self.slot_struct = struct.Struct(f"<{block_capacity * self.fields}q")
            self.slot_bytes = _COUNT.size + self.slot_struct.size
        # Every slot is prefixed by a CRC32 of its (padded) payload so torn
        # writes are detectable on read — the crash-consistency contract.
        self.slot_bytes += _CRC.size
        self._num_blocks = 0
        self._block_counts: List[int] = []  # records per block (bookkeeping)
        self.blocks = _BlockProxy(self)  # satisfies len() for num_blocks

    @property
    def num_blocks(self) -> int:  # type: ignore[override]
        return self._num_blocks


class _BlockProxy:
    """Minimal stand-in so base-class code asking len(file.blocks) works."""

    def __init__(self, file: "PersistentDiskFile") -> None:
        self._file = file

    def __len__(self) -> int:
        return self._file._num_blocks


class PersistentBlockDevice(BlockDevice):
    """A block device backed by a directory of real files.

    Args:
        directory: where the ``.blk`` files and the manifest live; created
            if missing.  Reopening an existing directory restores every
            file (the manifest is authoritative).
        block_size: simulated block size; must match the manifest when
            reopening.
        stats, budget: as for :class:`BlockDevice`.
        readonly: open an *existing* device for reading only.  Mutators
            raise :class:`StorageError`, :meth:`close` skips the manifest
            sync, and slot reads go through :func:`os.pread` on raw file
            descriptors — no shared seek position — so any number of
            threads may read through one device concurrently.
    """

    def __init__(
        self,
        directory: PathLike,
        block_size: int = DEFAULT_BLOCK_SIZE,
        stats: Optional[IOStats] = None,
        budget: Optional[IOBudget] = None,
        readonly: bool = False,
    ) -> None:
        super().__init__(block_size=block_size, stats=stats, budget=budget)
        self.directory = Path(directory)
        self.readonly = readonly
        self._handles: Dict[str, object] = {}
        self._handle_lock = threading.Lock()
        manifest_path = self.directory / _MANIFEST
        if readonly:
            if not manifest_path.exists():
                raise StorageError(
                    f"no persisted device at {self.directory} (missing manifest)"
                )
            self._load_manifest(manifest_path)
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        if manifest_path.exists():
            self._load_manifest(manifest_path)

    def _assert_writable(self) -> None:
        if self.readonly:
            raise StorageError(
                f"device at {self.directory} is open read-only"
            )

    # -- manifest -----------------------------------------------------------

    def _load_manifest(self, path: Path) -> None:
        try:
            manifest = json.loads(path.read_text())
        except (ValueError, UnicodeDecodeError) as exc:
            raise StorageError(
                f"corrupt or truncated manifest at {path}: {exc}"
            ) from None
        if manifest["block_size"] != self.block_size:
            raise StorageError(
                f"device at {self.directory} was created with block size "
                f"{manifest['block_size']}, not {self.block_size}"
            )
        for name, meta in manifest["files"].items():
            f = PersistentDiskFile(
                name,
                meta["record_size"],
                self.block_size // meta["record_size"],
                self.directory / meta["path"],
            )
            f._num_blocks = meta["num_blocks"]
            f.num_records = meta["num_records"]
            f._block_counts = list(meta["block_counts"])
            # Older manifests carry no checksum list; file_checksum then
            # returns None and validation degrades to metadata-only.
            f.block_checksums = list(meta.get("block_checksums", ()))
            self._files[name] = f
        self.checkpoint_journal = list(manifest.get("checkpoint", ()))

    def sync(self) -> None:
        """Write the manifest so the directory can be reopened later.

        The write is atomic *and durable*: the temp file is fsynced before
        the ``os.replace`` (so the rename can never expose an unflushed
        manifest), and the parent directory is fsynced after it (so the
        rename itself survives a power loss — without the directory fsync
        a crash can roll the directory entry back to the old manifest even
        though the new file's data reached the platter).  A crash mid-sync
        therefore leaves exactly the previous manifest, never a truncated
        JSON that would brick the whole device.
        """
        self._assert_writable()
        manifest = {
            "block_size": self.block_size,
            "checkpoint": self.checkpoint_journal,
            "files": {
                name: {
                    "path": f.path.name,  # type: ignore[attr-defined]
                    "record_size": f.record_size,
                    "num_blocks": f.num_blocks,
                    "num_records": f.num_records,
                    "block_counts": list(f._block_counts),  # type: ignore[attr-defined]
                    "block_checksums": list(f.block_checksums),
                }
                for name, f in self._files.items()
            },
        }
        target = self.directory / _MANIFEST
        tmp = self.directory / (_MANIFEST + ".tmp")
        with open(tmp, "w") as fh:
            fh.write(json.dumps(manifest, indent=1))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        self._fsync_directory()

    def _fsync_directory(self) -> None:
        """Make the manifest rename durable (no-op where directories
        cannot be opened, e.g. Windows)."""
        try:
            dirfd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dirfd)
        except OSError:
            pass
        finally:
            os.close(dirfd)

    def close(self) -> None:
        """Flush the manifest (writable devices) and close every handle."""
        if not self.readonly:
            self.sync()
        with self._handle_lock:
            for handle in self._handles.values():
                if isinstance(handle, int):
                    os.close(handle)
                else:
                    handle.close()  # type: ignore[attr-defined]
            self._handles.clear()

    def __enter__(self) -> "PersistentBlockDevice":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- file namespace -------------------------------------------------------

    def create(self, name: str, record_size: int, overwrite: bool = False) -> DiskFile:
        self._assert_writable()
        if name in self._files and not overwrite:
            raise StorageError(f"file {name!r} already exists")
        if name in self._files:
            self.delete(name)
        path = self.directory / f"{_safe_filename(name)}.blk"
        f = PersistentDiskFile(
            name, record_size, self.block_size // record_size, path
        )
        if f.block_capacity < 1:
            raise StorageError(f"record of {record_size} bytes does not fit in one block")
        path.write_bytes(b"")
        self._files[name] = f
        return f

    def delete(self, name: str) -> None:
        self._assert_writable()
        f = self._files.get(name)
        if f is None:
            raise StorageError(f"no such file: {name!r}")
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()  # type: ignore[attr-defined]
        try:
            os.unlink(f.path)  # type: ignore[attr-defined]
        except FileNotFoundError:
            pass
        del self._files[name]

    def rename(self, old: str, new: str, overwrite: bool = True) -> None:
        self._assert_writable()
        f = self.open(old)
        if new in self._files and not overwrite:
            raise StorageError(f"file {new!r} already exists")
        if new in self._files:
            self.delete(new)
        handle = self._handles.pop(old, None)
        if handle is not None:
            handle.close()  # type: ignore[attr-defined]
        new_path = self.directory / f"{_safe_filename(new)}.blk"
        os.replace(f.path, new_path)  # type: ignore[attr-defined]
        f.path = new_path  # type: ignore[attr-defined]
        del self._files[old]
        f.name = new
        self._files[new] = f

    # -- block I/O ---------------------------------------------------------------

    def _handle(self, f: PersistentDiskFile):
        handle = self._handles.get(f.name)
        if handle is None:
            with self._handle_lock:
                handle = self._handles.get(f.name)
                if handle is None:
                    if self.readonly:
                        # A raw fd read with os.pread — no seek position to
                        # share, so concurrent readers never interleave.
                        handle = os.open(f.path, os.O_RDONLY)
                    else:
                        handle = open(f.path, "r+b")
                    self._handles[f.name] = handle
        return handle

    def _encode(self, f: PersistentDiskFile, records: Sequence[Record]) -> bytes:
        if f.slot_struct is not None:
            return self._encode_fixed(f, records)
        parts = [_COUNT.pack(len(records))]
        try:
            for record in records:
                _encode_obj(record, parts)
        except struct.error:
            raise _unstorable(f.name, records) from None
        payload = b"".join(parts)
        room = f.slot_bytes - _CRC.size
        if len(payload) > room:
            raise StorageError(
                f"encoded block of {len(payload)} bytes overflows the "
                f"{room}-byte slot of {f.name!r}"
            )
        return payload.ljust(room, b"\0")

    @staticmethod
    def _encode_fixed(f: PersistentDiskFile, records: Sequence[Record]) -> bytes:
        """One whole-slot ``pack``: every field, zero-padded to capacity."""
        fields = f.fields
        if records and set(map(len, records)) != {fields}:
            record = next(r for r in records if len(r) != fields)
            raise StorageError(
                f"record {record!r} has {len(record)} fields; file "
                f"{f.name!r} stores {fields}-field records"
            )
        if len(records) > f.block_capacity:
            raise StorageError(
                f"block of {len(records)} records overflows the "
                f"{f.block_capacity}-record slot of {f.name!r}"
            )
        values = list(chain.from_iterable(records))
        values.extend(repeat(0, (f.block_capacity - len(records)) * fields))
        try:
            body = f.slot_struct.pack(*values)  # type: ignore[union-attr]
        except struct.error:
            raise _unstorable(f.name, records) from None
        return _COUNT.pack(len(records)) + body

    @staticmethod
    def _seal(payload: bytes) -> Tuple[bytes, int]:
        """Prefix a padded slot payload with its CRC32; returns the full
        slot bytes and the checksum value (also kept in the manifest)."""
        checksum = zlib.crc32(payload)
        return _CRC.pack(checksum) + payload, checksum

    @staticmethod
    def _decode(f: PersistentDiskFile, payload: bytes, index: int) -> List[Record]:
        (count,) = _COUNT.unpack_from(payload, 0)
        if count > f.block_capacity:
            # Only a slot written by something other than this device can
            # carry it: the CRC matched, but the header is not ours.
            raise CorruptBlockError(
                f.name, index,
                f"claims {count} records in a {f.block_capacity}-record slot",
            )
        if f.slot_struct is None:
            records: List[Record] = []
            offset = _COUNT.size
            for _ in range(count):
                record, offset = _decode_obj(payload, offset)
                records.append(record)  # type: ignore[arg-type]
            return records
        values = f.slot_struct.unpack_from(payload, _COUNT.size)
        fields: int = f.fields  # type: ignore[assignment]
        return list(zip(*[iter(values[: count * fields])] * fields))

    def _append_impl(self, f: DiskFile, records: Sequence[Record]) -> None:
        assert isinstance(f, PersistentDiskFile)
        self._assert_writable()
        slot, checksum = self._seal(self._encode(f, records))
        handle = self._handle(f)
        handle.seek(f._num_blocks * f.slot_bytes)
        handle.write(slot)
        handle.flush()
        f._num_blocks += 1
        f._block_counts.append(len(records))
        f.block_checksums.append(checksum)
        f.num_records += len(records)
        self.stats.record_write(sequential=True)

    def _read_slot(self, f: PersistentDiskFile, index: int) -> bytes:
        """Read and checksum-verify one slot; returns the payload bytes."""
        handle = self._handle(f)
        if isinstance(handle, int):
            slot = os.pread(handle, f.slot_bytes, index * f.slot_bytes)
        else:
            handle.seek(index * f.slot_bytes)
            slot = handle.read(f.slot_bytes)
        payload = slot[_CRC.size:]
        if len(slot) < f.slot_bytes or _CRC.unpack_from(slot)[0] != zlib.crc32(payload):
            raise CorruptBlockError(f.name, index)
        return payload

    def _read_impl(self, f: DiskFile, index: int, sequential: bool) -> Sequence[Record]:
        assert isinstance(f, PersistentDiskFile)
        payload = self._read_slot(f, index)
        self.stats.record_read(sequential=sequential)
        return self._decode(f, payload, index)

    def _overwrite_impl(self, f: DiskFile, index: int, records: Sequence[Record],
                        sequential: bool) -> None:
        assert isinstance(f, PersistentDiskFile)
        self._assert_writable()
        slot, checksum = self._seal(self._encode(f, records))
        handle = self._handle(f)
        handle.seek(index * f.slot_bytes)
        handle.write(slot)
        handle.flush()
        f.num_records += len(records) - f._block_counts[index]
        f._block_counts[index] = len(records)
        f.block_checksums[index] = checksum
        if self.pool is not None:
            self.pool.invalidate_block(f, index)
        self.stats.record_write(sequential=sequential)

    # -- crash surface -----------------------------------------------------

    def _damage_block(self, f: DiskFile, index: int) -> None:
        """Flip one stored payload byte of slot ``index`` on disk without
        touching its CRC prefix — simulated bit-rot; the next
        :meth:`_read_slot` raises :class:`CorruptBlockError`."""
        assert isinstance(f, PersistentDiskFile)
        self._assert_writable()
        handle = self._handle(f)
        position = index * f.slot_bytes + _CRC.size
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([(byte[0] if byte else 0) ^ 0x01]))
        handle.flush()
        if self.pool is not None:
            self.pool.invalidate_block(f, index)

    def _torn_write(self, f: DiskFile, records: Sequence[Record],
                    index: Optional[int] = None) -> None:
        """Leave half of an encoded slot on disk without updating any
        metadata — what a power loss mid-``write`` leaves behind.  A torn
        overwrite corrupts a live block (its CRC no longer matches); a torn
        append lands beyond the manifest's block count, so it is simply
        invisible after reopen.  No I/O is charged."""
        assert isinstance(f, PersistentDiskFile)
        self._assert_writable()
        slot, _ = self._seal(self._encode(f, records))
        position = (f._num_blocks if index is None else index) * f.slot_bytes
        handle = self._handle(f)
        handle.seek(position)
        handle.write(slot[: len(slot) // 2])
        handle.flush()
        if index is not None and self.pool is not None:
            self.pool.invalidate_block(f, index)

    def verify_block(self, f: DiskFile, index: int) -> Sequence[Record]:
        """Read block ``index`` and check its stored CRC (one sequential
        read); raises :class:`CorruptBlockError` on a torn/damaged slot."""
        assert isinstance(f, PersistentDiskFile)
        self._assert_live(f)
        if not 0 <= index < f._num_blocks:
            raise StorageError(f"block {index} out of range for {f.name!r}")
        payload = self._read_slot(f, index)
        self.stats.record_read(sequential=True)
        expected = f.block_checksums[index] if index < len(f.block_checksums) else None
        if expected is not None and zlib.crc32(payload) != expected:
            raise CorruptBlockError(f.name, index)
        return self._decode(f, payload, index)

    def remove_orphan_blocks(self) -> int:
        """Unlink ``.blk`` files not referenced by any live file — the
        debris of writes that never reached a manifest sync before a
        crash.  Returns the number of files removed."""
        self._assert_writable()
        referenced = {
            f.path.name for f in self._files.values()  # type: ignore[attr-defined]
        }
        removed = 0
        for path in self.directory.glob("*.blk"):
            if path.name not in referenced:
                path.unlink()
                removed += 1
        return removed


# -- shared read-only handles ---------------------------------------------
#
# The query service holds one persisted device open and serves many
# sessions from it.  ``open_shared`` hands out refcounted leases on a
# single read-only PersistentBlockDevice per (directory, block_size);
# each lease's ``reader()`` wraps the shared device in a ReadOnlyView
# with its own IOStats ledger, so tenants read the same OS file
# descriptors while their I/O is accounted separately.

_SHARED_LOCK = threading.Lock()
_SHARED: Dict[Tuple[str, int], "DeviceHandle"] = {}


class DeviceHandle:
    """A refcounted lease on a shared read-only :class:`PersistentBlockDevice`.

    Obtained from :func:`open_shared`; every holder must :meth:`close`
    (or use the handle as a context manager).  The underlying device and
    its file descriptors are closed when the last lease is released.
    """

    def __init__(self, key: Tuple[str, int], device: PersistentBlockDevice) -> None:
        self._key = key
        self.device = device
        self._refs = 1
        self._closed = False

    @property
    def refcount(self) -> int:
        with _SHARED_LOCK:
            return self._refs

    def _try_acquire(self) -> bool:
        # Caller holds _SHARED_LOCK.
        if self._closed:
            return False
        self._refs += 1
        return True

    def acquire(self) -> "DeviceHandle":
        """Take one more lease on the same device."""
        with _SHARED_LOCK:
            if not self._try_acquire():
                raise StorageError(
                    f"device handle for {self._key[0]} is closed"
                )
        return self

    def close(self) -> None:
        """Release this lease; the device closes with the last one."""
        with _SHARED_LOCK:
            if self._closed:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            self._closed = True
            if _SHARED.get(self._key) is self:
                del _SHARED[self._key]
        self.device.close()

    def reader(
        self,
        stats: Optional[IOStats] = None,
        budget: Optional[IOBudget] = None,
    ) -> "ReadOnlyView":
        """A new per-session reader over the shared device."""
        return ReadOnlyView(self.device, stats=stats, budget=budget)

    def __enter__(self) -> "DeviceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_shared(
    directory: PathLike, block_size: int = DEFAULT_BLOCK_SIZE
) -> DeviceHandle:
    """Open (or join) the shared read-only device for ``directory``.

    The first caller opens the device; later callers get a new lease on
    the same one, so N sessions share one set of file descriptors and
    one in-memory manifest.  Each caller owns exactly one release
    (:meth:`DeviceHandle.close`).
    """
    key = (str(Path(directory).resolve()), block_size)
    with _SHARED_LOCK:
        handle = _SHARED.get(key)
        if handle is not None and handle._try_acquire():
            return handle
    # Open outside the registry lock (disk I/O); losing a race here just
    # means two opens, and the loser's device is closed again.
    device = PersistentBlockDevice(directory, block_size=block_size, readonly=True)
    handle = DeviceHandle(key, device)
    with _SHARED_LOCK:
        existing = _SHARED.get(key)
        if existing is not None and existing._try_acquire():
            winner = existing
        else:
            _SHARED[key] = handle
            return handle
    device.close()
    return winner


class ReadOnlyView:
    """A per-session reader over a shared read-only device.

    Looks like a :class:`~repro.io.blocks.BlockDevice` to every reading
    code path (:class:`~repro.io.files.ExternalFile`,
    :class:`~repro.baselines.node_table.NodeTable`, ...), but delegates
    the physical slot reads to the shared base device while charging its
    *own* :class:`IOStats` ledger — the unit of per-tenant accounting.
    All mutators raise :class:`StorageError`.
    """

    def __init__(
        self,
        base: PersistentBlockDevice,
        stats: Optional[IOStats] = None,
        budget: Optional[IOBudget] = None,
    ) -> None:
        if not base.readonly:
            raise StorageError("ReadOnlyView requires a readonly base device")
        self._base = base
        self.block_size = base.block_size
        self.stats = stats if stats is not None else IOStats()
        if budget is not None:
            self.stats.budget = budget
        self.pool = None  # no shared buffer pool: charges stay per-session
        self.default_codec = base.default_codec

    # -- namespace (delegated, read-only) ---------------------------------

    def open(self, name: str) -> DiskFile:
        return self._base.open(name)

    def exists(self, name: str) -> bool:
        return self._base.exists(name)

    def list_files(self) -> List[str]:
        return self._base.list_files()

    def total_blocks(self) -> int:
        return self._base.total_blocks()

    # -- block I/O ---------------------------------------------------------

    def read_block(self, f: DiskFile, index: int, sequential: bool) -> Sequence[Record]:
        """Read one block of the shared device, charged to *this* ledger."""
        assert isinstance(f, PersistentDiskFile)
        self._base._assert_live(f)
        if not 0 <= index < f.num_blocks:
            raise StorageError(
                f"block {index} out of range for {f.name!r} ({f.num_blocks} blocks)"
            )
        payload = self._base._read_slot(f, index)
        self.stats.record_read(sequential=sequential)
        return self._base._decode(f, payload, index)

    # -- rejected mutators -------------------------------------------------

    def _reject(self, operation: str):
        raise StorageError(
            f"read-only session view of {self._base.directory}: {operation} rejected"
        )

    def create(self, name: str, record_size: int, overwrite: bool = False):
        self._reject("create")

    def delete(self, name: str) -> None:
        self._reject("delete")

    def rename(self, old: str, new: str, overwrite: bool = True) -> None:
        self._reject("rename")

    def temp_name(self, prefix: str = "tmp") -> str:
        self._reject("temp_name")

    def append_block(self, f: DiskFile, records: Sequence[Record]) -> None:
        self._reject("append_block")

    def overwrite_block(self, f: DiskFile, index: int, records: Sequence[Record],
                        sequential: bool = False) -> None:
        self._reject("overwrite_block")
