"""Pluggable record codecs for the external operators.

Every intermediate the pipeline writes — sort runs, merge-pass outputs,
degree/cover files, per-level SCC-label files — is a stream of small
integer tuples, usually sorted by one of its fields.  The paper's cost
(and every figure this repo reproduces) is counted in block I/Os, so
shrinking the accounted bytes per record shrinks every term of the cost
model directly: fewer bytes → fewer blocks per run → fewer blocks per
merge pass.

Three codecs are provided:

* ``"fixed"`` — the identity codec: every record costs its declared
  fixed width, exactly as :class:`~repro.io.files.ExternalFile` charges.
  Selecting it reproduces the uncompressed pipeline (the ablation).
* ``"varint"`` — each field as a zigzag LEB128 varint.  Order-agnostic;
  used for intermediates written in no particular order (``E_add``,
  EM-SCC rewrite files).
* ``"gap-varint"`` — like ``"varint"``, but the *sort field* (the field
  the stream is ordered by) is delta-encoded against the previous record
  in the block.  Gap chains restart at block boundaries, so every block
  is independently decodable — the WebGraph trick applied to arbitrary
  record streams.  Zigzag deltas keep the codec correct on unsorted
  input (it merely compresses worse), which the property tests exercise.

Codecs implement both the *accounting* (:meth:`Codec.encoded_size`, what
the simulated device charges) and the *real byte encoding*
(:meth:`Codec.encode` / :meth:`Codec.decode`); the property tests pin
``len(encode(...)) == encoded_size(...)`` and roundtrip identity, so the
charged sizes are exactly what a real encoder would produce.

:class:`CompressedRecordFile` packages a codec with a
:class:`~repro.io.varfile.VarRecordFile` behind the same interface as
:class:`~repro.io.files.ExternalFile`, so every operator can produce and
consume either file kind; :func:`create_record_file` picks the kind from
the codec in effect (explicit argument, else the device default, else
:data:`DEFAULT_CODEC`).
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from itertools import accumulate, islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import StorageError
from repro.io.blocks import BlockDevice
from repro.io.files import ExternalFile
from repro.io.varfile import VarRecordFile, varint_size

__all__ = [
    "Codec",
    "FixedCodec",
    "VarintCodec",
    "GapVarintCodec",
    "CODECS",
    "DEFAULT_CODEC",
    "resolve_codec",
    "CompressedRecordFile",
    "RecordStore",
    "create_record_file",
    "record_file_from_records",
    "BATCH_CHUNK",
]

Record = Tuple[int, ...]

DEFAULT_CODEC = "gap-varint"
"""Codec used when neither the caller nor the device names one."""


BATCH_CHUNK = 4096
"""Records staged per batch append/size computation.  Large enough to
amortize the per-chunk setup, small enough that chunk buffers stay cache
resident; chunking is invisible to the output (the greedy block walk
carries the previous record across chunk boundaries)."""


# -- varint / zigzag primitives ---------------------------------------------


def zigzag_encode(value: int) -> int:
    """Map a signed int to an unsigned one (0, -1, 1, -2, ... -> 0, 1, 2, 3)."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)


def encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if value < 0:
        raise ValueError(f"varints encode non-negative integers, got {value}")
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def decode_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode one LEB128 varint at ``pos``; returns ``(value, next_pos)``."""
    value = 0
    shift = 0
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise ValueError("truncated varint") from None
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


# -- codecs ------------------------------------------------------------------


class Codec:
    """Size accounting + byte encoding for one record stream.

    Args:
        record_size: the stream's *logical* fixed width in bytes (what the
            uncompressed representation would charge per record); used for
            compression-ratio reporting and cost-model calibration.
    """

    name = "abstract"

    def __init__(self, record_size: int) -> None:
        if record_size <= 0:
            raise ValueError(f"record_size must be positive, got {record_size}")
        self.record_size = record_size

    def encoded_size(self, record: Record, prev: Optional[Record] = None) -> int:
        """Accounted bytes for ``record``; ``prev`` is the previous record
        in the same block (``None`` at a block start)."""
        raise NotImplementedError

    def encode(self, record: Record, prev: Optional[Record] = None) -> bytes:
        """The real byte encoding whose length :meth:`encoded_size` accounts."""
        raise NotImplementedError

    def decode(
        self, data: bytes, pos: int, num_fields: int, prev: Optional[Record] = None
    ) -> Tuple[Record, int]:
        """Decode one record at ``pos``; returns ``(record, next_pos)``."""
        raise NotImplementedError

    def decode_stream(self, data: bytes, num_fields: int) -> Iterator[Record]:
        """Decode a whole encoded block back into records."""
        pos = 0
        prev: Optional[Record] = None
        while pos < len(data):
            record, pos = self.decode(data, pos, num_fields, prev)
            prev = record
            yield record

    # -- block-granularity batch APIs --------------------------------------

    def encoded_sizes(
        self, records: Sequence[Record], prev: Optional[Record] = None
    ) -> List[int]:
        """Accounted bytes for each record of a contiguous slice.

        ``prev`` is the record immediately before the slice (``None`` at a
        stream or block start); within the slice each record's predecessor
        is the previous slice element.  Equals ``[encoded_size(r, p) ...]``
        element for element — subclasses override with tight loops, this
        generic version is the reference.
        """
        sizes: List[int] = []
        for record in records:
            sizes.append(self.encoded_size(record, prev))
            prev = record
        return sizes

    def encode_block(self, records: Sequence[Record]) -> bytes:
        """Encode a whole block of records (the chain restarts at the
        block start, exactly like the per-record writer's block cuts)."""
        out = bytearray()
        prev: Optional[Record] = None
        for record in records:
            out += self.encode(record, prev)
            prev = record
        return bytes(out)

    def decode_block(self, data: bytes, num_fields: int) -> List[Record]:
        """Decode one encoded block back into its record list (the batch
        counterpart of :meth:`decode_stream`)."""
        return list(self.decode_stream(data, num_fields))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(record_size={self.record_size})"


# struct format characters for the field widths struct can unpack natively;
# other widths take the generic int.from_bytes path.
_STRUCT_FIELD = {1: "B", 2: "H", 4: "I", 8: "Q"}


class FixedCodec(Codec):
    """The identity codec: every record costs the logical fixed width.

    Encoding packs each field as a fixed-width big-endian zigzag integer
    (``record_size / num_fields`` bytes per field — the repo's record
    layouts are all 4 bytes per field), so the roundtrip property holds
    for it too as long as the values fit.
    """

    name = "fixed"

    def encoded_size(self, record: Record, prev: Optional[Record] = None) -> int:
        return self.record_size

    def _field_width(self, num_fields: int) -> int:
        width, rem = divmod(self.record_size, num_fields)
        if rem or width <= 0:
            raise StorageError(
                f"{self.record_size}-byte records cannot hold {num_fields} "
                "equal-width fields"
            )
        return width

    def encode(self, record: Record, prev: Optional[Record] = None) -> bytes:
        width = self._field_width(len(record))
        out = bytearray()
        for value in record:
            unsigned = zigzag_encode(value)
            if unsigned >= 1 << (8 * width):
                raise StorageError(
                    f"value {value} does not fit in a {width}-byte fixed field"
                )
            out += unsigned.to_bytes(width, "big")
        return bytes(out)

    def decode(
        self, data: bytes, pos: int, num_fields: int, prev: Optional[Record] = None
    ) -> Tuple[Record, int]:
        width = self._field_width(num_fields)
        fields = []
        for _ in range(num_fields):
            fields.append(zigzag_decode(int.from_bytes(data[pos : pos + width], "big")))
            pos += width
        return tuple(fields), pos

    def encoded_sizes(
        self, records: Sequence[Record], prev: Optional[Record] = None
    ) -> List[int]:
        return [self.record_size] * len(records)

    def encode_block(self, records: Sequence[Record]) -> bytes:
        if not records:
            return b""
        width = self._field_width(len(records[0]))
        fmt = _STRUCT_FIELD.get(width)
        if fmt is not None:
            flat = [
                (value << 1) if value >= 0 else ((-value << 1) - 1)
                for record in records
                for value in record
            ]
            try:
                return struct.pack(f">{len(flat)}{fmt}", *flat)
            except struct.error:
                pass  # out-of-range value: rescan below for the exact error
        limit = 1 << (8 * width)
        out = bytearray()
        for record in records:
            for value in record:
                unsigned = (value << 1) if value >= 0 else ((-value << 1) - 1)
                if unsigned >= limit:
                    raise StorageError(
                        f"value {value} does not fit in a {width}-byte fixed field"
                    )
                out += unsigned.to_bytes(width, "big")
        return bytes(out)

    def decode_block(self, data: bytes, num_fields: int) -> List[Record]:
        width = self._field_width(num_fields)
        step = width * num_fields
        if len(data) % step:
            raise ValueError("truncated fixed-width block")
        fmt = _STRUCT_FIELD.get(width)
        if fmt is not None:
            unpacked = struct.unpack(f">{len(data) // width}{fmt}", data)
            decoded = [
                (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1) for u in unpacked
            ]
            grouped = iter(decoded)
            return list(zip(*([grouped] * num_fields)))
        from_bytes = int.from_bytes
        records: List[Record] = []
        append = records.append
        for start in range(0, len(data), step):
            fields = []
            pos = start
            for _ in range(num_fields):
                unsigned = from_bytes(data[pos : pos + width], "big")
                fields.append(
                    (unsigned >> 1) if (unsigned & 1) == 0 else -((unsigned + 1) >> 1)
                )
                pos += width
            append(tuple(fields))
        return records


class VarintCodec(Codec):
    """Every field as a zigzag LEB128 varint; order-agnostic."""

    name = "varint"

    def encoded_size(self, record: Record, prev: Optional[Record] = None) -> int:
        return sum(varint_size(zigzag_encode(value)) for value in record)

    def encode(self, record: Record, prev: Optional[Record] = None) -> bytes:
        return b"".join(encode_varint(zigzag_encode(value)) for value in record)

    def decode(
        self, data: bytes, pos: int, num_fields: int, prev: Optional[Record] = None
    ) -> Tuple[Record, int]:
        fields = []
        for _ in range(num_fields):
            unsigned, pos = decode_varint(data, pos)
            fields.append(zigzag_decode(unsigned))
        return tuple(fields), pos

    def encoded_sizes(
        self, records: Sequence[Record], prev: Optional[Record] = None
    ) -> List[int]:
        sizes: List[int] = []
        append = sizes.append
        if records and len(records[0]) == 2:
            # Edge records (the dominant stream shape): unpack directly and
            # size via a threshold chain — no per-field loop, no
            # bit_length() call for the small values sorted streams carry.
            try:
                # One listcomp (LIST_APPEND, no method call per record);
                # the walruses keep each zigzag value in a local for its
                # threshold chain.
                return [
                    (1 if (za := (a << 1) if a >= 0 else ((-a << 1) - 1))
                     < 0x80 else 2 if za < 0x4000 else
                     3 if za < 0x200000 else 4 if za < 0x10000000 else
                     (za.bit_length() + 6) // 7)
                    + (1 if (zb := (b << 1) if b >= 0 else ((-b << 1) - 1))
                       < 0x80 else 2 if zb < 0x4000 else
                       3 if zb < 0x200000 else 4 if zb < 0x10000000 else
                       (zb.bit_length() + 6) // 7)
                    for a, b in records
                ]
            except (TypeError, ValueError):
                pass  # mixed arity: rebuild on the generic path
        for record in records:
            nbytes = 0
            for value in record:
                zz = (value << 1) if value >= 0 else ((-value << 1) - 1)
                nbytes += 1 if zz < 0x80 else (zz.bit_length() + 6) // 7
            append(nbytes)
        return sizes

    def encode_block(self, records: Sequence[Record]) -> bytes:
        out = bytearray()
        emit = out.append
        for record in records:
            for value in record:
                zz = (value << 1) if value >= 0 else ((-value << 1) - 1)
                while zz >= 0x80:
                    emit((zz & 0x7F) | 0x80)
                    zz >>= 7
                emit(zz)
        return bytes(out)

    def decode_block(self, data: bytes, num_fields: int) -> List[Record]:
        records: List[Record] = []
        append = records.append
        pos = 0
        end = len(data)
        while pos < end:
            fields = []
            for _ in range(num_fields):
                value = 0
                shift = 0
                while True:
                    try:
                        byte = data[pos]
                    except IndexError:
                        raise ValueError("truncated varint") from None
                    pos += 1
                    value |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                fields.append(
                    (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)
                )
            append(tuple(fields))
        return records


_SIZER_MAX_WIDTH = 8
_GAP_SIZERS: Dict[Tuple[int, int], Callable[[Sequence[Record]], List[int]]] = {}


def _gap_sizer(width: int, gap: int) -> Callable[[Sequence[Record]], List[int]]:
    """Build (and cache) a fused size loop for ``width``-field records
    with the delta on field ``gap``.

    The hot streams come in a handful of fixed shapes — ``(src, dst)``
    edges sorted on either endpoint, ``(u, v, SCC)`` augmented edges,
    degree and cover records — and a per-shape listcomp beats the generic
    ``enumerate`` walk ~3x: every field unpacks straight into a local,
    every zigzag value feeds a constant threshold chain (no
    ``bit_length`` call for values under 4 varint bytes), and record
    ``i``'s gap base is record ``i-1``'s own field — a ``zip`` of the
    records against themselves shifted by one — so no running state
    survives the loop.  The generated source is exactly the expression a
    hand-written loop for that shape would spell out; the head record
    (the only one delta'd against the inter-chunk ``prev``) is *not*
    covered and stays with the caller.
    """
    sizer = _GAP_SIZERS.get((width, gap))
    if sizer is not None:
        return sizer
    values = [f"v{i}" for i in range(width)]
    prevs = ["p" if i == gap else "_" for i in range(width)]
    terms = []
    for i, v in enumerate(values):
        if i == gap:
            zz = f"(z{i} := (d << 1) if (d := {v} - p) >= 0 else ((-d << 1) - 1))"
        else:
            zz = f"(z{i} := ({v} << 1) if {v} >= 0 else ((-{v} << 1) - 1))"
        terms.append(
            f"(1 if {zz} < 0x80 else 2 if z{i} < 0x4000 else "
            f"3 if z{i} < 0x200000 else 4 if z{i} < 0x10000000 else "
            f"(z{i}.bit_length() + 6) // 7)"
        )
    source = (
        "def _sizes(records, _zip=zip, _islice=islice):\n"
        "    return [\n"
        f"        {' + '.join(terms)}\n"
        f"        for ({', '.join(prevs)},), ({', '.join(values)},)\n"
        "        in _zip(records, _islice(records, 1, None))\n"
        "    ]\n"
    )
    namespace = {"zip": zip, "islice": islice}
    exec(source, namespace)  # noqa: S102 - source built from two small ints
    sizer = namespace["_sizes"]
    _GAP_SIZERS[(width, gap)] = sizer
    return sizer


class GapVarintCodec(VarintCodec):
    """Varint fields with the sort field delta-encoded within each block.

    Args:
        record_size: the stream's logical fixed width.
        gap_field: index of the field the stream is sorted by (its deltas
            are small and non-negative on sorted input).  Zigzag deltas
            keep decoding correct even when the input is not sorted.
    """

    name = "gap-varint"

    def __init__(self, record_size: int, gap_field: int = 0) -> None:
        super().__init__(record_size)
        if gap_field < 0:
            raise ValueError(f"gap_field must be non-negative, got {gap_field}")
        self.gap_field = gap_field

    def _deltas(self, record: Record, prev: Optional[Record]) -> Iterator[int]:
        for index, value in enumerate(record):
            if prev is not None and index == self.gap_field:
                yield value - prev[index]
            else:
                yield value

    def encoded_size(self, record: Record, prev: Optional[Record] = None) -> int:
        # Open-coded delta/zigzag/size walk: this runs once per record on
        # the single-record append path and at every block cut of the
        # batch walk, where a generator pipeline costs more than the
        # arithmetic.
        gap = self.gap_field
        nbytes = 0
        for index, value in enumerate(record):
            if index == gap and prev is not None:
                value -= prev[index]
            zz = (value << 1) if value >= 0 else ((-value << 1) - 1)
            nbytes += 1 if zz < 0x80 else (zz.bit_length() + 6) // 7
        return nbytes

    def encode(self, record: Record, prev: Optional[Record] = None) -> bytes:
        return b"".join(
            encode_varint(zigzag_encode(value)) for value in self._deltas(record, prev)
        )

    def decode(
        self, data: bytes, pos: int, num_fields: int, prev: Optional[Record] = None
    ) -> Tuple[Record, int]:
        record, pos = super().decode(data, pos, num_fields, prev)
        if prev is not None and self.gap_field < num_fields:
            fields = list(record)
            fields[self.gap_field] += prev[self.gap_field]
            record = tuple(fields)
        return record, pos

    def encoded_sizes(
        self, records: Sequence[Record], prev: Optional[Record] = None
    ) -> List[int]:
        if not records:
            return []
        gap = self.gap_field
        if gap >= len(records[0]):
            return VarintCodec.encoded_sizes(self, records)
        width = len(records[0])
        if width <= _SIZER_MAX_WIDTH:
            # Fused per-shape loop (see :func:`_gap_sizer`): the listcomp
            # covers records[1:], whose gap base is the *previous slice
            # element*; the head — the only record delta'd against
            # ``prev`` — goes through the per-record walk.
            try:
                tail = _gap_sizer(width, gap)(records)
            except (TypeError, ValueError):
                pass  # ragged/non-integer records: generic walk below
            else:
                tail.insert(0, self.encoded_size(records[0], prev))
                return tail
        sizes: List[int] = []
        append = sizes.append
        prev_gap = prev[gap] if prev is not None else None
        for record in records:
            nbytes = 0
            for index, value in enumerate(record):
                if index == gap and prev_gap is not None:
                    value -= prev_gap
                zz = (value << 1) if value >= 0 else ((-value << 1) - 1)
                nbytes += 1 if zz < 0x80 else (zz.bit_length() + 6) // 7
            prev_gap = record[gap]
            append(nbytes)
        return sizes

    def encode_block(self, records: Sequence[Record]) -> bytes:
        if not records:
            return b""
        gap = self.gap_field
        if gap >= len(records[0]):
            return VarintCodec.encode_block(self, records)
        out = bytearray()
        emit = out.append
        prev_gap: Optional[int] = None
        for record in records:
            for index, value in enumerate(record):
                if index == gap and prev_gap is not None:
                    value -= prev_gap
                zz = (value << 1) if value >= 0 else ((-value << 1) - 1)
                while zz >= 0x80:
                    emit((zz & 0x7F) | 0x80)
                    zz >>= 7
                emit(zz)
            prev_gap = record[gap]
        return bytes(out)

    def decode_block(self, data: bytes, num_fields: int) -> List[Record]:
        gap = self.gap_field
        if gap >= num_fields:
            return VarintCodec.decode_block(self, data, num_fields)
        records: List[Record] = []
        append = records.append
        pos = 0
        end = len(data)
        prev_gap: Optional[int] = None
        while pos < end:
            fields = []
            for _ in range(num_fields):
                value = 0
                shift = 0
                while True:
                    try:
                        byte = data[pos]
                    except IndexError:
                        raise ValueError("truncated varint") from None
                    pos += 1
                    value |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                fields.append(
                    (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)
                )
            if prev_gap is not None:
                fields[gap] += prev_gap
            prev_gap = fields[gap]
            append(tuple(fields))
        return records


CODECS = {
    FixedCodec.name: FixedCodec,
    VarintCodec.name: VarintCodec,
    GapVarintCodec.name: GapVarintCodec,
}
"""Codec constructors by config name."""


def resolve_codec(
    codec: Union[None, str, Codec],
    record_size: int,
    sort_field: Optional[int] = 0,
    device: Optional[BlockDevice] = None,
) -> Codec:
    """Resolve a codec argument to a concrete :class:`Codec` instance.

    Args:
        codec: an instance (returned as-is), a name from :data:`CODECS`,
            or ``None`` — then the device's ``default_codec`` applies, and
            :data:`DEFAULT_CODEC` after that.
        record_size: the stream's logical fixed width.
        sort_field: the field index the stream is sorted by, or ``None``
            for unordered streams — ``"gap-varint"`` then degrades to
            plain ``"varint"`` (gaps need an ordered field to be small).
        device: consulted for its ``default_codec``.
    """
    if isinstance(codec, Codec):
        return codec
    name = codec
    if name is None and device is not None:
        name = device.default_codec
    if name is None:
        name = DEFAULT_CODEC
    if name not in CODECS:
        raise ValueError(
            f"unknown codec {name!r}; choose from {sorted(CODECS)}"
        )
    if name == GapVarintCodec.name:
        if sort_field is None:
            return VarintCodec(record_size)
        return GapVarintCodec(record_size, gap_field=sort_field)
    return CODECS[name](record_size)


# -- compressed record files -------------------------------------------------


class CompressedRecordFile:
    """A codec-compressed record file with the :class:`ExternalFile` surface.

    Records are stored as Python tuples (payloads are *accounted*, not
    serialized — see :mod:`repro.io.varfile`); each record is charged its
    codec-encoded size, with gap chains restarting at block boundaries so
    blocks stay independently decodable.

    Args:
        device: the simulated disk.
        name: file name on the device.
        record_size: the logical fixed width (for ratio reporting).
        codec: the resolved :class:`Codec`.
        overwrite: replace an existing file of the same name.
    """

    def __init__(
        self,
        device: BlockDevice,
        name: str,
        record_size: int,
        codec: Codec,
        overwrite: bool = False,
    ) -> None:
        self.device = device
        self.codec = codec
        self._record_size = record_size
        self._var = VarRecordFile(device, name, overwrite=overwrite)
        self._prev: Optional[Record] = None
        self._closed = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def create(
        cls,
        device: BlockDevice,
        name: str,
        record_size: int,
        codec: Codec,
        overwrite: bool = False,
    ) -> "CompressedRecordFile":
        """Create a new empty compressed file (mirrors ``ExternalFile.create``)."""
        return cls(device, name, record_size, codec, overwrite=overwrite)

    @classmethod
    def open(
        cls,
        device: BlockDevice,
        name: str,
        record_size: int,
        codec: Codec,
    ) -> "CompressedRecordFile":
        """Reattach to an existing compressed file, read-only (mirrors
        ``ExternalFile.open``; checkpoint resume reopens intermediates this
        way).  ``record_size`` and ``codec`` must match what the file was
        written with — the journal records both."""
        cf = cls.__new__(cls)
        cf.device = device
        cf.codec = codec
        cf._record_size = record_size
        cf._var = VarRecordFile.open(device, name)
        cf._prev = None
        cf._closed = True
        return cf

    # -- metadata ----------------------------------------------------------

    @property
    def name(self) -> str:
        """The file's name on the device."""
        return self._var.name

    @property
    def record_size(self) -> int:
        """The *logical* record width (the fixed-width equivalent)."""
        return self._record_size

    @property
    def num_records(self) -> int:
        """Number of records written (including any still buffered)."""
        return self._var.num_records

    @property
    def num_blocks(self) -> int:
        """Blocks on disk (excludes the unflushed tail buffer)."""
        return self._var.num_blocks

    @property
    def nbytes(self) -> int:
        """Logical payload size (records * fixed-width equivalent)."""
        return self.num_records * self._record_size

    @property
    def stored_bytes(self) -> int:
        """Accounted bytes after compression."""
        return self._var.payload_bytes

    @property
    def compression_ratio(self) -> float:
        """``logical / stored`` (higher is better; 1.0 when empty)."""
        return self.nbytes / self.stored_bytes if self.stored_bytes else 1.0

    def __len__(self) -> int:
        return self.num_records

    # -- writing -----------------------------------------------------------

    def append(self, record: Record) -> None:
        """Append one record through the codec-aware write buffer."""
        if self._closed:
            raise StorageError(f"file {self.name!r} is closed for writing")
        nbytes = self.codec.encoded_size(record, self._prev)
        if self._var.tail_bytes + nbytes > self.device.block_size:
            # The tail block closes before this record lands, so it opens
            # the next block and its gap chain restarts.  A block-start
            # encoding is never smaller than a gap encoding, so the
            # VarRecordFile flushes on exactly this append.
            nbytes = self.codec.encoded_size(record, None)
        self._var.append(record, nbytes)
        self._prev = record

    def extend(self, records: Iterable[Record]) -> None:
        """Append many records through the codec-aware write buffer.

        Computes the codec sizes for a whole chunk at once, replays the
        per-record writer's greedy block walk over the size array, and
        hands the chunk to the :class:`~repro.io.varfile.VarRecordFile` as
        pre-cut block slices — the resulting blocks, accounted bytes, and
        ledger charges are byte-identical to per-record :meth:`append`
        calls.
        """
        if self._closed:
            raise StorageError(f"file {self.name!r} is closed for writing")
        if isinstance(records, (list, tuple)):
            if len(records) <= BATCH_CHUNK:
                if records:
                    self._extend_chunk(records)
                return
            for start in range(0, len(records), BATCH_CHUNK):
                self._extend_chunk(records[start : start + BATCH_CHUNK])
            return
        iterator = iter(records)
        while True:
            chunk = list(islice(iterator, BATCH_CHUNK))
            if not chunk:
                return
            self._extend_chunk(chunk)

    def _extend_chunk(self, chunk: Sequence[Record]) -> None:
        """Batch-append one chunk: the per-record greedy walk over
        precomputed chain sizes.  ``sizes[i]`` starts as the gap-chain size
        against the previous record; exactly when :meth:`append` would
        close the tail block (``tail + size > B``) it is recomputed as a
        block-start size and the cut recorded — block-start encodings are
        never smaller than chain encodings, so the walk cuts where
        :meth:`append` does.

        Between cuts nothing inspects individual records, so the walk
        advances cut-to-cut: a C-level prefix sum plus a bisect finds each
        overflow index, and only those indices are touched from Python.
        A non-positive size (impossible for the built-in codecs) would
        break the prefix sum's monotonicity; the records before it are
        committed and the chunk fails there, as :meth:`append` would.
        """
        codec = self.codec
        block_size = self.device.block_size
        sizes = codec.encoded_sizes(chunk, self._prev)
        if min(sizes) <= 0:
            bad = next(i for i, nbytes in enumerate(sizes) if nbytes <= 0)
            if bad:
                self._extend_chunk(chunk[:bad])
            raise ValueError("record size must be positive")
        cum = list(accumulate(sizes))
        adj = 0  # total drift the cut reprices applied to ``sizes``
        prev_cum = 0  # true cumulative bytes before the current segment
        start = 0
        tail = self._var.tail_bytes
        cuts: List[int] = []
        n = len(sizes)
        while True:
            index = bisect_right(cum, block_size - tail + prev_cum - adj, start)
            if index >= n:
                break
            fill = tail if index == start else (
                tail + cum[index - 1] + adj - prev_cum
            )
            nbytes = codec.encoded_size(chunk[index], None)
            if nbytes != sizes[index]:
                adj += nbytes - sizes[index]
                sizes[index] = nbytes
            if nbytes <= 0 or nbytes > block_size:
                # Commit the valid prefix, then fail exactly like
                # :meth:`append` would on this record.
                self._var.append_batch(chunk[:index], sizes[:index], cuts)
                if index:
                    self._prev = chunk[index - 1]
                if nbytes <= 0:
                    raise ValueError("record size must be positive")
                raise StorageError(
                    f"record of {nbytes} bytes exceeds the block size "
                    f"{block_size}"
                )
            if fill + nbytes > block_size:
                cuts.append(index)
                tail = nbytes
            else:
                # With zigzag gap deltas on unsorted input the block-start
                # encoding can be *smaller* than the chain encoding; the
                # record then still fits and no cut happens, exactly like
                # VarRecordFile.append.
                tail = fill + nbytes
            prev_cum = cum[index] + adj
            start = index + 1
        self._var.append_batch(chunk, sizes, cuts)
        self._prev = chunk[-1]

    def close(self) -> None:
        """Flush the tail block and report the stream's byte footprint to
        the ledger; the file becomes read-only."""
        if self._closed:
            return
        self._var.close()
        self._closed = True
        self.device.stats.record_payload_write(
            self.num_records, self.nbytes, self.stored_bytes, self._record_size
        )

    # -- reading -----------------------------------------------------------

    def scan(self) -> Iterator[Record]:
        """Stream records front to back with sequential block reads."""
        if not self._closed:
            raise StorageError(f"close {self.name!r} before scanning it")
        return self._var.scan()  # type: ignore[return-value]

    def scan_blocks(self) -> Iterator[Sequence[Tuple[Record]]]:
        """Stream whole blocks sequentially (symmetric with
        :meth:`ExternalFile.scan_blocks`; entries are ``(record,)`` slots)."""
        if not self._closed:
            raise StorageError(f"close {self.name!r} before scanning it")
        return self._var.scan_blocks()

    def scan_block_range(self) -> Iterator[Sequence[Tuple[Record]]]:
        """Stream every block sequentially, mirroring
        :meth:`ExternalFile.scan_block_range`."""
        if not self._closed:
            raise StorageError(f"close {self.name!r} before scanning it")
        return self._var.scan_block_range()

    def read_block_random(self, index: int) -> Sequence[Record]:
        """Compressed intermediates are scan-only by design."""
        raise StorageError(
            f"compressed file {self.name!r} supports sequential scans only"
        )

    # -- management --------------------------------------------------------

    def rename(self, new_name: str, overwrite: bool = True) -> None:
        """Rename the file on the device (metadata only)."""
        self._var.rename(new_name, overwrite=overwrite)

    def delete(self) -> None:
        """Remove the file from the device."""
        self._var.delete()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompressedRecordFile({self.name!r}, codec={self.codec.name!r}, "
            f"records={self.num_records}, blocks={self.num_blocks})"
        )


RecordStore = Union[ExternalFile, CompressedRecordFile]
"""Either record-file kind; operators consume both through one interface."""


def create_record_file(
    device: BlockDevice,
    name: str,
    record_size: int,
    codec: Union[None, str, Codec] = None,
    sort_field: Optional[int] = 0,
    overwrite: bool = False,
) -> RecordStore:
    """Create a record file of the kind the codec in effect calls for.

    ``"fixed"`` yields a plain :class:`ExternalFile` (byte-identical to the
    uncompressed pipeline); anything else yields a
    :class:`CompressedRecordFile`.  ``sort_field`` names the field the
    stream will be ordered by (``None`` for unordered streams).
    """
    resolved = resolve_codec(codec, record_size, sort_field, device=device)
    if isinstance(resolved, FixedCodec):
        return ExternalFile.create(device, name, record_size, overwrite=overwrite)
    return CompressedRecordFile(device, name, record_size, resolved, overwrite=overwrite)


def record_file_from_records(
    device: BlockDevice,
    name: str,
    records: Iterable[Record],
    record_size: int,
    codec: Union[None, str, Codec] = None,
    sort_field: Optional[int] = 0,
    overwrite: bool = False,
) -> RecordStore:
    """Create, fill, and close a record file (mirrors
    :meth:`ExternalFile.from_records` for either file kind)."""
    out = create_record_file(
        device, name, record_size, codec=codec, sort_field=sort_field, overwrite=overwrite
    )
    out.extend(records)
    out.close()
    return out
