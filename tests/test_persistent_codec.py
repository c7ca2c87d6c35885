"""The fixed-width slot codec of :mod:`repro.io.persistent`.

A fixed-width file packs and unpacks a whole slot with one precompiled
``struct.Struct``.  The per-field encoder and decoder it replaced are kept
here as the reference: every slot must equal theirs byte for byte, and
decode must invert encode, for any arity, fill and ``int64`` value.
"""

import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import CorruptBlockError, StorageError
from repro.io.files import ExternalFile
from repro.io.persistent import (
    PersistentBlockDevice,
    PersistentDiskFile,
    ReadOnlyView,
)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_FIELD = struct.Struct("<q")
_COUNT = struct.Struct("<I")
_CRC = struct.Struct("<I")

SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _oracle_encode(records, fields, capacity):
    """The per-field encoder: count header, one ``pack`` per field, then
    zero padding to the slot's payload room."""
    parts = [_COUNT.pack(len(records))]
    for record in records:
        assert len(record) == fields
        for value in record:
            parts.append(_FIELD.pack(value))
    room = _COUNT.size + capacity * fields * _FIELD.size
    return b"".join(parts).ljust(room, b"\0")


def _oracle_decode(payload, fields):
    """The per-field decoder: one ``unpack_from`` per field."""
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    records = []
    for _ in range(count):
        records.append(tuple(
            _FIELD.unpack_from(payload, offset + i * _FIELD.size)[0]
            for i in range(fields)
        ))
        offset += fields * _FIELD.size
    return records


def _file(fields, capacity, name="slots"):
    return PersistentDiskFile(name, 4 * fields, capacity, path=None)


int64s = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(INT64_MIN, INT64_MAX),
)


@st.composite
def slots(draw):
    """``(fields, capacity, records)`` with 0..capacity records."""
    fields = draw(st.integers(1, 4))
    capacity = draw(st.integers(1, 12))
    count = draw(st.integers(0, capacity))
    records = draw(st.lists(
        st.tuples(*[int64s] * fields), min_size=count, max_size=count
    ))
    return fields, capacity, records


@pytest.fixture
def device(tmp_path):
    return PersistentBlockDevice(tmp_path / "disk", block_size=64)


@SETTINGS
@given(slot=slots())
def test_slot_bytes_match_the_per_field_encoder(device, slot):
    fields, capacity, records = slot
    f = _file(fields, capacity)
    payload = device._encode(f, records)
    assert payload == _oracle_encode(records, fields, capacity)
    assert len(payload) == f.slot_bytes - _CRC.size


@SETTINGS
@given(slot=slots())
def test_decode_inverts_encode(device, slot):
    fields, capacity, records = slot
    f = _file(fields, capacity)
    payload = device._encode(f, records)
    decoded = device._decode(f, payload, 0)
    assert decoded == records
    assert decoded == _oracle_decode(payload, fields)
    assert all(type(record) is tuple for record in decoded)


@pytest.mark.parametrize("bad", [INT64_MAX + 1, INT64_MIN - 1, 1 << 80, 1.5, "7"])
@pytest.mark.parametrize("fields", [1, 2, 3])
def test_value_outside_int64_is_a_storage_error(device, fields, bad):
    f = _file(fields, 4, name="edges")
    record = tuple(bad if i == fields - 1 else i for i in range(fields))
    with pytest.raises(StorageError) as excinfo:
        device._encode(f, [(0,) * fields, record])
    message = str(excinfo.value)
    assert "'edges'" in message and repr(bad) in message


def test_var_file_value_outside_int64_is_a_storage_error(device):
    f = PersistentDiskFile("payloads", 1, 64, path=None)
    with pytest.raises(StorageError, match="9223372036854775808"):
        device._encode(f, [(1, (2, INT64_MAX + 1))])


def test_too_many_records_is_a_storage_error(device):
    f = _file(2, 3, name="pairs")
    with pytest.raises(StorageError, match="overflows"):
        device._encode(f, [(i, i) for i in range(4)])


def test_wrong_arity_named_after_an_ok_record(device):
    f = _file(2, 4)
    with pytest.raises(StorageError, match=r"record \(5,\) has 1 fields"):
        device._encode(f, [(1, 2), (5,), (3, 4)])


@pytest.mark.parametrize("read", ["scan", "verify", "view"])
def test_checksum_valid_count_beyond_capacity_is_corrupt(tmp_path, read):
    directory = tmp_path / "disk"
    device = PersistentBlockDevice(directory, block_size=64)
    ef = ExternalFile.from_records(device, "data", [(1, 2), (3, 4)], 8)
    f = ef._file
    # Rewrite the slot with a count header past the 8-record capacity and
    # a matching CRC, so only the header check can catch it.
    payload = _COUNT.pack(f.block_capacity + 1) + bytes(f.slot_bytes - 8)
    with open(f.path, "r+b") as fh:
        fh.write(_CRC.pack(zlib.crc32(payload)) + payload)
    f.block_checksums[0] = zlib.crc32(payload)
    device.close()
    if read == "view":
        base = PersistentBlockDevice(directory, block_size=64, readonly=True)
        view = ReadOnlyView(base)
        call = lambda: view.read_block(base.open("data"), 0, sequential=True)
    else:
        base = PersistentBlockDevice(directory, block_size=64)
        if read == "scan":
            call = lambda: list(ExternalFile.open(base, "data").scan())
        else:
            call = lambda: base.verify_block(base.open("data"), 0)
    with pytest.raises(CorruptBlockError) as excinfo:
        call()
    assert excinfo.value.name == "data" and excinfo.value.index == 0
    assert "9 records in a 8-record slot" in str(excinfo.value)
    base.close()
