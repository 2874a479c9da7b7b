"""The columnar ``repro.sweep_cache/v2`` entry format.

Pins the documented layout (each integer column at its narrowest width,
block ids above 16 bits as ``uint32``, 16-bit block ids as stored zlib
blocks), the lossless round trip (read-only columns of the in-memory
dtypes, zero-copy where the stored width is the in-memory one), that
entries written before columns were narrowed still load, that block ids
too wide for ``BLOCK_DTYPE`` are refused rather than wrapped, the
integrity guarantee (a flipped byte anywhere or a write torn at any column
boundary is a miss that removes the file, and ``decode_entry_bytes``
refuses the same bytes), and the handling of v1 ``.json.gz`` leftovers
and of temp files left by interrupted stores: reported by ``repro
cache``, removed by ``repro cache --clear``.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config.system import discrete_gpu_system
from repro.sim.engine import SimOptions, simulate
from repro.sim.hierarchy import Component
from repro.sim.resultcache import (
    CACHE_SCHEMA,
    ResultCache,
    decode_entry_bytes,
    encode_entry,
)
from repro.sim.serialize import TOUCHED_PREFIX, result_columns, results_identical
from repro.testing.faults import plant_foreign_schema_entry
from repro.trace.stream import BLOCK_DTYPE

from tests.conftest import TINY_SCALE, build_offload_pipeline

KEY = "ab" + "0" * 62

#: Stored dtype and zlib level of each column of the ``result`` fixture.
LAYOUT = {
    "log_blocks": ("<u2", 0),
    "log_is_write": ("|b1", 1),
    "log_stage": ("|u1", 1),
    "log_component": ("|i1", 1),
    "logical_of_ordinal": ("|u1", 1),
    "touched_blocks/cpu": ("<u2", 1),
    "touched_blocks/gpu": ("<u2", 1),
    "touched_blocks/copy": ("<u2", 1),
}

#: The ``result`` fixture's entry as the encoder wrote it before columns were
#: narrowed: int64/int32 columns, every one at zlib level 1.  Written once;
#: nothing regenerates it.
FULL_WIDTH_ENTRY = (
    Path(__file__).parent / "fixtures" / "resultcache" / "offload_full_width.entry"
)


@pytest.fixture(scope="module")
def result():
    options = SimOptions(scale=TINY_SCALE, seed=3)
    return simulate(build_offload_pipeline(), discrete_gpu_system(), options)


@pytest.fixture(scope="module")
def data(result):
    return encode_entry(KEY, result, sim_wall_s=1.5)


def _layout(data):
    """Header and ``(name, start, end)`` column spans, read as documented."""
    assert data[:8] == b"RPRSWC2\n"
    (size,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12 : 12 + size])
    spans, offset = [], 12 + size
    for name, _dtype, _length, nbytes in header["columns"]:
        spans.append((name, offset, offset + nbytes))
        offset += nbytes
    assert offset == len(data) - 4
    return header, spans


def _flip(data, index):
    return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1 :]


def test_layout_matches_the_documented_format(data, result):
    header, spans = _layout(data)
    assert (header["schema"], header["key"]) == (CACHE_SCHEMA, KEY)
    assert header["sim_wall_s"] == 1.5
    assert "log" not in header["result"]
    assert "touched_blocks" not in header["result"]
    columns = result_columns(result)
    assert [name for name, _, _ in spans] == list(columns) == list(LAYOUT)
    for (name, start, end), row in zip(spans, header["columns"]):
        dtype, level = LAYOUT[name]
        narrowed = columns[name].astype(dtype).tobytes()
        assert row[1:3] == [dtype, columns[name].size], name
        assert zlib.decompress(data[start:end]) == narrowed, name
        assert data[start:end] == zlib.compress(narrowed, level), name
    assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])


def test_round_trip_is_lossless_and_zero_copy(tmp_path, result):
    cache = ResultCache(tmp_path)
    cache.store(KEY, result, sim_wall_s=1.5)
    header, _ = _layout(cache.path_for(KEY).read_bytes())
    stored = {name: np.dtype(dtype) for name, dtype, _, _ in header["columns"]}
    entry = cache.load(KEY)
    assert entry is not None and entry.sim_wall_s == 1.5
    assert results_identical(entry.result, result)
    widened = set()
    for name, column in result_columns(entry.result).items():
        original = result_columns(result)[name]
        assert column.dtype == original.dtype, name
        assert not column.flags.writeable, name
        if stored[name] == original.dtype:
            # A read-only view straight over the inflated bytes: no copy.
            assert isinstance(column.base, bytes), name
        else:
            widened.add(name)
    assert "log_blocks" in widened and "log_component" not in widened


def test_full_width_entries_still_load(tmp_path, result):
    """Entries written before narrowing keep every hit, with the same arrays."""
    data = FULL_WIDTH_ENTRY.read_bytes()
    header, _ = _layout(data)
    assert {row[1] for row in header["columns"]} == {"<i8", "|b1", "<i4", "|i1"}
    cache = ResultCache(tmp_path)
    path = cache.path_for(KEY)
    path.parent.mkdir(parents=True)
    path.write_bytes(data)
    entry = cache.load(KEY)
    assert entry is not None
    assert results_identical(entry.result, result)
    for name, column in result_columns(entry.result).items():
        assert column.dtype == result_columns(result)[name].dtype, name
        assert not column.flags.writeable, name


# -- the width and level rule -------------------------------------------------

#: In-memory dtype of every integer column a result carries.
INTEGER_COLUMNS = {
    "log_blocks": BLOCK_DTYPE,
    "log_stage": np.int32,
    "log_component": np.int8,
    "logical_of_ordinal": np.int32,
    TOUCHED_PREFIX + "gpu": BLOCK_DTYPE,
}

#: Block-id columns, which are encoded as if they were int64.
ID_COLUMNS = ("log_blocks", TOUCHED_PREFIX + "gpu")

#: Column maxima on either side of every unsigned width an id can reach.
MAXIMA = (0, 255, 256, 65535, 65536, 2**31 - 1)


def _with_column(result, name, column):
    if name.startswith(TOUCHED_PREFIX):
        component = Component(name[len(TOUCHED_PREFIX):])
        blocks = {**result.touched_blocks, component: column}
        return dataclasses.replace(result, touched_blocks=blocks)
    return dataclasses.replace(result, **{name: column})


def _expected_width(name, column):
    """The narrowest unsigned dtype below the column's encoding (its own
    dtype, int64 for a block-id column) that holds it, else the encoding."""
    encoding = np.dtype(np.int64) if name in ID_COLUMNS else column.dtype
    if column.size and column.min() >= 0:
        for dtype in map(np.dtype, (np.uint8, np.uint16, np.uint32)):
            if dtype.itemsize >= encoding.itemsize:
                break
            if column.max() <= np.iinfo(dtype).max:
                return dtype
    return encoding


def _stored_round_trip(result, name, column):
    """Encode ``column`` as ``name``; check the decode; return (dtype, level)."""
    data = encode_entry(KEY, _with_column(result, name, column))
    header, spans = _layout(data)
    (row,) = [row for row in header["columns"] if row[0] == name]
    (blob,) = [data[start:end] for span, start, end in spans if span == name]
    stored = np.dtype(row[1])
    narrowed = column.astype(stored).tobytes()
    assert zlib.decompress(blob) == narrowed
    level = 0 if name == "log_blocks" and stored.itemsize <= 2 else 1
    assert blob == zlib.compress(narrowed, level)

    entry = decode_entry_bytes(KEY, data)
    assert entry is not None
    decoded = result_columns(entry.result)[name]
    assert decoded.dtype == column.dtype
    assert np.array_equal(decoded, column)
    assert not decoded.flags.writeable
    return stored.str, level


@pytest.mark.parametrize(
    "high, stored",
    [(0, "|u1"), (255, "|u1"), (256, "<u2"), (65535, "<u2"),
     (65536, "<u4"), (2**31 - 1, "<u4")],
)
def test_block_ids_are_stored_at_the_narrowest_width(result, high, stored):
    column = np.array([high, 0, high // 2, high], dtype=BLOCK_DTYPE)
    level = 0 if stored in ("|u1", "<u2") else 1
    assert _stored_round_trip(result, "log_blocks", column) == (stored, level)


@pytest.mark.parametrize(
    "high, stored", [(2**31, "<u4"), (2**32 - 1, "<u4"), (2**32, "<i8")]
)
@pytest.mark.parametrize("name", ID_COLUMNS)
def test_block_ids_that_do_not_fit_are_a_miss(tmp_path, result, name, high, stored):
    """A CRC-valid entry whose ids do not fit ``BLOCK_DTYPE`` (int64 ids, as
    a result built by hand holds them) is unreadable, not a wrapped result."""
    column = np.array([high, 0, high // 2, high], dtype=np.int64)
    data = encode_entry(KEY, _with_column(result, name, column))
    header, _ = _layout(data)
    assert [row[1] for row in header["columns"] if row[0] == name] == [stored]
    assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])
    assert decode_entry_bytes(KEY, data) is None
    cache = ResultCache(tmp_path)
    path = cache.path_for(KEY)
    path.parent.mkdir(parents=True)
    path.write_bytes(data)
    assert cache.load(KEY) is None
    assert not path.exists()


@pytest.mark.parametrize("name", sorted(INTEGER_COLUMNS))
def test_empty_and_negative_columns_keep_their_dtype(result, name):
    """Stored at their encoding (int64 for block ids, as before ids were
    32-bit), loaded back at their own dtype."""
    dtype = np.dtype(INTEGER_COLUMNS[name])
    encoding = "<i8" if name in ID_COLUMNS else dtype.str
    for column in (np.empty(0, dtype), np.array([3, -1, 100], dtype)):
        assert _stored_round_trip(result, name, column) == (encoding, 1)


@st.composite
def _integer_columns(draw):
    name = draw(st.sampled_from(sorted(INTEGER_COLUMNS)))
    info = np.iinfo(INTEGER_COLUMNS[name])
    size = draw(st.integers(0, 40))
    high = draw(
        st.sampled_from([m for m in MAXIMA if m <= info.max])
        | st.integers(0, info.max)
    )
    values = draw(st.lists(st.integers(0, high), max_size=size))
    if values:
        values[draw(st.integers(0, len(values) - 1))] = high
        if draw(st.booleans()):
            values.append(draw(st.integers(int(info.min), -1)))
    return name, np.array(values, dtype=info.dtype)


@settings(max_examples=150, deadline=None)
@given(case=_integer_columns())
def test_every_integer_column_is_stored_at_its_narrowest_width(result, case):
    name, column = case
    stored, level = _stored_round_trip(result, name, column)
    assert stored == _expected_width(name, column).str
    assert (level == 0) == (name == "log_blocks" and np.dtype(stored).itemsize <= 2)


def _damaged(data):
    """One flipped byte in every region, and a tear at every boundary."""
    header, spans = _layout(data)
    header_end = spans[0][1]
    cases = [
        ("magic", _flip(data, 0)),
        ("header length", _flip(data, 8)),
        ("header", _flip(data, (12 + header_end) // 2)),
        ("crc trailer", _flip(data, len(data) - 1)),
        ("truncated header", data[: header_end - 1]),
        ("truncated before trailer", data[:-4]),
        ("empty", b""),
    ]
    for name, start, end in spans:
        cases.append((f"{name} first byte", _flip(data, start)))
        cases.append((f"{name} last byte", _flip(data, end - 1)))
        cases.append((f"truncated at {name}", data[:start]))
        cases.append((f"truncated mid {name}", data[: (start + end) // 2]))
    return cases


def test_every_damaged_copy_is_refused_and_removed(tmp_path, data):
    cache = ResultCache(tmp_path)
    path = cache.path_for(KEY)
    cases = _damaged(data)
    assert len(cases) > 20
    for label, bad in cases:
        assert bad != data, label
        assert decode_entry_bytes(KEY, bad) is None, label
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(bad)
        assert cache.load(KEY) is None, label
        assert not path.exists(), f"load kept {label}"
    # The undamaged bytes pass both.
    assert decode_entry_bytes(KEY, data) is not None
    path.write_bytes(data)
    assert cache.load(KEY) is not None


def test_entry_of_another_key_is_refused(tmp_path, data):
    other = "cd" + "0" * 62
    assert decode_entry_bytes(other, data) is None
    cache = ResultCache(tmp_path)
    path = cache.path_for(other)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    assert cache.load(other) is None
    assert not path.exists()


def test_foreign_schema_entry_has_a_valid_crc(tmp_path):
    """The planted foreign entry gets past the checksum to the schema check."""
    cache = ResultCache(tmp_path)
    path = plant_foreign_schema_entry(cache, KEY)
    planted = path.read_bytes()
    header, _ = _layout(planted)
    assert header["schema"] == "somebody.else/v9"
    assert struct.unpack("<I", planted[-4:])[0] == zlib.crc32(planted[:-4])
    assert cache.load(KEY) is None
    assert not path.exists()


def test_v1_entries_are_never_read_but_reported_and_cleared(
    tmp_path, result, capsys
):
    cache = ResultCache(tmp_path)
    cache.store(KEY, result)
    legacy = [
        tmp_path / name[:2] / f"{name}.json.gz" for name in (KEY, "ef" + "1" * 62)
    ]
    for path in legacy:
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"schema": "repro.sweep_cache/v1", "key": path.name[:64]}
        path.write_bytes(gzip.compress(json.dumps(envelope).encode()))
    legacy_bytes = sum(path.stat().st_size for path in legacy)

    assert len(cache) == 1
    assert cache.legacy() == (2, legacy_bytes)
    cache.path_for(KEY).unlink()
    assert cache.load(KEY) is None  # a v1 file is no fallback...
    assert all(path.exists() for path in legacy)  # ...and is left alone
    cache.store(KEY, result)

    assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries            1" in out
    assert "legacy v1 entries  2 (" in out

    assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
    assert "cleared 3 cached results" in capsys.readouterr().out
    assert not any(path.exists() for path in legacy)
    assert len(cache) == 0 and cache.legacy() == (0, 0)


def test_interrupted_stores_are_reported_and_cleared(tmp_path, result, capsys):
    cache = ResultCache(tmp_path)
    cache.store(KEY, result)
    # What a store killed between mkstemp and os.replace leaves behind.
    fd, name = tempfile.mkstemp(
        dir=cache.path_for(KEY).parent, prefix=f".{KEY[:8]}-", suffix=".tmp"
    )
    with os.fdopen(fd, "wb") as raw:
        raw.write(bytes(4096))

    assert len(cache) == 1
    assert cache.partial() == (1, 4096)
    assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries            1" in out
    assert "partial writes     1 (0.0 MB, interrupted stores)" in out

    assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
    assert "cleared 2 cached results" in capsys.readouterr().out
    assert not os.path.exists(name)
    assert len(cache) == 0 and cache.partial() == (0, 0)
