"""The columnar ``repro.sweep_cache/v2`` entry format.

Pins the documented layout, the lossless zero-copy round trip, the
integrity guarantee (a flipped byte anywhere or a write torn at any column
boundary is a miss that removes the file, and ``decode_entry_bytes``
refuses the same bytes), and the handling of v1 ``.json.gz``
leftovers: never read, reported by ``repro cache``, removed by
``repro cache --clear``.
"""

from __future__ import annotations

import gzip
import json
import struct
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.config.system import discrete_gpu_system
from repro.sim.engine import SimOptions, simulate
from repro.sim.resultcache import (
    CACHE_SCHEMA,
    ResultCache,
    decode_entry_bytes,
    encode_entry,
)
from repro.sim.serialize import result_columns, results_identical
from repro.testing.faults import plant_foreign_schema_entry

from tests.conftest import TINY_SCALE, build_offload_pipeline

KEY = "ab" + "0" * 62


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
    assert [name for name, _, _ in spans] == list(columns)
    assert any(name.startswith("touched_blocks/") for name in columns)
    for (name, start, end), row in zip(spans, header["columns"]):
        expected = np.ascontiguousarray(
            columns[name], dtype=columns[name].dtype.newbyteorder("<")
        )
        assert row[1:3] == [expected.dtype.str, expected.size]
        assert zlib.decompress(data[start:end]) == expected.tobytes()
    assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])


def test_round_trip_is_lossless_and_zero_copy(tmp_path, result):
    cache = ResultCache(tmp_path)
    cache.store(KEY, result, sim_wall_s=1.5)
    entry = cache.load(KEY)
    assert entry is not None and entry.sim_wall_s == 1.5
    assert results_identical(entry.result, result)
    for name, column in result_columns(entry.result).items():
        original = result_columns(result)[name]
        assert column.dtype == original.dtype, name
        # A read-only view straight over the inflated bytes: no copy.
        assert isinstance(column.base, bytes), name
        assert not column.flags.writeable, name


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
