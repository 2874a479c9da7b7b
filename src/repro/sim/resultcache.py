"""Persistent, content-addressed cache of simulation results.

Every figure of Sections IV/V is derived from the same 46x2 sweep, so the
sweep harness (:mod:`repro.experiments.parallel`) stores each finished
:class:`~repro.sim.results.SimResult` on disk keyed by a stable hash of
everything that determines its value:

* the :class:`~repro.workloads.spec.BenchmarkSpec` (all metadata fields;
  the ``build`` callable is excluded — pipeline-builder changes are covered
  by the engine version tag),
* the sweep version string (``copy`` / ``limited-copy``),
* the full :class:`~repro.config.system.SystemConfig`,
* the full :class:`~repro.sim.engine.SimOptions` (including ``scale`` and
  ``seed`` — two sweeps at different scales never collide), and
* :data:`repro.sim.engine.ENGINE_VERSION`, so bumping the tag invalidates
  every archived result at once.

Keys are the SHA-256 of the canonical JSON (sorted keys, no whitespace) of
those inputs, which makes them independent of dict insertion order, process
hash randomization, and restarts.

Each entry is one ``{key}.entry`` file in the columnar
``repro.sweep_cache/v2`` layout, all integers little-endian:

* the 8-byte magic: ``RPRSWC2`` and a newline;
* a ``uint32`` byte length, then a JSON header: ``schema``, ``key``,
  ``sim_wall_s``, ``result`` (the lossless ``repro.sim_result/v2-full``
  dict of :mod:`repro.sim.serialize` without its array fields) and
  ``columns``, a table of ``[name, dtype, length, byte count]`` rows
  giving each column's *stored* dtype;
* each array column in table order (the five off-chip log columns, then
  one per component's ``touched_blocks``).  A non-negative integer column
  is stored at the narrowest unsigned width (``uint8``/``16``/``32``)
  that holds its maximum, when that is narrower than its in-memory dtype;
  any other column keeps its dtype.  Block-id columns are encoded as
  int64 columns, their in-memory width before ids became 32-bit, so ids
  above 16 bits are stored as ``uint32``, and empty ones as int64: entry
  bytes did not change with the width.  Columns are zlib level 1, except
  ``log_blocks`` stored in 16 bits or fewer, which is zlib-framed stored
  blocks (level 0): such block ids barely compress;
* a ``uint32`` CRC-32 of every byte before it.

Loading checks the CRC, schema and key, inflates each column and reads it
back with ``np.frombuffer``; :func:`~repro.sim.serialize.result_from_dict`
converts narrowed columns to their in-memory dtypes, and an entry whose
block ids do not fit :data:`~repro.trace.stream.BLOCK_DTYPE` is
unreadable, never wrapped.  Every array of a
loaded result is read-only, columns stored at their in-memory width are
zero-copy views of the inflated bytes, and no column ever passes through
Python objects.  Entries written before columns were narrowed (every
integer column full width, all at level 1) load the same way.  Writes are
atomic (temp file + ``os.replace``), so concurrent sweeps sharing one
cache directory cannot corrupt it.  The v2-full
schema is forward-compatible with optional result fields (``violations``
from the invariant monitor), while stale *semantics* are caught by the
:data:`~repro.sim.engine.ENGINE_VERSION` tag in the key.

Entries of the gzip-JSON ``repro.sweep_cache/v1`` format
(``{key}.json.gz``) are never read: the schema is part of every key, so
they can only miss.  :meth:`ResultCache.legacy` counts them and
:meth:`ResultCache.clear` removes them, as it does the temp files of
stores killed before their rename (:meth:`ResultCache.partial`).

The default location is ``~/.cache/repro-sweeps``, overridable with the
``REPRO_CACHE_DIR`` environment variable or an explicit ``cache_dir``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.config.system import SystemConfig
from repro.sim.engine import ENGINE_VERSION, SimOptions
from repro.sim.results import SimResult
from repro.sim.serialize import (
    TOUCHED_PREFIX,
    join_columns,
    result_columns,
    result_from_dict,
    result_header,
)
from repro.workloads.spec import BenchmarkSpec

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Schema tag of the on-disk entry format.
CACHE_SCHEMA = "repro.sweep_cache/v2"

#: File suffix of current entries, of the never-read v1 entries, and of
#: the temp file a store writes before renaming it into place.
ENTRY_SUFFIX = ".entry"
LEGACY_SUFFIX = ".json.gz"
TEMP_SUFFIX = ".tmp"

_MAGIC = b"RPRSWC2\n"
_U32 = struct.Struct("<I")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-sweeps``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-sweeps"


def canonical(value: Any) -> Any:
    """Reduce configs to JSON-able data with a stable, order-free form.

    Dataclasses become field-name dicts, enums their values, tuples lists;
    dict keys are stringified so the canonical JSON dump (sorted keys) is
    insensitive to insertion order.  Unsupported types raise ``TypeError``
    rather than hashing something unstable like a ``repr`` with object ids.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for cache keying")


def spec_fingerprint(spec: BenchmarkSpec) -> Dict[str, Any]:
    """Hashable view of a benchmark spec (every field but ``build``)."""
    return {
        f.name: canonical(getattr(spec, f.name))
        for f in dataclasses.fields(spec)
        if f.name != "build"
    }


def cache_key(
    spec: BenchmarkSpec,
    version: str,
    system: SystemConfig,
    options: SimOptions,
    engine_version: str = ENGINE_VERSION,
) -> str:
    """Stable SHA-256 key of one (benchmark, version, system, options) run."""
    payload = {
        "schema": CACHE_SCHEMA,
        "engine": engine_version,
        "benchmark": spec_fingerprint(spec),
        "version": version,
        "system": canonical(system),
        "options": canonical(options),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """A stored result plus the wall time its simulation originally took.

    ``sim_wall_s`` lets sweep metrics estimate the serial time a cache hit
    saved without re-running anything.
    """

    result: SimResult
    sim_wall_s: float


#: Widths a non-negative integer column may be stored at, narrowest first.
_UNSIGNED = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32))


#: The dtype block-id columns are encoded as (see the module docstring).
_ID_ENCODING = np.dtype(np.int64)


def _narrowest(column: np.ndarray, encoding: np.dtype) -> np.ndarray:
    """``column`` encoded as a column of ``encoding``: at the narrowest
    unsigned width that holds its maximum, when that is narrower.

    Only non-negative integer columns narrow; bools, columns holding a
    negative value and empty columns come back at ``encoding``.
    """
    if column.dtype.kind in "iu" and column.size and column.min() >= 0:
        high = column.max()
        for dtype in _UNSIGNED:
            if dtype.itemsize >= encoding.itemsize:
                break
            if high <= np.iinfo(dtype).max:
                return column.astype(dtype)
    return column.astype(encoding, copy=False)


def pack_entry(meta: Dict[str, Any], columns: Dict[str, np.ndarray]) -> bytes:
    """Lay out one entry: magic, JSON header, zlib columns, CRC-32 trailer.

    ``meta`` holds the header fields; the column table, which records each
    column's stored (possibly narrowed) dtype, is added here.
    """
    table, blobs = [], []
    for name, column in columns.items():
        ids = name == "log_blocks" or name.startswith(TOUCHED_PREFIX)
        stored = _narrowest(column, _ID_ENCODING if ids else column.dtype)
        data = np.ascontiguousarray(stored, dtype=stored.dtype.newbyteorder("<"))
        # Level 1 shrinks most columns ~5x; level 6 saves another ~8% at ~5x
        # the time (lonestar/mst at 1/32), and stores must stay cheap.  Block
        # ids of 16 bits or fewer shrink only ~11% at level 1, so they are
        # framed as stored blocks (level 0): still a valid zlib stream.
        level = 0 if name == "log_blocks" and data.dtype.itemsize <= 2 else 1
        blobs.append(zlib.compress(data, level))
        table.append([name, data.dtype.str, data.size, len(blobs[-1])])
    header = json.dumps({**meta, "columns": table}, separators=(",", ":")).encode()
    parts = [_MAGIC, _U32.pack(len(header)), header, *blobs]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, _U32.pack(crc)])


def encode_entry(key: str, result: SimResult, sim_wall_s: float = 0.0) -> bytes:
    """The entry bytes :meth:`ResultCache.store` writes for ``result``."""
    meta = {
        "schema": CACHE_SCHEMA,
        "key": key,
        "sim_wall_s": sim_wall_s,
        "result": result_header(result),
    }
    return pack_entry(meta, result_columns(result))


def decode_entry_bytes(key: str, data: bytes) -> Optional[CacheEntry]:
    """Parse raw entry bytes for ``key``: the one decoder of the cache,
    which :meth:`ResultCache.load` runs on file contents.  Anything torn,
    bit-flipped, foreign or mis-keyed returns ``None``.
    """
    view = memoryview(data)
    body = view[: len(view) - _U32.size]
    if (
        len(view) < len(_MAGIC) + 2 * _U32.size
        or body[: len(_MAGIC)] != _MAGIC
        or zlib.crc32(body) != _U32.unpack_from(view, len(body))[0]
    ):
        return None
    try:
        start = len(_MAGIC) + _U32.size
        offset = start + _U32.unpack_from(body, len(_MAGIC))[0]
        meta = json.loads(bytes(body[start:offset]))
        if meta["schema"] != CACHE_SCHEMA or meta["key"] != key:
            return None
        columns = {}
        for name, dtype, length, nbytes in meta["columns"]:
            raw = zlib.decompress(body[offset : offset + nbytes])
            columns[name] = np.frombuffer(raw, dtype=dtype)
            if columns[name].size != length:
                return None
            offset += nbytes
        if offset != len(body):
            return None
        # Same-width columns pass through as the read-only views above;
        # narrowed ones come back widened, and those copies are frozen too.
        result = result_from_dict(join_columns(meta["result"], columns))
        for column in result_columns(result).values():
            column.flags.writeable = False
        return CacheEntry(result=result, sim_wall_s=float(meta["sim_wall_s"]))
    except (
        ValueError,
        KeyError,
        TypeError,
        AttributeError,
        OverflowError,
        zlib.error,
        struct.error,
    ):
        return None


class ResultCache:
    """Filesystem-backed result store; one columnar v2 file per key.

    The layout is described in the module docstring: a JSON header, the
    array columns as zlib'd little-endian bytes, each at its narrowest
    width, and a CRC-32 trailer.  One encoder (:func:`encode_entry`) and
    one decoder (:func:`decode_entry_bytes`) serve :meth:`store` and
    :meth:`load`; loaded arrays are read-only, and zero-copy where the
    stored width is the in-memory one.  v1 ``.json.gz`` files are never
    read (:meth:`legacy`).

    Concurrency: entries are written atomically (temp file +
    ``os.replace``) so readers can never observe torn data, and multiple
    threads/processes may store the same key concurrently (last atomic
    replace wins).  Both wrote the same *result*, though not always the
    same bytes: each header carries its own measured ``sim_wall_s``
    (tests/test_resultcache_concurrency.py pins this).
    """

    def __init__(self, root: Union[None, str, Path] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        # Two-level fan-out keeps directories small for big sweeps.
        return self.root / key[:2] / f"{key}{ENTRY_SUFFIX}"

    def load(self, key: str) -> Optional[CacheEntry]:
        """Return the stored entry, or None on miss or unreadable file.

        Files :func:`decode_entry_bytes` rejects (bad magic or CRC, torn
        data, foreign schema, key mismatch) are treated as misses and
        removed, so a damaged cache degrades to re-simulation, never to an
        error.  Transient I/O failures (``EACCES``, disk hiccups) are
        misses too, but the entry is *kept* — deleting a healthy file
        because of a momentary read error would throw away a finished
        simulation.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:  # missing, or a transient failure: keep the file
            return None
        entry = decode_entry_bytes(key, data)
        if entry is None:
            self._discard(path)
        return entry

    @staticmethod
    def _discard(path: Path) -> None:
        """Best-effort removal of a confirmed-corrupt entry."""
        try:
            path.unlink()
        except OSError:
            pass

    def store(self, key: str, result: SimResult, sim_wall_s: float = 0.0) -> Path:
        """Atomically persist one result under ``key``; returns its path.

        Raises ``OSError`` when the entry cannot be written (disk full,
        read-only or missing directory); no temp file is left behind.
        """
        data = encode_entry(key, result, sim_wall_s)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=TEMP_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as raw:
                raw.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- maintenance ---------------------------------------------------------

    def _walk(self, pattern: str) -> Iterator[Path]:
        # A concurrent sweep (or ``clear``) may remove entries and fan-out
        # directories while this iterator walks them; vanished paths are
        # simply skipped rather than crashing the listing.
        if not self.root.is_dir():
            return
        try:
            subdirs = sorted(p for p in self.root.iterdir() if p.is_dir())
        except OSError:
            return
        for subdir in subdirs:
            try:
                names = sorted(subdir.glob(pattern))
            except OSError:
                continue
            yield from names

    def entries(self) -> Iterator[Path]:
        return self._walk(f"*{ENTRY_SUFFIX}")

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        return sum(_size(path) for path in self.entries())

    def legacy(self) -> Tuple[int, int]:
        """``(count, bytes)`` of v1 ``.json.gz`` entries, which are never read."""
        return _tally(self._walk(f"*{LEGACY_SUFFIX}"))

    def partial(self) -> Tuple[int, int]:
        """``(count, bytes)`` of temp files that stores killed between
        ``mkstemp`` and ``os.replace`` (SIGKILL, OOM) left behind."""
        return _tally(self._walk(f".*{TEMP_SUFFIX}"))

    def clear(self) -> int:
        """Delete every entry, v1 entries and :meth:`partial` temp files
        included; returns how many files were removed.

        A store still writing its temp file then fails its rename, and its
        sweep counts the result as not cached.
        """
        removed = 0
        paths = [
            *self.entries(),
            *self._walk(f"*{LEGACY_SUFFIX}"),
            *self._walk(f".*{TEMP_SUFFIX}"),
        ]
        for path in paths:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def _tally(paths: Iterator[Path]) -> Tuple[int, int]:
    sizes = [_size(path) for path in paths]
    return len(sizes), sum(sizes)


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0  # unlinked between listing and stat
