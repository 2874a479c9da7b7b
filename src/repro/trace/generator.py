"""Synthetic access-stream generation for pipeline stages.

Each :class:`repro.pipeline.stage.BufferAccess` is expanded into a
block-granularity address stream according to its pattern.  Generation is
fully deterministic: every (pipeline, seed, stage) triple produces an
identical stream, which the test suite relies on.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.pipeline.buffers import Buffer
from repro.pipeline.graph import Pipeline
from repro.pipeline.patterns import AccessPattern
from repro.pipeline.stage import BufferAccess, Stage, StageKind
from repro.trace.alignment import apply_misalignment
from repro.trace.stream import AccessStream, interleave, sorted_unique

#: Fraction of graph-pattern accesses that hit the "hot" high-degree blocks.
GRAPH_HOT_ACCESS_FRACTION = 0.3
#: Fraction of a graph region considered hot.
GRAPH_HOT_BLOCK_FRACTION = 0.05

#: Patterns whose synthesis never draws from the RNG: their parts are a
#: pure function of (block range, fraction, passes), so a memo can share
#: them across stages and seeds.  RANDOM/POINTER_CHASE/GRAPH sample from
#: the per-(seed, pipeline, stage, access) RNG and memoize per seed.
_RNG_FREE_PATTERNS = frozenset(
    {
        AccessPattern.STREAMING,
        AccessPattern.STRIDED,
        AccessPattern.REDUCTION,
        AccessPattern.BROADCAST,
        AccessPattern.STENCIL,
    }
)

#: Bounds of a :class:`TraceMemo`; exceeding either clears it wholesale, so
#: a long-lived process sweeping many scales cannot grow without limit.
#: Streams grow with scale, so the byte bound (the stage memo's own, see
#: repro.sim.memo) is the one a large-scale sweep reaches.
_MEMO_MAX_ENTRIES = 1024
_MEMO_MAX_BYTES = 256 << 20


class BufferLayout:
    """Assigns every buffer a page-aligned base block in a flat address space."""

    def __init__(self, pipeline: Pipeline, line_bytes: int = 128, page_bytes: int = 4096):
        if page_bytes % line_bytes:
            raise ValueError("page size must be a multiple of the line size")
        self.line_bytes = line_bytes
        self.page_bytes = page_bytes
        self.blocks_per_page = page_bytes // line_bytes
        self._base: Dict[str, int] = {}
        self._blocks: Dict[str, int] = {}
        cursor = 0
        for name in sorted(pipeline.buffers):
            buf = pipeline.buffers[name]
            nblocks = -(-buf.size_bytes // line_bytes)  # ceil division
            self._base[name] = cursor
            self._blocks[name] = nblocks
            # Advance to the next page boundary so buffers never share pages.
            pages = -(-nblocks // self.blocks_per_page)
            cursor += pages * self.blocks_per_page
        self.total_blocks = cursor

    def base_block(self, buffer: str) -> int:
        return self._base[buffer]

    def num_blocks(self, buffer: str) -> int:
        return self._blocks[buffer]

    def block_range(self, access: BufferAccess) -> Tuple[int, int]:
        """The [start, end) global block range an access's region covers."""
        base = self._base[access.buffer]
        nblocks = self._blocks[access.buffer]
        lo = base + math.floor(access.region.start * nblocks)
        hi = base + max(lo - base + 1, math.ceil(access.region.end * nblocks))
        hi = min(hi, base + nblocks)
        if hi <= lo:
            hi = lo + 1
        return lo, hi

    def pages_of(self, blocks: np.ndarray) -> np.ndarray:
        """Unique page ids covering the given block ids."""
        return sorted_unique(blocks // self.blocks_per_page)


def _stable_seed(*parts: object) -> int:
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


def _touched_blocks(lo: int, hi: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """The set of blocks a sparse traversal visits, as a sorted array."""
    span = hi - lo
    count = max(1, int(round(span * fraction)))
    if count >= span:
        return np.arange(lo, hi, dtype=np.int64)
    # Evenly spaced subset keeps the touched set stable across passes.
    idx = np.linspace(0, span - 1, count).astype(np.int64)
    return lo + idx


def _repeat_passes(sweep: np.ndarray, passes: float) -> np.ndarray:
    """Tile one sweep ``passes`` times (fractional passes truncate)."""
    total = max(1, int(round(len(sweep) * passes)))
    whole, rem = divmod(total, len(sweep))
    parts = [sweep] * whole
    if rem:
        parts.append(sweep[:rem])
    if not parts:
        parts = [sweep[:1]]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _synthesize(
    access: BufferAccess,
    lo: int,
    hi: int,
    rng: np.random.Generator,
    max_accesses: int,
) -> np.ndarray:
    touched = _touched_blocks(lo, hi, access.fraction, rng)
    pattern = access.pattern
    if pattern in (
        AccessPattern.STREAMING,
        AccessPattern.STRIDED,
        AccessPattern.REDUCTION,
        AccessPattern.BROADCAST,
    ):
        blocks = _repeat_passes(touched, access.passes)
    elif pattern is AccessPattern.STENCIL:
        # Each sweep position also touches its vertical neighbours one row
        # above and below (row width ~ sqrt of the region).
        width = max(1, int(np.sqrt(len(touched))))
        centre = np.arange(len(touched), dtype=np.int64)
        rows = np.stack([centre - width, centre, centre + width], axis=1)
        np.clip(rows, 0, len(touched) - 1, out=rows)
        sweep = touched[rows.reshape(-1)]
        blocks = _repeat_passes(sweep, access.passes)
    elif pattern in (AccessPattern.RANDOM, AccessPattern.POINTER_CHASE):
        count = max(1, int(round(len(touched) * access.passes)))
        blocks = touched[rng.integers(0, len(touched), size=count)]
    elif pattern is AccessPattern.GRAPH:
        count = max(1, int(round(len(touched) * access.passes)))
        hot_size = max(1, int(len(touched) * GRAPH_HOT_BLOCK_FRACTION))
        hot_count = int(count * GRAPH_HOT_ACCESS_FRACTION)
        cold_count = count - hot_count
        hot = touched[rng.integers(0, hot_size, size=hot_count)]
        cold = touched[rng.integers(0, len(touched), size=cold_count)]
        # Hot accesses are spread through the traversal, not clustered.
        blocks = np.empty(count, dtype=np.int64)
        positions = rng.permutation(count)
        blocks[positions[:hot_count]] = hot
        blocks[positions[hot_count:]] = cold
    else:  # pragma: no cover - exhaustive over AccessPattern
        raise NotImplementedError(f"pattern {pattern}")
    if len(blocks) > max_accesses:
        blocks = blocks[:max_accesses]
    return blocks.astype(np.int64, copy=False)


@dataclass(frozen=True)
class StageTrace:
    """A stage's generated stream plus summary statistics."""

    stream: AccessStream
    unique_blocks: int
    bytes_touched: int
    #: Sorted unique block ids of the stream (consumers needing the footprint
    #: reuse this instead of recomputing it).  Shared, do not mutate.
    unique_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    #: :meth:`TraceGenerator.stage_key` of the stage when the generator has
    #: a memo (which keys on it), else None.
    key: Optional[Tuple] = None


class TraceMemo(dict):
    """Trace parts and whole-stage traces by key, shared and never mutated.

    :meth:`put` clears the memo wholesale before an entry would pass
    either bound above, as :class:`repro.sim.memo.StageMemo` does;
    ``retained_bytes`` sums the entries' stream arrays.
    """

    def __init__(self) -> None:
        super().__init__()
        self.retained_bytes = 0

    def put(self, key: Tuple, value: Union[AccessStream, StageTrace]) -> None:
        stream = value.stream if isinstance(value, StageTrace) else value
        nbytes = stream.blocks.nbytes + stream.is_write.nbytes
        full = len(self) >= _MEMO_MAX_ENTRIES
        if full or self.retained_bytes + nbytes > _MEMO_MAX_BYTES:
            self.clear()
            self.retained_bytes = 0
        self[key] = value
        self.retained_bytes += nbytes


class TraceGenerator:
    """Generates deterministic access streams for every stage of a pipeline."""

    def __init__(
        self,
        pipeline: Pipeline,
        line_bytes: int = 128,
        seed: int = 0,
        page_bytes: int = 4096,
        max_accesses_per_access: int = 8_000_000,
        memo: Optional[TraceMemo] = None,
    ):
        self.pipeline = pipeline
        self.layout = BufferLayout(pipeline, line_bytes=line_bytes, page_bytes=page_bytes)
        self.seed = seed
        self.max_accesses = max_accesses_per_access
        #: Optional part- and stage-level memo.  Keys capture everything a
        #: part depends on — including the stable per-access seed whenever
        #: the RNG is consumed — so entries may be shared across generators
        #: (the engine passes one process-wide memo).  Memoized streams are
        #: shared objects and must not be mutated.
        self.memo = memo

    def _seed_for(self, stage: Stage, access_index: int) -> int:
        return _stable_seed(self.seed, self.pipeline.name, stage.name, access_index)

    def _rng(self, stage: Stage, access_index: int) -> np.random.Generator:
        return np.random.default_rng(self._seed_for(stage, access_index))

    def _misaligned(self, stage: Stage, access: BufferAccess) -> bool:
        if not self.pipeline.limited_copy or stage.kind is not StageKind.GPU_KERNEL:
            return False
        buf: Buffer = self.pipeline.buffers[access.buffer]
        return not buf.cpu_line_aligned

    def _part_key(
        self,
        stage: Stage,
        access: BufferAccess,
        access_index: int,
        is_write: bool,
    ) -> Tuple:
        """Everything one access's sub-stream depends on, as a hashable key.

        RNG-free parts drop the seed from the key so identical
        (range, pattern) accesses share across stages and pipelines.
        """
        lo, hi = self.layout.block_range(access)
        misaligned = self._misaligned(stage, access)
        uses_rng = misaligned or access.pattern not in _RNG_FREE_PATTERNS
        return (
            self._seed_for(stage, access_index) if uses_rng else None,
            lo,
            hi,
            access.pattern.value,
            access.fraction,
            access.passes,
            self.max_accesses,
            misaligned,
            is_write,
        )

    def _part(
        self,
        stage: Stage,
        access: BufferAccess,
        access_index: int,
        is_write: bool,
    ) -> AccessStream:
        """One access's sub-stream, memoized when a memo is attached."""
        if self.memo is not None:
            key = self._part_key(stage, access, access_index, is_write)
            cached = self.memo.get(key)
            if cached is not None:
                return cached
        else:
            key = None
        lo, hi = self.layout.block_range(access)
        misaligned = self._misaligned(stage, access)
        rng = self._rng(stage, access_index)
        blocks = _synthesize(access, lo, hi, rng, self.max_accesses)
        part = AccessStream(
            blocks, np.full(len(blocks), is_write, dtype=bool)
        )
        if misaligned:
            part = apply_misalignment(part, rng)
        if key is not None:
            self.memo.put(key, part)
        return part

    def stage_key(self, stage: Stage) -> Tuple:
        """A whole stage's trace is determined by its parts' keys in order."""
        return ("stage",) + tuple(
            self._part_key(stage, access, index + offset, is_write)
            for offset, accesses, is_write in (
                (0, stage.reads, False),
                (1000, stage.writes, True),
            )
            for index, access in enumerate(accesses)
        )

    def stage_trace(self, stage: Stage) -> StageTrace:
        """Generate the full (interleaved) access stream for one stage."""
        if self.memo is not None:
            # Iterated pipelines replay identical stages many times; the
            # interleave and the unique-block count both memoize at stage
            # granularity on top of the per-part memo.
            stage_key = self.stage_key(stage)
            cached = self.memo.get(stage_key)
            if cached is not None:
                return cached
        else:
            stage_key = None
        parts = []
        for index, access in enumerate(stage.reads):
            parts.append(self._part(stage, access, index, is_write=False))
        for index, access in enumerate(stage.writes):
            parts.append(self._part(stage, access, 1000 + index, is_write=True))
        stream = interleave(parts)
        unique_ids = sorted_unique(stream.blocks)
        trace = StageTrace(
            stream=stream,
            unique_blocks=len(unique_ids),
            bytes_touched=len(unique_ids) * self.layout.line_bytes,
            unique_ids=unique_ids,
            key=stage_key,
        )
        if stage_key is not None:
            self.memo.put(stage_key, trace)
        return trace
