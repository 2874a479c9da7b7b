"""Content-addressed stage-level memoization for the simulation engine.

Every stage execution's *memory step* — the page-fault touch, the stream's
trip through the cache hierarchy, and the off-chip log appends it produces
— is a pure function of (stage access stream, cache configurations,
incoming cache state, page size, page-table state).  The engine therefore
keys each memory step by a content hash of exactly those inputs and, when
the key repeats, *replays* the recorded sub-result instead of recomputing
it: the log deltas are re-appended (retagged with the current stage
ordinal), the cache post-states are restored, the statistics deltas
re-applied, and the page-fault effects re-mapped.  The fault part of the
key is behaviour only — page size in blocks plus the page-table token —
so configurations that differ only in fault *timing* (service latency,
hidden parallelism, serialization penalty) share entries.  Timing (fault
service seconds included), scheduling, bandwidth shares, and trace events
are cheap arithmetic over the replayed counters and are always recomputed
live, which is what keeps memoized runs bit-exact with memo-off runs
(enforced by tests/test_stage_memo.py and the differential matrix of
tests/test_engine_equivalence.py).

Keys repeat within a pipeline and across re-runs of one version:
iterated pipelines (stencil sweeps, kmeans-style offload loops) reach a
cache-state fixed point after a couple of iterations, after which every
further iteration is a hit; repeated in-process runs of one version
(ablation studies, repeated figure renders, the equivalence suite's
double-runs) hit from the first stage.  Keys hold the cache system's
coherence flag, so a copy run (discrete) and its limited-copy sibling
(heterogeneous) never share an entry.  The memo is process-wide and
shared across engine instances — state digests make sharing safe — and,
like the persistent :mod:`repro.sim.resultcache`, entries are shared
between the ``reference`` and ``fast`` cache implementations because the
two are bit-identical (cache state snapshots are stored in a canonical
impl-independent form).  That form is the fast cache's own read-only
state, so recording and replaying a snapshot costs no copy; arrays in an
entry are never mutated.

Both the entry count and the (approximate) retained bytes are bounded;
exceeding either bound clears the memo wholesale, mirroring the trace
memo's policy — a long-lived process sweeping many scales cannot grow
without limit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MemoStats",
    "StageEntry",
    "StageMemo",
    "clear_shared_stage_memo",
    "shared_stage_memo",
    "stage_memo_snapshot",
]

#: Entry bound of the stage memo; exceeded -> wholesale clear.
_MEMO_MAX_ENTRIES = 4096

#: Approximate byte bound of retained arrays; exceeded -> wholesale clear.
#: Stage entries hold log-delta and cache-snapshot arrays whose size grows
#: with scale, so the byte bound (not the entry bound) is what protects
#: paper-scale runs.
_MEMO_MAX_BYTES = 256 << 20

#: One recorded off-chip log delta: (blocks, is_write, component code).
#: Arrays are shared references into the recording run's log and must
#: never be mutated.
LogPart = Tuple[np.ndarray, np.ndarray, int]

#: One cache's canonical state snapshot, impl-independent:
#: (per-set line counts, block ids in LRU->MRU set order, dirty flags).
#: For the fast cache these are its live read-only state arrays.
CacheState = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class MemoStats:
    """Cumulative lookup counters of one :class:`StageMemo`."""

    hits: int = 0
    misses: int = 0
    clears: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Tuple[int, int]:
        """(hits, misses) — subtract two snapshots for a per-run delta."""
        return (self.hits, self.misses)


@dataclass(frozen=True)
class StageEntry:
    """Everything needed to replay one stage's memory step.

    ``mem`` carries the :class:`~repro.sim.hierarchy.DomainResult` fields
    (requests, offchip reads/writes, on-chip transfers, offchip block ids);
    ``fault`` the page-fault outcome (fault count, zeroed blocks, newly
    mapped pages) or ``None`` when no fault model was consulted — fault
    service seconds are not stored, the engine recomputes them live with
    :meth:`~repro.sim.pagefault.PageFaultModel.service_time`;
    ``cache_states`` the post-step snapshots aligned with the
    involved-cache list the key was built from (shared with the cache that
    produced them, never mutated); ``stats_deltas`` the per-cache counter
    increments in the same order.  ``aux`` holds step-specific extras (the
    per-cache drain writeback arrays).
    """

    log_parts: Tuple[LogPart, ...]
    mem: Optional[Tuple[int, int, int, int, Optional[np.ndarray]]]
    fault: Optional[Tuple[int, np.ndarray, np.ndarray]]
    cache_states: Tuple[CacheState, ...]
    stats_deltas: Tuple[Tuple[int, ...], ...]
    aux: Tuple[np.ndarray, ...] = ()
    nbytes: int = 0


def _entry_nbytes(entry: StageEntry) -> int:
    total = 0
    for blocks, is_write, _ in entry.log_parts:
        total += blocks.nbytes + is_write.nbytes
    if entry.mem is not None and entry.mem[4] is not None:
        total += entry.mem[4].nbytes
    if entry.fault is not None:
        total += entry.fault[1].nbytes + entry.fault[2].nbytes
    for state in entry.cache_states:
        total += sum(arr.nbytes for arr in state)
    for arr in entry.aux:
        total += arr.nbytes
    return total


class StageMemo:
    """Bounded process-wide map from stage-step keys to replayable entries."""

    def __init__(
        self,
        max_entries: int = _MEMO_MAX_ENTRIES,
        max_bytes: int = _MEMO_MAX_BYTES,
    ):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = MemoStats()
        self._entries: Dict[Tuple, StageEntry] = {}
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def retained_bytes(self) -> int:
        return self._bytes

    def lookup(self, key: Tuple) -> Optional[StageEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def store(self, key: Tuple, entry: StageEntry) -> None:
        nbytes = _entry_nbytes(entry)
        entry = StageEntry(
            log_parts=entry.log_parts,
            mem=entry.mem,
            fault=entry.fault,
            cache_states=entry.cache_states,
            stats_deltas=entry.stats_deltas,
            aux=entry.aux,
            nbytes=nbytes,
        )
        if (
            len(self._entries) >= self.max_entries
            or self._bytes + nbytes > self.max_bytes
        ):
            self.clear()
            self.stats.clears += 1
        self._entries[key] = entry
        self._bytes += nbytes

    def clear(self) -> None:
        """Drop every entry (counters are cumulative and survive)."""
        self._entries.clear()
        self._bytes = 0


_shared: Optional[StageMemo] = None


def shared_stage_memo() -> StageMemo:
    """The process-wide stage memo every engine instance shares."""
    global _shared
    if _shared is None:
        _shared = StageMemo()
    return _shared


def stage_memo_snapshot() -> Tuple[int, int]:
    """(hits, misses) of the shared memo; cheap even before first use."""
    if _shared is None:
        return (0, 0)
    return _shared.stats.snapshot()


def clear_shared_stage_memo() -> None:
    """Empty the shared memo (cumulative counters survive, per the
    :meth:`StageMemo.clear` contract).  Runs repeated after a clear make
    the same hits and misses, so tests call this to start memo-cold and
    compare :func:`stage_memo_snapshot` deltas."""
    if _shared is not None:
        _shared.clear()


# -- canonical cache-state helpers (used by the engine) ----------------------


def states_digest(states: Sequence[CacheState]) -> bytes:
    """16-byte content digest of a sequence of cache-state snapshots."""
    h = hashlib.blake2b(digest_size=16)
    for lengths, blocks, dirty in states:
        h.update(lengths.tobytes())
        h.update(blocks.tobytes())
        h.update(dirty.tobytes())
    return h.digest()


def stats_tuple(cache) -> Tuple[int, ...]:
    """Counter snapshot of one cache's :class:`CacheStats`."""
    s = cache.stats
    return (s.accesses, s.hits, s.misses, s.writebacks, s.invalidations)


def stats_delta(before: Tuple[int, ...], after: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(b - a for b, a in zip(after, before))


def apply_stats_delta(cache, delta: Tuple[int, ...]) -> None:
    s = cache.stats
    s.accesses += delta[0]
    s.hits += delta[1]
    s.misses += delta[2]
    s.writebacks += delta[3]
    s.invalidations += delta[4]
