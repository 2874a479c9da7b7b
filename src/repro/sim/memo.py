"""Content-addressed step-level memoization for the simulation engine.

A stage's *memory step* is split into steps, each a pure function of its
own inputs, and the engine and :mod:`repro.sim.hierarchy` key every step
by exactly those inputs in one process-wide :class:`StageMemo`.  When a key
repeats, the recorded outcome is *replayed* instead of recomputed: log
parts are re-appended (retagged with the current stage ordinal), cache
post-states restored, statistics deltas re-applied and page-fault effects
re-mapped.  The compute-stage steps and their keys:

- **page-fault touch** — page size and page-table token, the stream key
  and the component.  Behaviour only, so configurations that differ only
  in fault *timing* (service latency, hidden parallelism, serialization
  penalty) share entries;
- **the domain's L1** — its config, its state digest and the stream key;
- **the domain's L2** — its config, its state digest and the L1 step's
  token;
- **the coherent peer probe** — the peer L1/L2 state digests and the L2
  step's token.

A *token* is a process-unique id a step's entry carries for its output
(:meth:`StageMemo.new_token`), so a step keys on the step before it
without hashing a stream or re-hashing a key.  Of the cache steps only
the L1's key holds the stream key; the stream key holds
:data:`~repro.sim.engine.ENGINE_VERSION`, so a version bump rotates every
chained key.  Copy and drain steps key on all four caches' configs and
states, the stream key and the system's coherence flag, as one step each.

Because each level keys only on its own inputs, runs that differ in one
component share the rest: a GPU L2 sweep replays the GPU L1 steps, a
page-fault on/off pair replays every cache step, and a copy run and its
limited-copy sibling share the steps they reach in the same state (their
CPU stages, on the stock systems).
Iterated pipelines (stencil sweeps, kmeans-style offload loops) reach a
cache-state fixed point after a couple of iterations, after which every
further step is a hit.  Timing (fault service seconds included),
scheduling, bandwidth shares, and trace events are cheap arithmetic over
the replayed counters and are always recomputed live, which is what keeps
memoized runs bit-exact with memo-off runs (enforced by
tests/test_stage_memo.py and the differential matrix of
tests/test_engine_equivalence.py).

Entries stay compact.  An L1 entry keeps its bit-packed miss mask over
the stage stream and its dirty victims, and its downstream is rebuilt
(:func:`repro.sim.fastcache.downstream`) only when the L2 step after it
misses; an L2 entry keeps its downstream arrays by reference, the same
arrays the off-chip log holds; a probe entry keeps the positions it
migrated on chip.  Cache-state snapshots are stored in a canonical
impl-independent form, so entries are shared between the ``reference``
and ``fast`` cache implementations like the persistent
:mod:`repro.sim.resultcache` is.  That form is the fast cache's own
read-only state, so recording and replaying a snapshot costs no copy;
arrays in an entry are never mutated.

Both the entry count and the (approximate) retained bytes are bounded;
exceeding either bound clears the memo wholesale, mirroring the trace
memo's policy — a long-lived process sweeping many scales cannot grow
without limit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
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

#: Entry bound of the stage memo; exceeded -> wholesale clear.  A compute
#: stage records up to four steps, so entries are small and many: the byte
#: bound, not this one, is what a long paper-scale sweep reaches first.
_MEMO_MAX_ENTRIES = 16384

#: Approximate byte bound of retained arrays; exceeded -> wholesale clear.
#: Entries hold log-part and cache-snapshot arrays whose size grows with
#: scale, so the byte bound is what protects paper-scale runs.
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
    """Everything needed to replay one memory step.

    ``log_parts`` are the off-chip log parts the step appended; ``mem``
    carries a copy step's :class:`~repro.sim.hierarchy.DomainResult`
    fields (requests, offchip reads/writes, on-chip transfers, offchip
    block ids); ``fault`` a page-fault touch's outcome (fault count, zeroed
    blocks, newly mapped pages) — fault service seconds are not stored, the
    engine recomputes them live with
    :meth:`~repro.sim.pagefault.PageFaultModel.service_time`;
    ``cache_states`` the post-step snapshots of the caches the step
    touches, in the order the step names them (shared with the cache that
    produced them, never mutated); ``stats_deltas`` the per-cache counter
    increments in the same order.  ``aux`` holds step-specific arrays: an
    L1 step's (packed miss mask, dirty-victim positions, victim blocks),
    an L2 step's downstream (blocks, is_write), a probe's migrated
    positions, the drain's per-cache writebacks.  ``token`` identifies a
    cache step's output to the step keyed after it.
    """

    log_parts: Tuple[LogPart, ...] = ()
    mem: Optional[Tuple[int, int, int, int, Optional[np.ndarray]]] = None
    fault: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
    cache_states: Tuple[CacheState, ...] = ()
    stats_deltas: Tuple[Tuple[int, ...], ...] = ()
    aux: Tuple[np.ndarray, ...] = ()
    token: Optional[int] = None


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
        self._tokens = 0

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

    def new_token(self) -> int:
        """A token no earlier step of this process was given.

        Clears never reset the counter, so a token names one step's output
        for the life of the process: a key holding it cannot match the
        output of a different step.
        """
        self._tokens += 1
        return self._tokens

    def store(self, key: Tuple, entry: StageEntry) -> None:
        nbytes = _entry_nbytes(entry)
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


# -- canonical cache-state helpers (used by the engine and the hierarchy) ------


def states_digest(states: Sequence[CacheState]) -> bytes:
    """16-byte content digest of a sequence of cache-state snapshots.

    Each snapshot's set count and line count are hashed first, so a digest
    without its cache config still names one cache geometry.
    """
    h = hashlib.blake2b(digest_size=16)
    for lengths, blocks, dirty in states:
        h.update(len(lengths).to_bytes(8, "little"))
        h.update(len(blocks).to_bytes(8, "little"))
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


def cache_effects(
    caches: Sequence, before: Sequence[Tuple[int, ...]]
) -> Tuple[Tuple[CacheState, ...], Tuple[Tuple[int, ...], ...]]:
    """(post-state snapshots, stats deltas) of ``caches``, the deltas taken
    against ``before``, their :func:`stats_tuple` snapshots from before
    the step, in the form a :class:`StageEntry` keeps."""
    return (
        tuple(cache.state_arrays() for cache in caches),
        tuple(
            stats_delta(prior, stats_tuple(cache))
            for prior, cache in zip(before, caches)
        ),
    )


def replay_cache_effects(caches: Sequence, entry: StageEntry) -> None:
    """Restore ``entry``'s post-states into ``caches`` and re-apply its
    stats deltas (the replay side of :func:`cache_effects`)."""
    for cache, state, delta in zip(caches, entry.cache_states, entry.stats_deltas):
        cache.restore_state(state)
        apply_stats_delta(cache, delta)
