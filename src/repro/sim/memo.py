"""Content-addressed step-level memoization for the simulation engine.

A stage's *memory step* is split into steps, each a pure function of its
own inputs.  The engine and :mod:`repro.sim.hierarchy` run every step
through :func:`run_step`, the one place a step is recorded and replayed,
keyed by exactly its inputs in one process-wide :class:`StageMemo`.  When
a key repeats, the recorded outcome is *replayed* instead of recomputed.
The compute-stage steps and their keys:

- **page-fault touch** — page size and page-table token, the stream key
  and the component.  Behaviour only, so configurations that differ only
  in fault *timing* (service latency, hidden parallelism, serialization
  penalty) share entries;
- **the domain's L1** — its config, its state digest and the stream key;
- **the domain's L2** — its config, its state digest and the L1 step's
  token;
- **the coherent peer probe** — the peer L1/L2 state digests and the L2
  step's token.

Every entry carries a *token*, a process-unique id for its outputs
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

Entries stay compact.  An L1 step outputs its bit-packed miss mask over
the stage stream and its dirty victims, and its downstream is rebuilt
(:func:`repro.sim.fastcache.downstream`) only when the L2 step after it
misses; an L2 step outputs its downstream arrays, the same arrays the
off-chip log holds; a probe outputs the positions it migrated on chip.
Cache-state snapshots are stored in a canonical
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
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.sim.hierarchy import OffChipLog

__all__ = [
    "MemoStats",
    "StageEntry",
    "StageMemo",
    "clear_shared_stage_memo",
    "run_step",
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

    ``log_parts`` are the off-chip log parts the step appended;
    ``outputs`` the tuple the step's ``live`` callable returned, handed
    back as is on a replay: an L1 step's (packed miss mask, dirty-victim
    positions, victim blocks), an L2 step's downstream (blocks, is_write),
    a probe's migrated positions, a page-fault touch's (fault count, zeroed
    blocks, newly mapped pages), a copy's
    :class:`~repro.sim.hierarchy.DomainResult`, the drain's per-cache
    writebacks.  No seconds are stored: the engine recomputes fault service
    time live with :meth:`~repro.sim.pagefault.PageFaultModel.service_time`.
    ``cache_states`` are the post-step snapshots of the caches the step
    touches, in the order the step names them (shared with the cache that
    produced them, never mutated); ``stats_deltas`` the per-cache counter
    increments in the same order; ``token`` identifies the step's outputs
    to a step keyed after it.
    """

    log_parts: Tuple[LogPart, ...]
    outputs: Tuple[Any, ...]
    cache_states: Tuple[CacheState, ...]
    stats_deltas: Tuple[Tuple[int, ...], ...]
    token: int


def _entry_nbytes(entry: StageEntry) -> int:
    total = 0
    for blocks, is_write, _ in entry.log_parts:
        total += blocks.nbytes + is_write.nbytes
    for value in entry.outputs:
        if isinstance(value, np.ndarray):
            total += value.nbytes
    for state in entry.cache_states:
        total += sum(arr.nbytes for arr in state)
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


# -- the one step runner (used by the engine and the hierarchy) ---------------


def run_step(
    memo: Optional[StageMemo],
    key: Callable[[], Tuple],
    caches: Sequence,
    log: "OffChipLog",
    ordinal: int,
    live: Callable[[], Tuple[Any, ...]],
    replay: Optional[Callable[[Tuple[Any, ...]], None]] = None,
) -> Tuple[Tuple[Any, ...], Optional[int]]:
    """Run one memory step, through ``memo`` when there is one; returns
    (outputs, token), the token ``None`` without a memo.

    ``live()`` simulates the step: it may change ``caches`` and append to
    ``log``, and returns the step's outputs, a tuple whose arrays nothing
    mutates afterwards.  ``key()`` names everything the step reads; it is
    called only with a memo, before the step runs.  A miss runs ``live()``
    and records the log parts it appended, the caches' post-states and
    counter deltas and its outputs under a fresh token.  A hit replays
    them instead, re-appending the log parts under ``ordinal``, and calls
    ``replay(outputs)`` for effects outside the caches (the page table).
    """
    if memo is None:
        return live(), None
    step_key = key()
    entry = memo.lookup(step_key)
    if entry is not None:
        log.replay(entry.log_parts, ordinal)
        for cache, state, delta in zip(caches, entry.cache_states, entry.stats_deltas):
            cache.restore_state(state)
            _add_counters(cache, delta)
        if replay is not None:
            replay(entry.outputs)
        return entry.outputs, entry.token
    mark = log.mark()
    before = [_counters(cache) for cache in caches]
    outputs = live()
    entry = StageEntry(
        log_parts=log.parts_since(mark),
        outputs=outputs,
        cache_states=tuple(cache.state_arrays() for cache in caches),
        stats_deltas=tuple(
            tuple(after - prior for after, prior in zip(_counters(cache), counts))
            for cache, counts in zip(caches, before)
        ),
        token=memo.new_token(),
    )
    memo.store(step_key, entry)
    return outputs, entry.token


def _counters(cache) -> Tuple[int, ...]:
    """The :class:`~repro.sim.cache.CacheStats` counters a step's deltas cover."""
    s = cache.stats
    return (s.accesses, s.hits, s.misses, s.writebacks, s.invalidations)


def _add_counters(cache, delta: Tuple[int, ...]) -> None:
    s = cache.stats
    s.accesses += delta[0]
    s.hits += delta[1]
    s.misses += delta[2]
    s.writebacks += delta[3]
    s.invalidations += delta[4]
