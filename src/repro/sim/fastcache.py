"""Vectorized fast-path implementation of the set-associative LRU cache.

:class:`FastSetAssocCache` is a drop-in replacement for
:class:`repro.sim.cache.SetAssocCache` that produces bit-identical output
(downstream stream contents *and order*, statistics, and final cache state)
while replacing the per-access Python loop with one offline, whole-stream
numpy computation per ``access_stream`` call.

The algorithm rests on the classic LRU *stack property* (Mattson et al.):
within one set, an access hits if and only if fewer than ``assoc`` distinct
blocks of that set were touched since the block's previous access.  The
call is processed in four vectorized passes:

1. **One set-major sort.** One stable radix argsort of the set ids of the
   resident lines followed by the stream groups the rows by set: each
   set's lines first, LRU -> MRU and carrying their dirty bits as writes,
   then its accesses in time order.  Within a set a larger row is a later
   access, so residency carried into the call needs no special case, and
   the permutation maps each row back to its stream position.
2. **Classification in block order.** One stable radix argsort of the
   rows' block ids lists each block's rows in time order, so a repeat's
   previous occurrence is its neighbour and its reuse gap a row
   difference.  A gap shorter than ``assoc`` is a hit; a gap holding
   ``assoc`` first occurrences (one running count) is a miss; a set with
   at most ``assoc`` distinct blocks never evicts.  The remaining rows
   count distinct blocks in the gap exactly: first a running count of the
   nearby gap rows whose block recurs only after the access (enough to
   prove most misses), then ``window`` gap rows at once, then the rest of
   the gap, stopping as soon as the count reaches ``assoc`` (a proven
   miss).  A pathological stream that exhausts the scan budget falls back
   to the serial loop for the whole call — state is only committed at the
   end, so the fallback is always safe.
3. **Residency runs by mask.** Consecutive occurrences ``[miss, hit...]``
   of a block form one residency run whose dirty flag is the OR of its
   write flags.  A run ends at a row whose block's next occurrence misses,
   or that has none, so one ``flatnonzero`` of that mask in set-major
   order lists the runs by (set, end position) without a sort.  Only a
   set's first ``assoc`` first occurrences fill it without evicting; the
   k-th eviction of a set takes its k-th run (evictions consume
   least-recently-used lines, and a run only becomes evictable after its
   last hit), and the set's remaining runs, in order, are its final
   LRU -> MRU stack.
4. **Downstream assembly.** Each miss emits its fill read, immediately
   followed by its dirty victim's writeback, rebuilt in original stream
   order by placing the writebacks and filling the other slots with the
   fills (:func:`downstream`).  The miss
   mask and the (position, victim) pairs it is built from are what
   :meth:`FastSetAssocCache.access_misses` hands the stage memo's L1
   step, which keeps them instead of the downstream stream itself.

The passes move data, so their arrays follow one dtype rule: arrays used
as indices (permutations, rows, positions in block order) are ``intp``,
and arrays of position *values* (the running first-occurrence count, next
occurrences, window contents) are ``int32`` or narrower.  numpy converts
any index array that is not ``intp`` on every fancy index: on a 2-vCPU
Xeon VM with numpy 2.4, gathering 20k values took 54-67 µs through an
int32 index and 19-26 µs through an intp one, while narrow values halve
the memory traffic of the window scan.

The cache's state *is* the canonical memo snapshot of
:meth:`FastSetAssocCache.state_arrays`: read-only ``(lengths int32,
blocks int64, dirty bool)`` arrays that every change replaces and none
mutates.  Pass 1 reads the resident lines straight from them, pass 3
commits the survivors with one gather, and :mod:`repro.sim.memo` stores
and restores snapshots without a copy or a conversion.

Streams shorter than :data:`SERIAL_CUTOFF` skip the fixed numpy overhead
and use a tuned ``OrderedDict`` loop with the same semantics over just the
sets they map to; the scan-budget fallback is the only path that may
unpack every set.  The differential suite
(``tests/test_engine_equivalence.py``) and the Hypothesis property tests
(``tests/test_cache_vectorized.py``) hold both paths to bit-exact equality
with the reference implementation.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.config.components import CacheConfig
from repro.sim.cache import CacheStats
from repro.trace.stream import AccessStream, fit_ids

#: Streams shorter than this use the serial loop; the offline passes cost
#: a handful of argsorts/scans whose fixed overhead only amortizes on
#: reasonably long streams.
SERIAL_CUTOFF = 512

#: Reuse-window scan widths (columns per backward chunk) by associativity.
#: Wider windows resolve high-associativity sets in one pass; narrow ones
#: waste less work when ``assoc`` is small.
_WINDOW_LARGE = 24
_WINDOW_MEDIUM = 16
_WINDOW_SMALL = 8


def _window_width(assoc: int) -> int:
    if assoc <= 4:
        return _WINDOW_SMALL
    if assoc <= 8:
        return _WINDOW_MEDIUM
    return _WINDOW_LARGE

#: Backward-scan element budget multiplier (times the padded stream
#: length).  Exceeding it aborts the offline pass — before any state is
#: mutated — and reruns the whole call through the serial loop.
_RESIDUE_BUDGET_FACTOR = 32

#: Element bound of one window-scan chunk (keeps gather matrices small).
_CHUNK_ELEMS = 1 << 21

#: The shared (read-only) empty position array of a call without dirty
#: evictions (its empty victim array has the stream's dtype).
_NO_POSITIONS = np.empty(0, dtype=np.int64)
_NO_POSITIONS.flags.writeable = False


def stable_argsort_ids(values: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative ids, via 16-bit radix when possible.

    numpy's stable sort is a radix sort for <= 16-bit integers but falls
    back to mergesort (~10x slower) for wider types.  Ids below 2**32 sort
    stably as two 16-bit passes, low half first; wider values use the
    generic path.  Besides this engine, it groups touched blocks by
    component (Fig. 4).  Fig. 9 classification needs no argsort: it sorts
    packed keys that carry the program position (:mod:`repro.core.classify`).
    """
    n = len(values)
    if n < 2:
        return np.arange(n, dtype=np.int64)
    peak = int(values.max())
    if peak < 1 << 16:
        return np.argsort(values.astype(np.uint16), kind="stable")
    if peak < 1 << 32:
        low = (values & 0xFFFF).astype(np.uint16)
        high = (values >> 16).astype(np.uint16)
        order = np.argsort(low, kind="stable")
        return order[np.argsort(high[order], kind="stable")]
    return np.argsort(values, kind="stable")


class FastSetAssocCache:
    """Bit-exact vectorized twin of :class:`~repro.sim.cache.SetAssocCache`.

    State is the canonical :meth:`state_arrays` snapshot itself: per-set
    line counts (int32), block ids in set-index order each LRU -> MRU
    (int64) and their dirty flags (bool).  The three arrays are read-only
    and every change replaces them instead of writing into them, so a
    snapshot handed out earlier (to :mod:`repro.sim.memo`) stays valid
    without a copy, and adopting one back is free.
    """

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.associativity
        self.stats = CacheStats()
        self._empty()

    def _empty(self) -> None:
        self._adopt(
            np.zeros(self.num_sets, dtype=np.int32),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
        )

    def _adopt(
        self, lengths: np.ndarray, blocks: np.ndarray, dirty: np.ndarray
    ) -> None:
        for arr in (lengths, blocks, dirty):
            arr.flags.writeable = False
        self._lengths = lengths
        self._blocks = blocks
        self._dirty = dirty
        self._starts: Optional[np.ndarray] = None

    def _set_starts(self) -> np.ndarray:
        """Row offset of each set's stack (num_sets + 1 entries)."""
        if self._starts is None:
            starts = np.zeros(self.num_sets + 1, dtype=np.int64)
            np.cumsum(self._lengths, out=starts[1:])
            self._starts = starts
        return self._starts

    def _set_ids(self, blocks: np.ndarray) -> np.ndarray:
        num_sets = self.num_sets
        if num_sets & (num_sets - 1) == 0:
            return blocks & (num_sets - 1)
        return blocks % num_sets

    def _row_of(self, block: int) -> int:
        """Row of a resident block in the state arrays, or -1."""
        s = block % self.num_sets
        starts = self._set_starts()
        lo = int(starts[s])
        rows = np.flatnonzero(self._blocks[lo : int(starts[s + 1])] == block)
        return lo + int(rows[0]) if len(rows) else -1

    def _keep_rows(self, keep: np.ndarray) -> None:
        """Drop every row where ``keep`` is False; survivors keep their order."""
        blocks = self._blocks[keep]
        lengths = np.bincount(self._set_ids(blocks), minlength=self.num_sets)
        self._adopt(lengths.astype(np.int32), blocks, self._dirty[keep])

    # -- queries ---------------------------------------------------------------

    def __contains__(self, block: int) -> bool:
        return self._row_of(block) >= 0

    @property
    def resident_blocks(self) -> Set[int]:
        """Snapshot of resident block ids (unlike the reference, a copy)."""
        return set(self._blocks.tolist())

    def resident_array(self) -> np.ndarray:
        """Resident block ids as a read-only int64 array (no copy)."""
        return self._blocks

    @property
    def occupancy(self) -> int:
        return len(self._blocks)

    # -- the hot path ----------------------------------------------------------

    def access_stream(self, stream: AccessStream) -> AccessStream:
        """Run a stream through the cache; return the downstream stream.

        Identical contract to the reference: the downstream stream holds, in
        occurrence order, a read for every miss fill and a write for every
        dirty eviction.
        """
        return self.access_misses(stream)[0]

    def access_misses(
        self, stream: AccessStream
    ) -> Tuple[AccessStream, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`access_stream` plus what the downstream is built from.

        Returns (downstream, miss mask over ``stream``, stream positions
        whose miss evicted a dirty line, the evicted lines); the evicted
        lines are the downstream's writes, in the same order.
        :func:`downstream` rebuilds the downstream from the last three.
        Block ids come back at the stream's dtype; one that does not fit
        it raises ``OverflowError`` instead of wrapping.
        """
        n = len(stream)
        if not n:
            return (
                stream,
                np.zeros(0, dtype=bool),
                _NO_POSITIONS,
                stream.blocks,
            )
        blocks = stream.blocks
        is_write = stream.is_write
        if n >= SERIAL_CUTOFF:
            processed = self._process_offline(blocks, is_write)
        else:
            processed = None
        if processed is None:
            processed = self._process_serial(blocks, is_write)
        miss, wb_pos, wb_block = processed
        misses = int(np.count_nonzero(miss))
        self.stats.accesses += n
        self.stats.hits += n - misses
        self.stats.misses += misses
        self.stats.writebacks += len(wb_pos)
        return downstream(blocks, miss, wb_pos, wb_block), miss, wb_pos, wb_block

    def _process_serial(
        self, blocks: np.ndarray, is_write: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reference-semantics loop (short streams and the safety net).

        Only the sets the stream maps to are unpacked into ``OrderedDict``s
        (LRU -> MRU insertion order); the other sets' rows pass through
        untouched when the result is packed back.  Returns (miss mask,
        dirty-eviction positions, evicted blocks), as the offline pass does.
        """
        num_sets = self.num_sets
        assoc = self.assoc
        mine = np.bincount(self._set_ids(blocks), minlength=num_sets) > 0
        touched = np.flatnonzero(mine)
        rows = mine[self._set_ids(self._blocks)]
        old_blocks = self._blocks[rows].tolist()
        old_dirty = self._dirty[rows].tolist()
        sets = {}
        pos = 0
        for s, count in zip(touched.tolist(), self._lengths[touched].tolist()):
            sets[s] = OrderedDict(
                zip(old_blocks[pos : pos + count], old_dirty[pos : pos + count])
            )
            pos += count

        miss_at: List[int] = []
        wb_at: List[int] = []
        wb_blocks: List[int] = []
        for i, (block, write) in enumerate(zip(blocks.tolist(), is_write.tolist())):
            lru = sets[block % num_sets]
            if block in lru:
                lru.move_to_end(block)
                if write:
                    lru[block] = True
            else:
                miss_at.append(i)
                lru[block] = write
                if len(lru) > assoc:
                    victim, victim_dirty = lru.popitem(last=False)
                    if victim_dirty:
                        wb_at.append(i)
                        wb_blocks.append(victim)

        # Untouched sets' rows, then the touched sets' new stacks; a stable
        # sort by set index restores set-major order (a set's rows all come
        # from one side, so each stack keeps its LRU -> MRU order).
        stacks = list(sets.values())
        new_blocks = np.concatenate(
            [self._blocks[~rows], np.fromiter(chain.from_iterable(stacks), np.int64)]
        )
        new_dirty = np.concatenate(
            [
                self._dirty[~rows],
                np.fromiter(
                    chain.from_iterable(lru.values() for lru in stacks), bool
                ),
            ]
        )
        set_ids = self._set_ids(new_blocks)
        order = stable_argsort_ids(set_ids)
        self._adopt(
            np.bincount(set_ids, minlength=num_sets).astype(np.int32),
            new_blocks[order],
            new_dirty[order],
        )
        miss = np.zeros(len(blocks), dtype=bool)
        miss[miss_at] = True
        return (
            miss,
            np.asarray(wb_at, dtype=np.int64),
            np.asarray(wb_blocks, dtype=blocks.dtype),
        )

    def _process_offline(
        self, blocks: np.ndarray, is_write: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Whole-call vectorized processing; None if the scan budget blows.

        Mutates no state until every classification is final, so a None
        return leaves the cache ready for the serial fallback.
        """
        num_sets = self.num_sets
        assoc = self.assoc
        k = len(self._blocks)

        # ---- set-major layout: one stable sort of resident + stream rows ----
        # Row r holds stream access perm[r] - k, or a resident line where
        # that is negative.  Stability puts each set's lines first, LRU ->
        # MRU, then its accesses in time order, so within a set a larger
        # row is a later access.
        all_blocks = np.concatenate([self._blocks, blocks])
        set_ids = self._set_ids(all_blocks)
        perm = stable_argsort_ids(set_ids)
        starts = np.zeros(num_sets + 1, dtype=np.intp)
        np.cumsum(np.bincount(set_ids, minlength=num_sets), out=starts[1:])
        m = len(perm)
        sm_block = np.take(all_blocks, perm)

        # ---- occurrences in block order ----
        # A block id determines its set, so one stable sort by block id
        # lists each block's rows in time order: pair i joins row bo[i] and
        # row bo[i + 1], a repeat of its block when same[i].
        bo = stable_argsort_ids(sm_block)
        bo_block = np.take(sm_block, bo)
        same = bo_block[1:] == bo_block[:-1]
        fresh = np.flatnonzero(~same) + 1  # where a block's rows begin
        first_occ = np.zeros(m, dtype=bool)
        first_occ[bo[0]] = True
        first_occ[np.take(bo, fresh)] = True
        cs = np.cumsum(first_occ, dtype=np.int32)
        # First occurrences before each set, and in all (num_sets + 1).
        seen = np.concatenate([np.zeros(1, dtype=np.int32), cs])[starts]

        # ---- classification: hit iff < assoc distinct blocks in the gap ----
        dist = np.diff(bo)  # the reuse gap plus one
        hit = same & (dist <= assoc)  # over pairs: the repeat at bo[i + 1]
        # Cheap miss proof before any window scan: first occurrences inside
        # the reuse gap are pairwise-distinct blocks, and a repeat is no
        # first occurrence, so the running first-occurrence count across a
        # pair lower-bounds the gap's distinct count.  High-entropy streams
        # resolve almost every repeat here (same ^ hit: repeats not yet hits).
        pend = np.flatnonzero((same ^ hit) & (np.diff(np.take(cs, bo)) < assoc))
        small = np.diff(seen) <= assoc
        if len(pend) and small.any():
            # Sets whose whole working set fits never evict: every repeat hits.
            in_small = small[self._set_ids(np.take(bo_block, pend))]
            hit[pend[in_small]] = True
            pend = pend[~in_small]
        if len(pend):
            nextpos_bo = np.empty(m, dtype=np.int32)
            nextpos_bo[:-1] = bo[1:]
            nextpos_bo[fresh - 1] = m  # a block's last row never recurs
            nextpos_bo[-1] = m
            nextpos = np.empty(m, dtype=np.int32)
            nextpos[bo] = nextpos_bo
            hit_pend = _window_classify(
                np.take(bo[1:], pend),
                np.take(dist, pend) - 1,
                nextpos,
                assoc,
                _window_width(assoc),
                m,
            )
            if hit_pend is None:
                return None
            hit[pend[hit_pend]] = True

        # ---- residency runs ([miss, hit...] per block, in block order) ----
        # A run ends where its block's next occurrence misses, or at its
        # last one; its dirty flag is the OR of its rows' write flags.
        miss_bo = np.empty(m, dtype=bool)
        miss_bo[0] = True
        np.logical_not(hit, out=miss_bo[1:])
        run_start = np.flatnonzero(miss_bo)
        perm_bo = np.take(perm, bo)
        run_dirty = np.logical_or.reduceat(
            np.take(np.concatenate([self._dirty, is_write]), perm_bo), run_start
        )
        # Row-order flags: 1 miss, 2 run end, 4 dirty run end.
        flags_bo = miss_bo.astype(np.uint8)
        flags_bo[:-1] |= miss_bo[1:].view(np.uint8) << 1
        flags_bo[-1] |= 2
        # Run i ends just before run i + 1 starts, the last one at m - 1.
        flags_bo[run_start[1:][run_dirty[:-1]] - 1] |= 4
        if run_dirty[-1]:
            flags_bo[-1] |= 4
        flags = np.empty(m, dtype=np.uint8)
        flags[bo] = flags_bo

        # ---- evictions: a miss evicts iff >= assoc distinct preceded it ----
        # Only a set's first assoc first occurrences (its resident lines
        # among them) fill it without evicting; every other miss evicts.
        evicts = flags & 1
        fills = np.minimum(np.diff(seen), assoc)
        evicts[np.flatnonzero(first_occ)[_ranges(seen[:-1], fills)]] = 0
        evict_rows = np.flatnonzero(evicts)
        # Runs in (set, end position) order; per set, victims are the runs
        # with the smallest end positions, matched to the evicting misses
        # in time order, and the rest survive as its LRU -> MRU stack.
        run_end = np.flatnonzero(flags & 2)
        run_off = np.searchsorted(run_end, starts)
        kept = np.diff(run_off) - np.diff(np.searchsorted(evict_rows, starts))
        survivors = _ranges(run_off[1:] - kept, kept)
        victim = np.ones(len(run_end), dtype=bool)
        victim[survivors] = False
        victim_rows = run_end[victim]
        victim_dirty = (np.take(flags, victim_rows) >> 2).view(bool)
        if victim_dirty.any():
            wb_pos = np.take(perm, evict_rows[victim_dirty]) - k
            order = stable_argsort_ids(wb_pos)
            wb_pos = np.take(wb_pos, order)
            # Victims come from the int64 state; they leave at the stream's width.
            wb_block = fit_ids(
                np.take(sm_block, np.take(victim_rows[victim_dirty], order)),
                blocks.dtype,
            )
        else:
            wb_pos, wb_block = _NO_POSITIONS, blocks[:0]

        # ---- misses in original stream order ----
        miss_all = np.empty(m, dtype=bool)
        miss_all[perm_bo] = miss_bo
        miss_orig = miss_all[k:]

        # ---- commit final state: surviving runs, end position ascending ----
        kept_rows = np.take(run_end, survivors)
        self._adopt(
            kept.astype(np.int32),
            np.take(sm_block, kept_rows),
            (np.take(flags, kept_rows) >> 2).view(bool),
        )
        return miss_orig, wb_pos, wb_block

    # -- maintenance ----------------------------------------------------------

    def _rows_in(self, lookup: np.ndarray) -> np.ndarray:
        """Mask over resident rows whose block is in the sorted ``lookup``.

        Binary search of the (few) resident lines in the lookup array,
        several times cheaper than ``np.isin`` against a long lookup.
        """
        if not len(lookup) or not len(self._blocks):
            return np.zeros(len(self._blocks), dtype=bool)
        idx = np.searchsorted(lookup, self._blocks)
        np.minimum(idx, len(lookup) - 1, out=idx)
        return lookup[idx] == self._blocks

    def extract(self, block: int) -> bool:
        """Silently remove a line (ownership migrated to a peer cache)."""
        return bool(self.extract_all([block]))

    def extract_all(self, blocks: Iterable[int]) -> int:
        """Silently remove every listed line at once; returns how many were
        resident (the bulk form of :meth:`extract`)."""
        gone = self._rows_in(_sorted_ids(blocks)[0])
        count = int(np.count_nonzero(gone))
        if count:
            self._keep_rows(~gone)
        return count

    def invalidate(self, blocks: Iterable[int]) -> int:
        """Drop any of the given lines without writeback (DMA overwrite)."""
        dropped = self.extract_all(blocks)
        self.stats.invalidations += dropped
        return dropped

    def flush(self, blocks: Iterable[int]) -> List[int]:
        """Write back and drop any dirty copies of the given lines.

        The written blocks come in lookup order, each once, as the
        reference's per-block loop reports them.
        """
        lookup, arr = _sorted_ids(blocks)
        gone = self._rows_in(lookup)
        if not gone.any():
            return []
        dirty_gone = np.sort(self._blocks[gone & self._dirty])
        if lookup is not arr and len(dirty_gone):
            hits = arr[np.isin(arr, dirty_gone)]
            _, first = np.unique(hits, return_index=True)
            dirty_gone = hits[np.sort(first)]
        written = dirty_gone.tolist()
        self._keep_rows(~gone)
        self.stats.writebacks += len(written)
        return written

    def drain(self) -> List[int]:
        """Write back every dirty line and empty the cache (end of ROI)."""
        written = np.sort(self._blocks[self._dirty]).tolist()
        self._empty()
        self.stats.writebacks += len(written)
        return written

    # -- state snapshot (stage memoization) ------------------------------------

    def state_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical state snapshot for :mod:`repro.sim.memo` (no copy).

        Identical encoding to the reference implementation's
        ``state_arrays`` (per-set line counts, block ids in set-index order
        each LRU -> MRU, matching dirty flags), so equal logical states
        produce byte-identical snapshots across impls and memoized stage
        entries are shared between them.  The arrays are the cache's own
        read-only state; later changes replace them, never write them.
        """
        return self._lengths, self._blocks, self._dirty

    def restore_state(
        self, state: Tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        """Adopt a :meth:`state_arrays` snapshot (stats are untouched)."""
        self._adopt(*state)


def downstream(
    blocks: np.ndarray, miss: np.ndarray, wb_pos: np.ndarray, wb_block: np.ndarray
) -> AccessStream:
    """The stream a cache sends below for one ``access_stream`` call.

    In stream order, each miss (``miss`` over ``blocks``) emits its fill
    read, immediately followed by the writeback of ``wb_block[i]`` when it
    evicted that dirty line at position ``wb_pos[i]`` (sorted, every one a
    miss).  Writeback ``i`` lands right after its miss's fill: after the
    fills up to its position and the ``i`` writebacks before it.  The fills
    take the other slots in order, so the ``j``-th lands at ``j`` plus the
    writebacks before it.  The downstream's ids keep the dtype of
    ``blocks``; a victim that does not fit it raises ``OverflowError``.
    """
    if not len(wb_pos):
        # No dirty victims: the downstream is just the miss fills.
        out_b = blocks[miss]
        return AccessStream(out_b, np.zeros(len(out_b), dtype=bool))
    fills = np.flatnonzero(miss)
    total = len(fills) + len(wb_pos)
    wb_at = np.searchsorted(fills, wb_pos)
    wb_at += np.arange(1, len(wb_pos) + 1)
    out_w = np.zeros(total, dtype=bool)
    out_w[wb_at] = True
    out_b = np.empty(total, dtype=blocks.dtype)
    out_b[wb_at] = fit_ids(wb_block, blocks.dtype)
    out_b[~out_w] = blocks[fills]
    return AccessStream(out_b, out_w)


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``first[i] .. first[i] + counts[i] - 1``."""
    offsets = np.cumsum(counts, dtype=np.intp) - counts
    return np.repeat(first - offsets, counts) + np.arange(int(offsets[-1] + counts[-1]))


def _sorted_ids(blocks: Iterable[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted lookup, lookup as given) of a block-id collection.

    Both are the same object when the ids already come sorted, as the
    hierarchy's sorted unique lookups do.
    """
    arr = np.asarray(
        blocks if isinstance(blocks, np.ndarray) else list(blocks),
        dtype=np.int64,
    )
    if len(arr) > 1 and not (arr[1:] >= arr[:-1]).all():
        return np.sort(arr), arr
    return arr, arr


def _window_classify(
    rows: np.ndarray,
    gaps: np.ndarray,
    nextpos: np.ndarray,
    assoc: int,
    window: int,
    m: int,
) -> Optional[np.ndarray]:
    """Exact windowed distinct counts for the unresolved accesses.

    For a pending set-major row ``p`` with reuse gap ``g`` (the ``rows``
    and ``gaps`` entries), the distinct blocks in the gap are exactly the
    gap rows that are the *last* occurrence of their block inside it
    (``nextpos >= p``; ``nextpos`` is ``m`` after a block's last row).
    Scanning the gap backwards ``window`` columns at a time, the count is
    exact once the gap is exhausted, and a partial count already >=
    ``assoc`` proves a miss.  Gap rows never leave the set: a row within
    the gap lies strictly between the previous occurrence and ``p``.

    Returns a hit mask aligned with ``rows``, or None if a pathological
    stream (huge gaps of repeats) exceeds the scan budget.
    """
    # Narrow value arrays cut the gather traffic of the window matrices,
    # the dominant cost of this pass.
    dtype = np.int16 if m < np.iinfo(np.int16).max else np.int32
    p = rows.astype(dtype)
    # windows[r] views the ``window`` rows before row r, nearest last; the
    # padding before row 0 never counts (and is masked anyway).
    padded = np.empty(window + m, dtype=dtype)
    padded[:window] = -1
    padded[window:] = nextpos
    windows = as_strided(
        padded, (m + 1, window), padded.strides * 2, writeable=False
    )
    cols = np.arange(window, dtype=dtype)
    hit_out = np.zeros(len(rows), dtype=bool)
    budget = _RESIDUE_BUDGET_FACTOR * m + (1 << 16)
    chunk = max(1, _CHUNK_ELEMS // window)

    # A bound first, without gathering any window: a gap row within
    # ``window`` rows of p whose block recurs ``window`` or more rows later
    # (or never) recurs only after p, so it is a distinct block of the
    # gap.  One running count of such rows proves most misses.
    far = np.cumsum(
        nextpos >= np.arange(window, window + m, dtype=nextpos.dtype),
        dtype=np.int32,
    )
    last_gap_row = rows - 1
    open_ = (
        far[last_gap_row] - far[last_gap_row - np.minimum(gaps, window)] < assoc
    )

    # Rows whose whole gap fits in one window: one masked pass, exact.
    exact_idx = np.flatnonzero(open_ & (gaps <= window))
    for lo in range(0, len(exact_idx), chunk):
        sel = exact_idx[lo : lo + chunk]
        within = cols >= (window - gaps[sel]).astype(dtype)[:, None]
        counted = windows[rows[sel]] >= p[sel, None]
        hit_out[sel] = np.count_nonzero(counted & within, axis=1) < assoc

    # Rows with wider gaps: every window column is a valid gap row (no
    # mask), and a partial count >= assoc already proves a miss; survivors
    # carry their count into the backward residue scan.
    big_idx = np.flatnonzero(open_ & (gaps > window))
    residue_idx: List[np.ndarray] = []
    residue_acc: List[np.ndarray] = []
    for lo in range(0, len(big_idx), chunk):
        sel = big_idx[lo : lo + chunk]
        distinct = np.count_nonzero(windows[rows[sel]] >= p[sel, None], axis=1)
        unresolved = distinct < assoc
        if unresolved.any():
            residue_idx.append(sel[unresolved])
            residue_acc.append(distinct[unresolved])

    if residue_idx:
        # Batched whole-gap pass: instead of marching every surviving row
        # forward one fixed-width window per iteration (whose iteration
        # count is set by the *longest* gap), gather each row's remaining
        # gap columns in one flat ragged pass — row ids repeated per
        # remaining column, per-row totals via one segmented reduceat —
        # chunked so a single gather stays within ``_CHUNK_ELEMS``.
        # Survivors of the first full-window pass carry fewer than
        # ``assoc`` distinct blocks in their nearest ``window`` columns,
        # so their gaps are overwhelmingly repeat-dominated and scanning
        # them outright is cheaper than windowed early exit.  The budget
        # check still precedes any scan work: a pathological stream aborts
        # to the serial loop before state is touched, exactly as before.
        idx = np.concatenate(residue_idx)
        acc = np.concatenate(residue_acc)
        remaining = gaps[idx].astype(np.int64) - window
        budget -= int(remaining.sum())
        if budget < 0:
            return None
        bounds = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(remaining, out=bounds[1:])
        r = rows[idx]
        pv = p[idx]
        total_rows = len(idx)
        start_row = 0
        while start_row < total_rows:
            end_row = (
                int(
                    np.searchsorted(
                        bounds,
                        bounds[start_row] + _CHUNK_ELEMS,
                        side="right",
                    )
                )
                - 1
            )
            end_row = min(max(end_row, start_row + 1), total_rows)
            seg = slice(start_row, end_row)
            seg_bounds = bounds[start_row : end_row + 1] - bounds[start_row]
            repeat = np.repeat(
                np.arange(end_row - start_row, dtype=np.int64),
                remaining[seg],
            )
            col = (
                np.arange(int(seg_bounds[-1]), dtype=np.int64)
                - seg_bounds[repeat]
                + window
            )
            j = r[seg][repeat] - 1 - col
            last = (nextpos[j] >= pv[seg][repeat]).astype(np.int64)
            counts = acc[seg] + np.add.reduceat(last, seg_bounds[:-1])
            hit_out[idx[seg]] = counts < assoc
            start_row = end_row
    return hit_out
