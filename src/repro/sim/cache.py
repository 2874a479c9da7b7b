"""Set-associative, write-back, write-allocate LRU cache model.

Operates on block ids (one block = one cache line).  The access loop is the
simulator's hot path, so it is written against plain Python lists/sets with
locals bound outside the loop; streams arrive as numpy arrays and results
return as numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

import numpy as np

from repro.config.components import CacheConfig
from repro.trace.stream import AccessStream


@dataclass
class CacheStats:
    """Cumulative counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssocCache:
    """One cache level.

    On a hit the line moves to MRU position; on a miss the line is filled
    (producing a read request below) and the LRU line of the set is evicted,
    producing a writeback below when dirty.
    """

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.associativity
        # Per-set LRU stacks: index 0 is LRU, last is MRU.
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._dirty: Set[int] = set()
        self._resident: Set[int] = set()
        self.stats = CacheStats()

    # -- queries ---------------------------------------------------------------

    def __contains__(self, block: int) -> bool:
        return block in self._resident

    @property
    def resident_blocks(self) -> Set[int]:
        """Live view of resident block ids (do not mutate)."""
        return self._resident

    @property
    def occupancy(self) -> int:
        return len(self._resident)

    # -- the hot path ------------------------------------------------------------

    def access_stream(self, stream: AccessStream) -> AccessStream:
        """Run a stream through the cache; return the downstream stream.

        The downstream stream contains, in occurrence order, a read for every
        miss fill and a write for every dirty eviction.
        """
        return self.access_misses(stream)[0]

    def access_misses(
        self, stream: AccessStream
    ) -> Tuple[AccessStream, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`access_stream` plus (miss mask over ``stream``, stream
        positions whose miss evicted a dirty line, the evicted lines); the
        evicted lines are the downstream's writes, in the same order."""
        n = len(stream)
        if not n:
            return (
                AccessStream.empty(),
                np.zeros(0, dtype=bool),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        blocks = stream.blocks.tolist()
        writes = stream.is_write.tolist()
        set_of = (stream.blocks % self.num_sets).tolist()

        sets = self._sets
        dirty = self._dirty
        resident = self._resident
        assoc = self.assoc
        out_blocks: List[int] = []
        out_writes: List[bool] = []
        miss = np.zeros(n, dtype=bool)
        wb_pos: List[int] = []
        wb_blocks: List[int] = []
        hits = 0

        for i in range(n):
            block = blocks[i]
            lru = sets[set_of[i]]
            if block in resident:
                # Hit: move to MRU.
                lru.remove(block)
                lru.append(block)
                hits += 1
            else:
                # Miss: fill from below.
                miss[i] = True
                out_blocks.append(block)
                out_writes.append(False)
                lru.append(block)
                resident.add(block)
                if len(lru) > assoc:
                    victim = lru.pop(0)
                    resident.discard(victim)
                    if victim in dirty:
                        dirty.discard(victim)
                        wb_pos.append(i)
                        wb_blocks.append(victim)
                        out_blocks.append(victim)
                        out_writes.append(True)
            if writes[i]:
                dirty.add(block)

        self.stats.accesses += n
        self.stats.hits += hits
        self.stats.misses += n - hits
        self.stats.writebacks += sum(out_writes)
        downstream = AccessStream(
            np.asarray(out_blocks, dtype=np.int64),
            np.asarray(out_writes, dtype=bool),
        )
        return (
            downstream,
            miss,
            np.asarray(wb_pos, dtype=np.int64),
            np.asarray(wb_blocks, dtype=np.int64),
        )

    # -- maintenance ----------------------------------------------------------

    def extract(self, block: int) -> bool:
        """Silently remove a line (ownership migrated to a peer cache).

        Returns True if the line was present.  No writeback is generated:
        the peer now owns the (possibly dirty) data on chip.
        """
        if block not in self._resident:
            return False
        self._sets[block % self.num_sets].remove(block)
        self._resident.discard(block)
        self._dirty.discard(block)
        return True

    def invalidate(self, blocks: Iterable[int]) -> int:
        """Drop any of the given lines without writeback (DMA overwrite).

        Returns the number of lines dropped.
        """
        dropped = 0
        for block in blocks:
            if block in self._resident:
                self._sets[block % self.num_sets].remove(block)
                self._resident.discard(block)
                self._dirty.discard(block)
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    def flush(self, blocks: Iterable[int]) -> List[int]:
        """Write back and drop any dirty copies of the given lines.

        Returns the block ids written back (for off-chip accounting); clean
        copies are dropped silently.
        """
        written: List[int] = []
        for block in blocks:
            if block in self._resident:
                if block in self._dirty:
                    written.append(block)
                self._sets[block % self.num_sets].remove(block)
                self._resident.discard(block)
                self._dirty.discard(block)
        self.stats.writebacks += len(written)
        return written

    def drain(self) -> List[int]:
        """Write back every dirty line and empty the cache (end of ROI)."""
        written = sorted(self._dirty)
        self._sets = [[] for _ in range(self.num_sets)]
        self._dirty = set()
        self._resident = set()
        self.stats.writebacks += len(written)
        return written

    # -- state snapshot (stage memoization) ------------------------------------

    def state_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical state snapshot for :mod:`repro.sim.memo`.

        Returns (per-set line counts, block ids concatenated in set-index
        order each LRU->MRU, matching dirty flags).  The encoding is
        implementation-independent: whenever this model and
        :class:`repro.sim.fastcache.FastSetAssocCache` are in the same
        logical state they produce byte-identical snapshots, so memoized
        stage entries are shared between the two.
        """
        lengths = np.fromiter(
            (len(lru) for lru in self._sets), np.int32, count=self.num_sets
        )
        total = int(lengths.sum())
        blocks = np.fromiter(
            (block for lru in self._sets for block in lru), np.int64, count=total
        )
        dirty_set = self._dirty
        dirty = np.fromiter(
            (block in dirty_set for lru in self._sets for block in lru),
            bool,
            count=total,
        )
        return lengths, blocks, dirty

    def restore_state(
        self, state: Tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        """Adopt a :meth:`state_arrays` snapshot (stats are untouched)."""
        lengths, blocks, dirty = state
        block_list = blocks.tolist()
        sets: List[List[int]] = []
        pos = 0
        for count in lengths.tolist():
            sets.append(block_list[pos : pos + count])
            pos += count
        self._sets = sets
        self._resident = set(block_list)
        self._dirty = set(blocks[dirty].tolist())
