"""The region lattice: canonical sets of fractional buffer intervals.

A buffer region is abstracted as a finite union of half-open fractional
intervals ``[start, end) ⊆ [0, 1)``.  :class:`IntervalSet` keeps that
union in canonical form (sorted, disjoint, merged at touching endpoints),
which makes equality a structural comparison and the lattice operations
(union = join, intersection = meet, subtraction) straightforward sweeps.

The lattice has unbounded chains — a chunking transform splitting a stage
into *n* lanes produces *n* disjoint intervals, and nothing bounds *n* —
so the abstract interpreter widens: once a set holds more than
:data:`WIDEN_LIMIT` intervals it is collapsed to its convex hull
(*chunk-lane widening*).  The hull is a sound over-approximation: every
byte the precise set covers is covered by the hull, so dead-write and
disjointness facts derived from the widened set only lose precision,
never soundness (liveness may be over-reported, never under-reported).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.pipeline.stage import Region

#: Maximum number of disjoint intervals an :class:`IntervalSet` may hold
#: before widening collapses it to its convex hull.  16 comfortably covers
#: the chunk counts the transforms use (4-8 lanes) while bounding the
#: fixpoint state on adversarial (Hypothesis-generated) pipelines.
WIDEN_LIMIT = 16

_EPS = 1e-12


@dataclass(frozen=True)
class IntervalSet:
    """A canonical union of disjoint, sorted, half-open intervals."""

    intervals: Tuple[Tuple[float, float], ...] = ()

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[float, float]]) -> "IntervalSet":
        """Canonicalize arbitrary (possibly overlapping) pairs."""
        cleaned = sorted((lo, hi) for lo, hi in pairs if hi - lo > _EPS)
        merged: List[Tuple[float, float]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1] + _EPS:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return IntervalSet(tuple(merged))

    @staticmethod
    def union_all(parts: Iterable["IntervalSet"]) -> "IntervalSet":
        """Join of many sets in one canonicalizing pass.

        Equal to folding :meth:`union` over ``parts`` (merging is
        insensitive to pre-merged groups), without the per-step re-sorts.
        """
        return IntervalSet.from_pairs(
            pair for part in parts for pair in part.intervals
        )

    @staticmethod
    def from_region(region: Region) -> "IntervalSet":
        return IntervalSet(((region.start, region.end),))

    # -- predicates ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> float:
        """Total covered fraction of the buffer."""
        return sum(hi - lo for lo, hi in self.intervals)

    def overlaps(self, other: "IntervalSet") -> bool:
        return not self.intersect(other).is_empty

    def covers(self, other: "IntervalSet") -> bool:
        """Whether every byte of ``other`` lies inside this set."""
        return other.subtract(self).is_empty

    # -- lattice operations --------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_pairs(self.intervals + other.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: List[Tuple[float, float]] = []
        for a_lo, a_hi in self.intervals:
            for b_lo, b_hi in other.intervals:
                lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
                if hi - lo > _EPS:
                    out.append((lo, hi))
        return IntervalSet.from_pairs(out)

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        remaining = list(self.intervals)
        for b_lo, b_hi in other.intervals:
            next_remaining: List[Tuple[float, float]] = []
            for lo, hi in remaining:
                if b_hi <= lo + _EPS or b_lo >= hi - _EPS:
                    next_remaining.append((lo, hi))
                    continue
                if b_lo > lo + _EPS:
                    next_remaining.append((lo, b_lo))
                if b_hi < hi - _EPS:
                    next_remaining.append((b_hi, hi))
            remaining = next_remaining
        return IntervalSet.from_pairs(remaining)

    def hull(self) -> "IntervalSet":
        """The convex hull — the widening target."""
        if not self.intervals:
            return self
        return IntervalSet(((self.intervals[0][0], self.intervals[-1][1]),))

    def widen(self, limit: int = WIDEN_LIMIT) -> "IntervalSet":
        """Chunk-lane widening: collapse to the hull past ``limit`` pieces."""
        if len(self.intervals) <= limit:
            return self
        return self.hull()


EMPTY_SET = IntervalSet(())
FULL_SET = IntervalSet(((0.0, 1.0),))
