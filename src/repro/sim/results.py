"""Simulation results: schedules, activity timelines, and memory logs."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

import numpy as np

from repro.pipeline.stage import StageKind
from repro.sim.fastcache import stable_argsort_ids
from repro.sim.hierarchy import COMPONENT_CODE, Component
from repro.sim.timing import StageTiming
from repro.trace.stream import BLOCK_DTYPE


@dataclass(frozen=True)
class Interval:
    """A half-open busy interval [start, end)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} before start {self.start}")

    @property
    def length(self) -> float:
        return self.end - self.start


def merge_intervals(intervals: Sequence[Interval]) -> List[Interval]:
    """Coalesce overlapping/adjacent intervals."""
    ordered = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    merged: List[Interval] = []
    for interval in ordered:
        if merged and interval.start <= merged[-1].end:
            if interval.end > merged[-1].end:
                merged[-1] = Interval(merged[-1].start, interval.end)
        else:
            merged.append(interval)
    return merged


def total_time(intervals: Sequence[Interval]) -> float:
    return sum(iv.length for iv in merge_intervals(intervals))


@dataclass(frozen=True)
class StageRecord:
    """One executed stage."""

    name: str
    logical: str
    kind: StageKind
    component: Component
    ordinal: int
    start_s: float
    end_s: float
    timing: StageTiming
    requests: int
    offchip_reads: int
    offchip_writes: int
    onchip_transfers: int
    faults: int
    flops: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def offchip_accesses(self) -> int:
        return self.offchip_reads + self.offchip_writes


@dataclass(frozen=True)
class InvariantViolation:
    """One conservation law the invariant monitor saw broken.

    ``rule`` is a stable identifier from the catalogue in
    ``docs/TRACING.md`` (INV001..); ``measured``/``expected`` carry the
    two sides of the broken equality when the law is numeric.
    """

    rule: str
    message: str
    ordinal: int = -1
    component: str = ""
    measured: float = 0.0
    expected: float = 0.0


ActivityMask = FrozenSet[Component]


def activity_breakdown(
    busy: Mapping[Component, Sequence[Interval]], roi_s: float
) -> Dict[ActivityMask, float]:
    """Segment [0, roi) by the set of concurrently active components.

    Returns seconds per active-set; ``frozenset()`` is idle time.  This is
    the data behind the paper's Fig. 3/6 stacked run-time bars.

    One walk over the sorted segment boundaries tests each segment's
    midpoint against one cursor per component.  A component's merged
    intervals are disjoint and sorted, and midpoints never decrease, so an
    interval ending at or before one midpoint holds no later one.
    """
    merged = {comp: merge_intervals(list(ivs)) for comp, ivs in busy.items()}
    boundaries = {0.0, roi_s}
    for intervals in merged.values():
        for iv in intervals:
            if 0.0 <= iv.start <= roi_s:
                boundaries.add(iv.start)
            if 0.0 <= iv.end <= roi_s:
                boundaries.add(iv.end)
    points = sorted(boundaries)
    cursor = dict.fromkeys(merged, 0)
    out: Dict[ActivityMask, float] = {}
    for lo, hi in zip(points, points[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2.0
        active = []
        for comp, intervals in merged.items():
            i = cursor[comp]
            while i < len(intervals) and intervals[i].end <= mid:
                i += 1
            cursor[comp] = i
            if i < len(intervals) and intervals[i].start <= mid:
                active.append(comp)
        mask = frozenset(active)
        out[mask] = out.get(mask, 0.0) + (hi - lo)
    return out


@dataclass
class SimResult:
    """Everything a simulation run produces."""

    pipeline_name: str
    system_kind: str
    roi_s: float
    stages: Tuple[StageRecord, ...]
    busy: Dict[Component, List[Interval]]
    launch_intervals: List[Interval]
    line_bytes: int
    # Off-chip log (program order): block, is_write, stage ordinal, component
    # code, plus the map from ordinal to logical-stage index.  Block ids here
    # and in ``touched_blocks`` are BLOCK_DTYPE.
    log_blocks: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=BLOCK_DTYPE)
    )
    log_is_write: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    log_stage: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    log_component: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))
    logical_of_ordinal: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32)
    )
    # Unique blocks touched per component at the *request* level (Fig. 4).
    touched_blocks: Dict[Component, np.ndarray] = field(default_factory=dict)
    total_flops: float = 0.0
    flops_by_component: Dict[Component, float] = field(default_factory=dict)
    # Conservation-law violations found by an attached InvariantMonitor
    # (repro.sim.observe); empty for untraced runs and for clean traced
    # runs, so attaching the monitor is observation-only in the clean case.
    violations: Tuple[InvariantViolation, ...] = ()

    # -- time ---------------------------------------------------------------

    def busy_time(self, component: Component) -> float:
        return total_time(self.busy.get(component, []))

    def utilization(self, component: Component) -> float:
        return self.busy_time(component) / self.roi_s if self.roi_s else 0.0

    def activity(self) -> Dict[ActivityMask, float]:
        return activity_breakdown(self.busy, self.roi_s)

    def exclusive_time(self, component: Component) -> float:
        """Time during which only ``component`` is active."""
        return self.activity().get(frozenset({component}), 0.0)

    def overlapped_time(self) -> float:
        """Time during which two or more components are active."""
        return sum(t for mask, t in self.activity().items() if len(mask) >= 2)

    def serial_launch_time(self) -> float:
        """Cserial of Eq. 1: launch time not masked by GPU or copy activity.

        Iterates launch slivers and subtracts the portions overlapped by any
        concurrently executing kernel or copy.  The merged masking intervals
        are disjoint and sorted, so those a sliver overlaps are one run:
        from the first ending after the sliver starts to the last starting
        before it ends.
        """
        masking = merge_intervals(
            list(self.busy.get(Component.GPU, []))
            + list(self.busy.get(Component.COPY, []))
        )
        starts = [iv.start for iv in masking]
        ends = [iv.end for iv in masking]
        serial = 0.0
        for launch in self.launch_intervals:
            covered = 0.0
            first = bisect_right(ends, launch.start)
            for iv in masking[first : bisect_left(starts, launch.end, first)]:
                lo = max(launch.start, iv.start)
                hi = min(launch.end, iv.end)
                if hi > lo:
                    covered += hi - lo
            serial += max(0.0, launch.length - covered)
        return serial

    # -- memory ------------------------------------------------------------------

    def offchip_accesses(self) -> int:
        return int(len(self.log_blocks))

    def offchip_by_component(self) -> Dict[Component, int]:
        return {
            comp: int(np.count_nonzero(self.log_component == COMPONENT_CODE[comp]))
            for comp in Component
        }

    def offchip_bytes(self) -> int:
        return self.offchip_accesses() * self.line_bytes

    def footprint_bytes_by_component(self) -> Dict[Component, int]:
        return {
            comp: int(len(blocks)) * self.line_bytes
            for comp, blocks in self.touched_blocks.items()
        }

    def footprint_blocks_by_subset(self) -> Dict[FrozenSet[Component], int]:
        """Distinct touched blocks per exact set of components touching them.

        One stable radix argsort of all components' touched blocks groups
        each block's entries; OR-ing one bit per component gives each
        block's set, and one bincount tallies the sets.
        """
        parts = {
            comp: blocks for comp, blocks in self.touched_blocks.items() if len(blocks)
        }
        if not parts:
            return {}
        touched = np.concatenate(list(parts.values()))
        bits = np.repeat(
            np.array([1 << COMPONENT_CODE[comp] for comp in parts], dtype=np.uint8),
            [len(blocks) for blocks in parts.values()],
        )
        order = stable_argsort_ids(touched)
        starts = np.flatnonzero(np.diff(touched[order], prepend=-1))
        masks = np.bitwise_or.reduceat(bits[order], starts)
        tallies = np.bincount(masks, minlength=1 << len(COMPONENT_CODE)).tolist()
        return {
            frozenset(c for c, code in COMPONENT_CODE.items() if mask >> code & 1): n
            for mask, n in enumerate(tallies)
            if n
        }

    def total_footprint_bytes(self) -> int:
        return sum(self.footprint_blocks_by_subset().values()) * self.line_bytes

    # -- convenience -----------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        return {
            "roi_s": self.roi_s,
            "cpu_busy_s": self.busy_time(Component.CPU),
            "gpu_busy_s": self.busy_time(Component.GPU),
            "copy_busy_s": self.busy_time(Component.COPY),
            "gpu_utilization": self.utilization(Component.GPU),
            "offchip_accesses": float(self.offchip_accesses()),
            "footprint_bytes": float(self.total_footprint_bytes()),
        }
