"""Tests for repro.sim.results (intervals, activity breakdown, Eq. 1's Cserial).

``activity_breakdown`` and ``SimResult.serial_launch_time`` walk sorted
merged intervals once.  The property tests hold them to the quadratic
scans they replaced, kept here as oracles, over random busy maps and
launch slivers: the float values must be equal bit for bit and the
breakdown's keys must come in the same order.  They run the loaded
Hypothesis profile's example count (``--hypothesis-profile deep`` in CI's
differential job).
"""

from typing import Dict, List, Mapping, Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.hierarchy import Component
from repro.sim.results import (
    ActivityMask,
    Interval,
    SimResult,
    activity_breakdown,
    merge_intervals,
    total_time,
)


class TestInterval:
    def test_length(self):
        assert Interval(1.0, 3.0).length == 2.0

    def test_rejects_backwards(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_zero_length_allowed(self):
        assert Interval(1.0, 1.0).length == 0.0


class TestMergeIntervals:
    def test_disjoint_stay_separate(self):
        merged = merge_intervals([Interval(0, 1), Interval(2, 3)])
        assert len(merged) == 2

    def test_overlapping_coalesce(self):
        merged = merge_intervals([Interval(0, 2), Interval(1, 3)])
        assert merged == [Interval(0, 3)]

    def test_adjacent_coalesce(self):
        merged = merge_intervals([Interval(0, 1), Interval(1, 2)])
        assert merged == [Interval(0, 2)]

    def test_contained_absorbed(self):
        merged = merge_intervals([Interval(0, 10), Interval(2, 3)])
        assert merged == [Interval(0, 10)]

    def test_unsorted_input(self):
        merged = merge_intervals([Interval(5, 6), Interval(0, 1)])
        assert merged == [Interval(0, 1), Interval(5, 6)]

    def test_total_time_deduplicates(self):
        assert total_time([Interval(0, 2), Interval(1, 3)]) == pytest.approx(3.0)


class TestActivityBreakdown:
    def test_exclusive_segments(self):
        busy = {
            Component.COPY: [Interval(0.0, 1.0)],
            Component.GPU: [Interval(1.0, 3.0)],
            Component.CPU: [],
        }
        activity = activity_breakdown(busy, roi_s=4.0)
        assert activity[frozenset({Component.COPY})] == pytest.approx(1.0)
        assert activity[frozenset({Component.GPU})] == pytest.approx(2.0)
        assert activity[frozenset()] == pytest.approx(1.0)

    def test_overlap_segment(self):
        busy = {
            Component.CPU: [Interval(0.0, 2.0)],
            Component.GPU: [Interval(1.0, 3.0)],
        }
        activity = activity_breakdown(busy, roi_s=3.0)
        assert activity[frozenset({Component.CPU, Component.GPU})] == pytest.approx(1.0)
        assert activity[frozenset({Component.CPU})] == pytest.approx(1.0)
        assert activity[frozenset({Component.GPU})] == pytest.approx(1.0)

    def test_segments_sum_to_roi(self):
        busy = {
            Component.CPU: [Interval(0.0, 0.5), Interval(2.0, 2.25)],
            Component.GPU: [Interval(0.25, 1.5)],
            Component.COPY: [Interval(1.0, 2.5)],
        }
        activity = activity_breakdown(busy, roi_s=3.0)
        assert sum(activity.values()) == pytest.approx(3.0)

    def test_empty_busy_is_all_idle(self):
        activity = activity_breakdown({}, roi_s=2.0)
        assert activity == {frozenset(): 2.0}

    def test_triple_overlap(self):
        busy = {comp: [Interval(0.0, 1.0)] for comp in Component}
        activity = activity_breakdown(busy, roi_s=1.0)
        assert activity == {frozenset(Component): pytest.approx(1.0)}


# --- the interval sweeps against their quadratic oracles ----------------------


def quadratic_activity_breakdown(
    busy: Mapping[Component, Sequence[Interval]], roi_s: float
) -> Dict[ActivityMask, float]:
    """Every segment's midpoint tested against every merged interval."""
    merged = {comp: merge_intervals(list(ivs)) for comp, ivs in busy.items()}
    boundaries = {0.0, roi_s}
    for intervals in merged.values():
        for iv in intervals:
            if 0.0 <= iv.start <= roi_s:
                boundaries.add(iv.start)
            if 0.0 <= iv.end <= roi_s:
                boundaries.add(iv.end)
    points = sorted(boundaries)
    out: Dict[ActivityMask, float] = {}
    for lo, hi in zip(points, points[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2.0
        active = frozenset(
            comp
            for comp, intervals in merged.items()
            if any(iv.start <= mid < iv.end for iv in intervals)
        )
        out[active] = out.get(active, 0.0) + (hi - lo)
    return out


def quadratic_serial_launch_time(
    busy: Mapping[Component, Sequence[Interval]], launches: Sequence[Interval]
) -> float:
    """Every launch sliver's overlap with every merged masking interval."""
    masking = merge_intervals(
        list(busy.get(Component.GPU, [])) + list(busy.get(Component.COPY, []))
    )
    serial = 0.0
    for launch in launches:
        covered = 0.0
        for iv in masking:
            lo = max(launch.start, iv.start)
            hi = min(launch.end, iv.end)
            if hi > lo:
                covered += hi - lo
        serial += max(0.0, launch.length - covered)
    return serial


#: Endpoints on a quarter grid touch, nest and repeat; the free floats
#: between them add sums that do not round evenly.  Both reach below 0 and
#: past the largest ROI drawn.
times = st.one_of(
    st.integers(-4, 24).map(lambda k: k / 4),
    st.floats(-1.0, 6.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def intervals(draw) -> Interval:
    start, end = sorted((draw(times), draw(times)))
    if draw(st.booleans()):
        end = start  # zero length
    return Interval(start, end)


#: Busy maps: any subset of the components, in any key order, each with a
#: few possibly overlapping intervals in any order.
busy_maps = st.dictionaries(
    st.sampled_from(list(Component)), st.lists(intervals(), max_size=8), max_size=3
)
rois = st.one_of(st.integers(0, 20).map(lambda k: k / 4), st.floats(0.0, 5.0))


def bits(values: Mapping[ActivityMask, float]) -> List[tuple]:
    """Keys in insertion order with the exact bits of their values."""
    return [(mask, float.hex(value)) for mask, value in values.items()]


@given(busy=busy_maps, roi_s=rois)
def test_activity_breakdown_matches_quadratic_scan(busy, roi_s):
    assert bits(activity_breakdown(busy, roi_s)) == bits(
        quadratic_activity_breakdown(busy, roi_s)
    )


@given(busy=busy_maps, launches=st.lists(intervals(), max_size=10))
def test_serial_launch_time_matches_quadratic_scan(busy, launches):
    result = SimResult(
        pipeline_name="oracle",
        system_kind="discrete",
        roi_s=0.0,
        stages=(),
        busy=busy,
        launch_intervals=launches,
        line_bytes=64,
    )
    assert float.hex(result.serial_launch_time()) == float.hex(
        quadratic_serial_launch_time(busy, launches)
    )
