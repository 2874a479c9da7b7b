"""Fig. 7: component-overlap run-time estimates (Eq. 1)."""

import pytest

from repro.experiments import fig7
from repro.sim.hierarchy import Component


@pytest.fixture(scope="module")
def rows(runner):
    return fig7.run(runner)


def test_fig7_overlap(runner, rows, save_result):
    assert len(rows) == 46
    save_result("fig7_overlap", fig7.render(runner))


def test_fig7_estimates_never_exceed_measured(rows):
    for row in rows:
        assert row.copy_estimate.runtime_s <= row.copy_runtime_s * 1.0001
        assert row.limited_estimate.runtime_s <= row.limited_runtime_s * 1.0001


def test_fig7_meaningful_overlap_potential(rows):
    # Paper: overlapping communication and computation could improve run
    # times by 10-15%.
    stats = fig7.summary(rows)
    assert 0.05 <= stats["geomean_copy_overlap_gain"] <= 0.40


def test_fig7_overlap_narrows_copy_vs_limited_gap(rows):
    # Paper: the estimates suggest overlap can eliminate much of the
    # performance difference between copy and limited-copy versions.
    narrowed = 0
    considered = 0
    for row in rows:
        measured_gap = row.copy_runtime_s - row.limited_runtime_s
        if measured_gap <= 0:
            continue
        considered += 1
        estimate_gap = (
            row.copy_estimate.runtime_s - row.limited_estimate.runtime_s
        )
        if estimate_gap < measured_gap:
            narrowed += 1
    assert narrowed >= considered * 0.6


def test_fig7_gpu_is_common_bottleneck(rows):
    bottlenecks = [row.copy_estimate.bottleneck for row in rows]
    assert bottlenecks.count(Component.GPU) > len(rows) * 0.5
