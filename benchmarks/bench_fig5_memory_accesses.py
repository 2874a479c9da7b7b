"""Fig. 5: memory access breakdown by component type."""

import pytest

from repro.experiments import fig5
from repro.sim.hierarchy import Component


@pytest.fixture(scope="module")
def rows(runner):
    return fig5.run(runner)


def test_fig5_memory_accesses(runner, rows, save_result):
    assert len(rows) == 46
    save_result("fig5_memory_accesses", fig5.render(runner))


def test_fig5_geomean_access_reduction(rows):
    # Paper: total copy accesses decline by more than 11% in the geomean.
    stats = fig5.summary(rows)
    assert 0.03 <= stats["geomean_access_reduction"] <= 0.30


def test_fig5_substantial_subset_over_20_percent(rows):
    stats = fig5.summary(rows)
    assert stats["benchmarks_copy_over_20pct"] >= 0.2


def test_fig5_graph_suites_have_small_copy_fractions(rows):
    # Paper: for most Lonestar and Pannotia benchmarks, copies account for
    # at most 5% of total memory accesses.
    graph_rows = [
        r
        for r in rows
        if r.benchmark.startswith(("lonestar/", "pannotia/"))
        and r.benchmark != "lonestar/bh"
        and r.benchmark != "lonestar/tsp"
    ]
    small = sum(1 for r in graph_rows if r.copy_fraction <= 0.06)
    assert small >= len(graph_rows) * 0.8


def test_fig5_misaligned_benchmarks_gain_gpu_accesses(rows):
    # The '*' benchmarks see elevated limited-copy GPU cache traffic.
    for row in rows:
        if row.misaligned:
            assert (
                row.limited_accesses[Component.GPU]
                > row.copy_accesses[Component.GPU]
            ), row.benchmark


def test_fig5_cpu_gpu_counts_remain_similar(rows):
    # Paper: CPU and GPU access counts remain substantially similar after
    # removing copies (for non-misaligned, non-fault-shifted benchmarks).
    similar = 0
    candidates = [r for r in rows if not r.misaligned]
    for row in candidates:
        copy_core = row.copy_accesses[Component.GPU]
        limited_core = row.limited_accesses[Component.GPU]
        if copy_core and 0.7 <= limited_core / copy_core <= 1.4:
            similar += 1
    assert similar >= len(candidates) * 0.7
