"""Fig. 6: run-time component activity breakdown."""

import pytest

from repro.experiments import fig6


@pytest.fixture(scope="module")
def rows(runner):
    return fig6.run(runner)


def test_fig6_runtime(runner, rows, save_result):
    assert len(rows) == 46
    save_result("fig6_runtime", fig6.render(runner))


def test_fig6_geomean_improvement_is_modest(rows):
    # Paper: removing copies yields a geomean 7% run-time improvement —
    # modest, because page-fault slowdowns offset the copy savings.
    stats = fig6.summary(rows)
    assert 0.0 <= stats["geomean_runtime_improvement"] <= 0.20


def test_fig6_execution_is_mostly_serialized(rows):
    # Paper: most execution time runs exactly one component (the
    # bulk-synchronous structure) for both versions.
    stats = fig6.summary(rows)
    assert stats["mean_serial_fraction_copy"] > 0.85


def test_fig6_pagefault_benchmarks_slow_down(rows):
    # srad (7x GPU slowdown) and heartwall regress after porting.
    by_name = {r.benchmark: r for r in rows}
    assert by_name["rodinia/srad"].runtime_ratio > 2.0
    assert by_name["rodinia/heartwall"].runtime_ratio > 1.2
    stats = fig6.summary(rows)
    assert stats["slowdown_benchmarks"] >= 2


def test_fig6_copy_heavy_benchmarks_improve_most(rows):
    by_name = {r.benchmark: r for r in rows}
    # Benchmarks whose baselines are copy-dominated gain the most.
    assert by_name["rodinia/kmeans"].runtime_ratio < 0.75
    assert by_name["rodinia/backprop"].runtime_ratio < 0.85


def test_fig6_limited_copy_has_no_copy_only_time_when_fully_ported(rows):
    by_name = {r.benchmark: r for r in rows}
    # kmeans loses every copy; its limited-copy bar has no copy segment.
    assert by_name["rodinia/kmeans"].limited.copy_only_s == 0.0
    # cutcp keeps residual copies; its bar still shows copy time.
    assert by_name["parboil/cutcp"].limited.copy_only_s > 0.0
