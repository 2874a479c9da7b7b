"""Fig. 8: migrated-compute run-time estimates (Eqs. 2-4)."""

import pytest

from repro.core.migrate import MigrateBound
from repro.experiments import fig8


@pytest.fixture(scope="module")
def rows(runner):
    return fig8.run(runner)


def test_fig8_migrate(runner, rows, save_result):
    assert len(rows) == 46
    save_result("fig8_migrate", fig8.render(runner))


def test_fig8_migration_gains_beyond_overlap(rows):
    # Paper: fully utilizing compute could improve performance by another
    # 4-13% in common cases.
    stats = fig8.summary(rows)
    assert stats["geomean_limited_migrate_gain"] >= 0.04


def test_fig8_some_benchmarks_stay_copy_bound(rows):
    # Paper: ~20% of benchmarks remain copy-dominated on the discrete GPU.
    stats = fig8.summary(rows)
    assert 0.05 <= stats["copy_dominated_fraction"] <= 0.45


def test_fig8_cpu_heavy_benchmarks_gain_most(rows):
    # Rodinia dwt: CPU execution dominates, so the estimated gains are
    # substantially larger than the common case.
    by_name = {r.benchmark: r for r in rows}
    dwt = by_name["rodinia/dwt"]
    gain_dwt = 1.0 - dwt.limited_estimate.runtime_s / dwt.limited_runtime_s
    assert gain_dwt > 0.4


def test_fig8_estimates_within_physical_bounds(rows):
    for row in rows:
        estimate = row.copy_estimate
        assert estimate.runtime_s == pytest.approx(
            max(
                estimate.copy_bound_s,
                estimate.core_bound_s,
                estimate.bandwidth_bound_s,
            )
        )


def test_fig8_kmeans_copy_bound_on_discrete(rows):
    by_name = {r.benchmark: r for r in rows}
    assert by_name["rodinia/kmeans"].copy_estimate.bound is MigrateBound.COPY
