"""Fig. 9: off-chip memory accesses broken down by cause."""

import pytest

from repro.core.classify import AccessClass
from repro.experiments import fig9


@pytest.fixture(scope="module")
def rows(runner):
    return fig9.run(runner)


def test_fig9_access_classes(runner, rows, save_result):
    assert len(rows) == 46
    save_result("fig9_access_classes", fig9.render(runner))


def test_fig9_contention_dominates_for_many(rows):
    # Paper: R-R contention accounts for 38% of accesses on average and
    # upwards of 80% for many benchmarks.
    stats = fig9.summary(rows)
    assert 0.2 <= stats["mean_rr_contention"] <= 0.6
    high = sum(
        1 for r in rows if r.limited.fraction(AccessClass.RR_CONTENTION) > 0.5
    )
    assert high >= 5


def test_fig9_spills_are_modest(rows):
    # Paper: inter-stage cache spills represent about 10% of accesses.
    stats = fig9.summary(rows)
    assert 0.02 <= stats["mean_spills"] <= 0.25


def test_fig9_contention_is_about_half_of_accesses(rows):
    # Paper: half of all memory accesses result from cache contention.
    stats = fig9.summary(rows)
    assert 0.3 <= stats["mean_contention"] <= 0.65


def test_fig9_bandwidth_limited_also_contended(rows):
    # Paper: most bandwidth-limited benchmarks also show significant cache
    # contention, so fixing contention cuts bandwidth demand.
    stats = fig9.summary(rows)
    assert stats["bandwidth_limited_also_contended"] >= 0.7


def test_fig9_kmeans_wr_spills_match_case_study(rows):
    # Section II: ~9.5% of kmeans accesses were W-R spills.
    by_name = {r.benchmark: r for r in rows}
    wr = by_name["rodinia/kmeans"].limited.fraction(AccessClass.WR_SPILL)
    assert 0.03 <= wr <= 0.25


def test_fig9_spills_persist_after_copy_removal(rows):
    # Paper: most benchmarks experience little reduction in cache spills
    # when removing memory copies — the residual kernel-granularity
    # synchronization keeps spilling inter-stage data.  The claim applies
    # to benchmarks whose spills are substantial in the first place (the
    # graph suites' tiny spills are copy-adjacent and disappear with the
    # copies).
    persistent = 0
    considered = 0
    for row in rows:
        copy_spills = (
            row.copy.counts[AccessClass.WR_SPILL]
            + row.copy.counts[AccessClass.RR_SPILL]
        )
        limited_spills = (
            row.limited.counts[AccessClass.WR_SPILL]
            + row.limited.counts[AccessClass.RR_SPILL]
        )
        if copy_spills < 0.05 * max(row.copy.total, 1):
            continue
        considered += 1
        if limited_spills > copy_spills * 0.4:
            persistent += 1
    assert considered >= 10
    assert persistent >= considered * 0.6
