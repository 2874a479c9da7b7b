"""Fig. 4: memory footprint touched by component type."""

import pytest

from repro.core.metrics import geomean
from repro.experiments import fig4


@pytest.fixture(scope="module")
def rows(runner):
    return fig4.run(runner)


def test_fig4_footprint(runner, rows, save_result):
    assert len(rows) == 46
    save_result("fig4_footprint", fig4.render(runner))


def test_fig4_limited_copy_footprints_shrink(rows):
    ratios = [r.footprint_ratio for r in rows]
    # Paper: eliminating mirrored data significantly reduces footprints.
    assert geomean([max(r, 1e-9) for r in ratios]) < 0.85
    assert all(r <= 1.0 + 1e-9 for r in ratios)


def test_fig4_gpu_touches_most_of_limited_footprint(rows):
    # Paper: of the remaining limited-copy footprint, the GPU usually uses
    # more than 70% of the data.
    share = sum(1 for r in rows if r.gpu_share_of_limited() > 0.7) / len(rows)
    assert share > 0.6


def test_fig4_copy_engine_touches_most_copy_version_data(rows):
    # Paper: copy portions make up nearly all of each copy-version bar.
    heavy = 0
    for r in rows:
        copied = sum(
            frac for label, frac in r.copy_fractions.items() if "copy" in label
        )
        if copied > 0.5:
            heavy += 1
    assert heavy >= len(rows) * 0.7


def test_fig4_graph_benchmarks_leave_data_untouched(rows):
    # Lonestar bfs / Pannotia fw: the copy engine touches nearly all data
    # but CPU+GPU touch under half of it.
    by_name = {r.benchmark: r for r in rows}
    for name in ("lonestar/bfs", "pannotia/fw"):
        row = by_name[name]
        cpu_gpu = sum(
            frac
            for label, frac in row.copy_fractions.items()
            if "copy" not in label
        )
        copy_only = row.copy_fractions.get("copy", 0.0)
        assert copy_only > cpu_gpu
