"""Fig. 3: kmeans run times for the five benchmark organizations.

Regenerates the Section II case study and checks the paper's shape: copies
dominate the baseline, each optimization step helps, GPU utilization climbs
monotonically, and well over half the baseline run time is recovered.
"""

import pytest

from repro.core.casestudy import ORGANIZATIONS
from repro.experiments import fig3


@pytest.fixture(scope="module")
def rows(bench_options):
    return fig3.run(bench_options)


def test_fig3_kmeans_case_study(rows, bench_options, save_result):
    assert [r.organization for r in rows] == list(ORGANIZATIONS)
    save_result("fig3_kmeans_case_study", fig3.render(bench_options))


def test_fig3_baseline_matches_paper_shape(rows):
    baseline = rows[0]
    # Paper: GPU idle 82% of baseline (utilization ~18%).
    assert baseline.gpu_utilization == pytest.approx(0.18, abs=0.07)


def test_fig3_each_step_improves(rows):
    normalized = [r.normalized_runtime for r in rows]
    assert normalized == sorted(normalized, reverse=True)


def test_fig3_recovery_matches_paper(rows):
    # Paper: up to 77% of run time recovered by the final organization.
    recovered = 1.0 - rows[-1].normalized_runtime
    assert 0.6 <= recovered <= 0.85


def test_fig3_gpu_utilization_climbs(rows):
    utils = [r.gpu_utilization for r in rows]
    assert utils[-1] > utils[2] > utils[0]


def test_fig3_no_copy_roughly_halves_runtime(rows):
    by_label = {r.organization: r for r in rows}
    assert by_label["No Memory Copy"].normalized_runtime == pytest.approx(
        0.50, abs=0.12
    )
