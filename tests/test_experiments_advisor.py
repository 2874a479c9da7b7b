"""Tests for the Section VI optimization advisor."""

import pytest

from repro.experiments.advisor import (
    Optimization,
    Recommendation,
    advise,
)
from repro.experiments.runner import SweepRunner
from repro.sim.engine import SimOptions
from repro.workloads.registry import get

from tests.conftest import TINY_SCALE


@pytest.fixture(scope="module")
def runner():
    return SweepRunner(options=SimOptions(scale=TINY_SCALE))


class TestAdvise:
    def test_recommendations_sorted_by_gain(self, runner):
        report = advise(get("rodinia/kmeans"), runner)
        gains = [r.estimated_gain for r in report.recommendations]
        assert gains == sorted(gains, reverse=True)

    def test_kmeans_flags_copy_removal(self, runner):
        report = advise(get("rodinia/kmeans"), runner)
        kinds = {r.optimization for r in report.recommendations}
        assert Optimization.REMOVE_COPIES in kinds
        copy_rec = next(
            r
            for r in report.recommendations
            if r.optimization is Optimization.REMOVE_COPIES
        )
        assert copy_rec.estimated_gain > 0.2

    def test_misaligned_benchmark_flags_alignment(self, runner):
        # hotspot is misaligned *and* memory-bound enough for the fix to
        # show up in run time (sgemm is misaligned but compute-bound, so
        # its alignment gain falls below the reporting threshold).
        report = advise(get("rodinia/hotspot"), runner)
        kinds = {r.optimization for r in report.recommendations}
        assert Optimization.ALIGNED_ALLOCATION in kinds

    def test_aligned_benchmark_does_not_flag_alignment(self, runner):
        report = advise(get("rodinia/kmeans"), runner)
        kinds = {r.optimization for r in report.recommendations}
        assert Optimization.ALIGNED_ALLOCATION not in kinds

    def test_fault_heavy_benchmark_flags_faults(self, runner):
        report = advise(get("rodinia/srad"), runner)
        kinds = {r.optimization for r in report.recommendations}
        assert Optimization.FAULT_HANDLING in kinds
        fault_rec = next(
            r
            for r in report.recommendations
            if r.optimization is Optimization.FAULT_HANDLING
        )
        assert fault_rec.estimated_gain > 0.2

    def test_contended_benchmark_flags_caching(self, runner):
        report = advise(get("lonestar/bfs"), runner)
        kinds = {r.optimization for r in report.recommendations}
        assert Optimization.COORDINATED_CACHING in kinds

    def test_top_is_first(self, runner):
        report = advise(get("rodinia/kmeans"), runner)
        assert report.top is report.recommendations[0]

    def test_render_contains_all_recommendations(self, runner):
        report = advise(get("rodinia/kmeans"), runner)
        text = report.render()
        assert "rodinia/kmeans" in text
        for rec in report.recommendations:
            assert rec.optimization.value in text


class TestRecommendation:
    def test_gain_bounds_validated(self):
        with pytest.raises(ValueError):
            Recommendation(Optimization.OVERLAP, 1.5, "x")
        Recommendation(Optimization.OVERLAP, -0.5, "regression")  # allowed
        Recommendation(Optimization.OVERLAP, -4.0, "deep regression")  # allowed
