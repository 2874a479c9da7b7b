"""End-to-end integration tests: one benchmark per suite, both versions.

These exercise the entire stack — workload construction, porting transform,
trace generation, cache/memory simulation, scheduling, and the analytical
models — and check cross-module consistency invariants.
"""

import numpy as np
import pytest

from repro.core.classify import classify_result
from repro.core.footprint import footprint_breakdown
from repro.core.opportunity import opportunity_report
from repro.core.overlap import ComponentTimes, component_overlap_runtime
from repro.core.migrate import migrated_compute_runtime
from repro.pipeline.transforms import remove_copies
from repro.sim.engine import SimOptions, simulate
from repro.sim.hierarchy import Component
from repro.trace.stream import BLOCK_DTYPE
from repro.workloads.registry import get

from tests.conftest import TINY_SCALE

REPRESENTATIVES = (
    "lonestar/sssp",
    "pannotia/pr",
    "parboil/stencil",
    "rodinia/kmeans",
)


@pytest.fixture(scope="module", params=REPRESENTATIVES)
def pair(request, ):
    from repro.config.system import discrete_gpu_system, heterogeneous_processor

    spec = get(request.param)
    pipeline = spec.pipeline()
    options = SimOptions(scale=TINY_SCALE)
    copy_result = simulate(pipeline, discrete_gpu_system(), options)
    limited_result = simulate(
        remove_copies(pipeline), heterogeneous_processor(), options
    )
    return spec, copy_result, limited_result


class TestCrossModuleConsistency:
    def test_roi_positive_and_finite(self, pair):
        _, copy_result, limited_result = pair
        for result in (copy_result, limited_result):
            assert 0 < result.roi_s < 1.0

    def test_busy_times_bounded_by_roi(self, pair):
        _, copy_result, limited_result = pair
        for result in (copy_result, limited_result):
            for component in Component:
                assert result.busy_time(component) <= result.roi_s * (1 + 1e-9)

    def test_offchip_log_component_counts_consistent(self, pair):
        _, copy_result, _ = pair
        by_component = copy_result.offchip_by_component()
        assert sum(by_component.values()) == copy_result.offchip_accesses()

    def test_limited_copy_has_no_copy_traffic_unless_residual(self, pair):
        spec, _, limited_result = pair
        pipeline = remove_copies(spec.pipeline())
        copy_traffic = limited_result.offchip_by_component()[Component.COPY]
        if pipeline.copy_stages:
            assert copy_traffic > 0
        else:
            assert copy_traffic == 0

    def test_footprint_shrinks_or_holds(self, pair):
        _, copy_result, limited_result = pair
        copy_fp = footprint_breakdown(copy_result).total_bytes
        limited_fp = footprint_breakdown(limited_result).total_bytes
        assert limited_fp <= copy_fp

    def test_classification_partitions_log(self, pair):
        _, copy_result, _ = pair
        classification = classify_result(copy_result)
        assert classification.total == copy_result.offchip_accesses()

    def test_overlap_estimate_bounded(self, pair):
        _, copy_result, _ = pair
        estimate = component_overlap_runtime(ComponentTimes.from_result(copy_result))
        assert estimate.runtime_s <= copy_result.roi_s * 1.0001
        assert estimate.runtime_s >= copy_result.busy_time(Component.GPU) - 1e-12

    def test_migrate_estimate_bounded_by_overlap_sum(self, pair):
        from repro.config.system import discrete_gpu_system

        _, copy_result, _ = pair
        times = ComponentTimes.from_result(copy_result)
        estimate = migrated_compute_runtime(
            times, discrete_gpu_system(), float(copy_result.offchip_bytes())
        )
        assert estimate.runtime_s <= times.cpu_s + times.copy_s + times.gpu_s + 1e-9

    def test_opportunity_report_consistent(self, pair):
        from repro.config.system import discrete_gpu_system

        _, copy_result, _ = pair
        report = opportunity_report(copy_result, discrete_gpu_system())
        assert 0.0 <= report.flop_opportunity_cost <= 1.0
        assert report.gpu_compute_share > 0.5  # GPU does the majority of work

    def test_every_stage_executed_once(self, pair):
        spec, copy_result, _ = pair
        pipeline = spec.pipeline()
        executed = {record.name for record in copy_result.stages}
        assert executed == {stage.name for stage in pipeline.stages}

    def test_stage_ordinals_are_dense(self, pair):
        _, copy_result, _ = pair
        ordinals = sorted(record.ordinal for record in copy_result.stages)
        assert ordinals == list(range(len(copy_result.stages)))

    def test_log_stage_ordinals_valid(self, pair):
        _, copy_result, _ = pair
        if len(copy_result.log_stage):
            assert copy_result.log_stage.max() <= len(copy_result.stages)
            assert copy_result.log_stage.min() >= 0

    def test_touched_blocks_sorted_unique(self, pair):
        _, copy_result, _ = pair
        for blocks in copy_result.touched_blocks.values():
            assert blocks.dtype == BLOCK_DTYPE
            assert np.array_equal(blocks, np.unique(blocks))
