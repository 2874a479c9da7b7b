"""Tests for repro.sim.engine (the discrete-event scheduler)."""

import dataclasses

import numpy as np
import pytest

from repro.pipeline.transforms import (
    parallel_producer_consumer,
    remove_copies,
)
from repro.sim.engine import Engine, SimOptions, simulate
from repro.sim.hierarchy import Component, OffChipLog
from repro.sim.memo import StageMemo
from repro.sim.resultcache import ResultCache
from repro.sim.results import SimResult
from repro.sim.serialize import results_identical
from repro.trace.stream import BLOCK_DTYPE
from repro.workloads.registry import get

from tests.conftest import TINY_SCALE, build_offload_pipeline


class TestBulkSynchronousExecution:
    def test_stages_serialize(self, offload_pipeline, discrete, tiny_options):
        result = simulate(offload_pipeline, discrete, tiny_options)
        records = sorted(result.stages, key=lambda r: r.start_s)
        for earlier, later in zip(records, records[1:]):
            # Bulk-synchronous chain: each stage starts no earlier than the
            # previous one ends (modulo launch slivers).
            assert later.start_s >= earlier.end_s - 1e-12

    def test_roi_is_last_stage_end(self, offload_pipeline, discrete, tiny_options):
        result = simulate(offload_pipeline, discrete, tiny_options)
        assert result.roi_s == pytest.approx(max(r.end_s for r in result.stages))

    def test_components_assigned_correctly(self, offload_pipeline, discrete, tiny_options):
        result = simulate(offload_pipeline, discrete, tiny_options)
        for record in result.stages:
            if record.name.startswith(("h2d", "d2h")):
                assert record.component is Component.COPY
            elif record.name.startswith("map"):
                assert record.component is Component.GPU
            elif record.name.startswith("reduce"):
                assert record.component is Component.CPU

    def test_launch_slivers_recorded(self, offload_pipeline, discrete, tiny_options):
        result = simulate(offload_pipeline, discrete, tiny_options)
        gpu_and_copy = [
            r for r in result.stages if r.component is not Component.CPU
        ]
        assert len(result.launch_intervals) == len(gpu_and_copy)

    def test_cserial_positive_for_serialized_pipeline(
        self, offload_pipeline, discrete, tiny_options
    ):
        result = simulate(offload_pipeline, discrete, tiny_options)
        assert result.serial_launch_time() > 0


class TestChunkedOverlap:
    def test_chunking_overlaps_components(self, offload_pipeline, heterogeneous, tiny_options):
        limited = remove_copies(offload_pipeline)
        serial = simulate(limited, heterogeneous, tiny_options)
        chunked = simulate(
            parallel_producer_consumer(limited, 8), heterogeneous, tiny_options
        )
        assert chunked.overlapped_time() > serial.overlapped_time()
        assert chunked.roi_s < serial.roi_s

    def test_single_server_per_component(self, offload_pipeline, discrete, tiny_options):
        from repro.pipeline.transforms import fission_async_streams

        chunked = fission_async_streams(offload_pipeline, 4)
        result = simulate(chunked, discrete, tiny_options)
        for component in (Component.GPU, Component.COPY):
            records = [r for r in result.stages if r.component is component]
            records.sort(key=lambda r: r.start_s)
            for earlier, later in zip(records, records[1:]):
                assert later.start_s >= earlier.end_s - 1e-12


class TestMemoryAccounting:
    def test_log_length_matches_offchip_counts(
        self, offload_pipeline, discrete, tiny_options
    ):
        result = simulate(offload_pipeline, discrete, tiny_options)
        # The log also holds end-of-ROI drain writebacks, so it is at least
        # the per-stage off-chip sum.
        stage_sum = sum(r.offchip_accesses for r in result.stages)
        assert result.offchip_accesses() >= stage_sum

    def test_footprint_tracks_all_components(
        self, offload_pipeline, discrete, tiny_options
    ):
        result = simulate(offload_pipeline, discrete, tiny_options)
        assert len(result.touched_blocks[Component.GPU]) > 0
        assert len(result.touched_blocks[Component.COPY]) > 0
        assert len(result.touched_blocks[Component.CPU]) > 0

    def test_flops_accounted_by_component(self, offload_pipeline, discrete, tiny_options):
        result = simulate(offload_pipeline, discrete, tiny_options)
        assert result.flops_by_component[Component.GPU] == pytest.approx(
            2 * 5e7 * TINY_SCALE
        )
        assert result.total_flops == pytest.approx(
            (2 * 5e7 + 2 * 1e6) * TINY_SCALE
        )

    def test_collect_log_false_drops_log(
        self, offload_pipeline, discrete, monkeypatch
    ):
        """Without the log the run never builds it (nothing of it stays
        alive behind an empty view), and every other field is unchanged."""
        full = simulate(
            offload_pipeline, discrete, SimOptions(scale=TINY_SCALE)
        )

        def no_arrays(self):
            raise AssertionError("collect_log=False built the off-chip log")

        monkeypatch.setattr(OffChipLog, "arrays", no_arrays)
        options = SimOptions(scale=TINY_SCALE, collect_log=False)
        result = simulate(offload_pipeline, discrete, options)
        assert result.offchip_accesses() == 0
        assert result.roi_s > 0
        log_fields = ("log_blocks", "log_is_write", "log_stage", "log_component")
        for name in log_fields:
            column = getattr(result, name)
            assert len(column) == 0
            assert column.dtype == getattr(full, name).dtype
            assert column.base is None
        for field in dataclasses.fields(SimResult):
            if field.name not in log_fields:
                np.testing.assert_equal(
                    getattr(result, field.name), getattr(full, field.name)
                )


class TestDeterminism:
    def test_repeated_runs_identical(self, offload_pipeline, discrete, tiny_options):
        r1 = simulate(offload_pipeline, discrete, tiny_options)
        r2 = simulate(offload_pipeline, discrete, tiny_options)
        assert r1.roi_s == r2.roi_s
        assert np.array_equal(r1.log_blocks, r2.log_blocks)

    def test_different_seed_changes_random_traces(self, discrete):
        from repro.pipeline.builder import PipelineBuilder
        from repro.pipeline.patterns import AccessPattern
        from repro.pipeline.stage import BufferAccess
        from repro.units import MB

        b = PipelineBuilder("t")
        b.buffer("a", 8 * MB)
        b.copy_h2d("a")
        b.gpu_kernel(
            "k",
            flops=1e6,
            reads=[BufferAccess("a_dev", AccessPattern.RANDOM, passes=2.0)],
        )
        pipeline = b.build()
        r1 = simulate(pipeline, discrete, SimOptions(scale=TINY_SCALE, seed=1))
        r2 = simulate(pipeline, discrete, SimOptions(scale=TINY_SCALE, seed=2))
        assert not np.array_equal(r1.log_blocks, r2.log_blocks)


class TestHeterogeneousExecution:
    def test_no_copy_component_after_port(
        self, offload_pipeline, heterogeneous, tiny_options
    ):
        limited = remove_copies(offload_pipeline)
        result = simulate(limited, heterogeneous, tiny_options)
        assert result.busy_time(Component.COPY) == 0.0

    def test_page_faults_on_gpu_written_buffers(
        self, offload_pipeline, heterogeneous, tiny_options
    ):
        limited = remove_copies(offload_pipeline)
        result = simulate(limited, heterogeneous, tiny_options)
        # 'result' buffer is first written by the GPU: faults expected.
        faults = sum(r.faults for r in result.stages)
        assert faults > 0

    def test_onchip_transfers_happen_when_chunked(
        self, offload_pipeline, heterogeneous, tiny_options
    ):
        limited = remove_copies(offload_pipeline)
        chunked = parallel_producer_consumer(limited, 16)
        result = simulate(chunked, heterogeneous, tiny_options)
        transfers = sum(r.onchip_transfers for r in result.stages)
        assert transfers > 0


class TestScaling:
    def test_scale_preserves_runtime_ratios(self, offload_pipeline, discrete):
        ratios = []
        for scale in (1 / 64, 1 / 128):
            rc = simulate(offload_pipeline, discrete, SimOptions(scale=scale))
            from repro.config.system import heterogeneous_processor

            rl = simulate(
                remove_copies(offload_pipeline),
                heterogeneous_processor(),
                SimOptions(scale=scale),
            )
            ratios.append(rl.roi_s / rc.roi_s)
        assert ratios[0] == pytest.approx(ratios[1], rel=0.15)


class _RecordingMemo(StageMemo):
    """A stage memo that keeps every entry it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.stored = []

    def store(self, key, entry) -> None:
        self.stored.append(entry)
        super().store(key, entry)


@pytest.mark.parametrize("limited", [False, True], ids=["copy", "limited-copy"])
def test_graph_run_holds_block_ids_at_block_dtype(
    limited, discrete, heterogeneous, tmp_path
):
    """Streams, stage-memo log parts and the result's id columns of a fast
    run, and the same result loaded back from the result cache."""
    pipeline, system = get("lonestar/bfs").pipeline(), discrete
    if limited:
        pipeline, system = remove_copies(pipeline), heterogeneous
    memo = _RecordingMemo()
    options = SimOptions(scale=TINY_SCALE, seed=2)
    engine = Engine(pipeline, system, options, stage_memo=memo)
    result = engine.run()
    block = np.dtype(BLOCK_DTYPE)

    for stage in engine.pipeline.stages:
        assert engine.tracegen.stage_trace(stage).stream.blocks.dtype == block
    parts = [blocks for entry in memo.stored for blocks, _, _ in entry.log_parts]
    assert parts and {blocks.dtype for blocks in parts} == {block}
    assert len(result.log_blocks) and result.log_blocks.dtype == block
    assert {ids.dtype for ids in result.touched_blocks.values()} == {block}

    key = "ab" + "0" * 62
    cache = ResultCache(tmp_path)
    cache.store(key, result)
    loaded = cache.load(key).result
    assert results_identical(loaded, result)
    assert loaded.log_blocks.dtype == block
    assert {ids.dtype for ids in loaded.touched_blocks.values()} == {block}
