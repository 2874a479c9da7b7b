"""Tests for repro.trace.generator and repro.trace.alignment."""

import numpy as np
import pytest

from repro.pipeline.builder import PipelineBuilder
from repro.pipeline.patterns import AccessPattern
from repro.pipeline.stage import BufferAccess, Region, Stage, StageKind
from repro.pipeline.transforms import remove_copies
from repro.trace.alignment import apply_misalignment
from repro.trace.generator import BufferLayout, TraceGenerator, TraceMemo
from repro.trace.stream import BLOCK_DTYPE, AccessStream
from repro.units import KB
from repro.workloads.registry import get

from tests.conftest import TINY_SCALE


def pipeline_with(stage, buffers):
    b = PipelineBuilder("t")
    for name, size in buffers.items():
        b.buffer(name, size)
    built = b.build()
    return built.with_stages([stage])


def gpu_stage(access, name="k"):
    return Stage(name=name, kind=StageKind.GPU_KERNEL, flops=1.0, reads=(access,))


class TestBufferLayout:
    def test_buffers_page_aligned_and_disjoint(self):
        b = PipelineBuilder("t")
        b.buffer("a", 5000)  # not a page multiple
        b.buffer("b", 4096)
        layout = BufferLayout(b.build())
        assert layout.base_block("a") % layout.blocks_per_page == 0
        assert layout.base_block("b") % layout.blocks_per_page == 0
        a_pages = -(-layout.num_blocks("a") // layout.blocks_per_page)
        assert layout.base_block("b") >= layout.base_block("a") + a_pages * layout.blocks_per_page

    def test_block_range_full_region(self):
        b = PipelineBuilder("t")
        b.buffer("a", 64 * KB)
        layout = BufferLayout(b.build())
        lo, hi = layout.block_range(BufferAccess("a"))
        assert hi - lo == 64 * KB // 128

    def test_block_range_subregion(self):
        b = PipelineBuilder("t")
        b.buffer("a", 64 * KB)
        layout = BufferLayout(b.build())
        lo, hi = layout.block_range(BufferAccess("a", region=Region(0.25, 0.5)))
        assert hi - lo == 128  # quarter of 512 blocks

    def test_tiny_region_gets_at_least_one_block(self):
        b = PipelineBuilder("t")
        b.buffer("a", 4096)
        layout = BufferLayout(b.build())
        lo, hi = layout.block_range(
            BufferAccess("a", region=Region(0.0, 1e-6))
        )
        assert hi == lo + 1

    def test_pages_of(self):
        b = PipelineBuilder("t")
        b.buffer("a", 64 * KB)
        layout = BufferLayout(b.build())
        pages = layout.pages_of(np.array([0, 1, 32, 33], dtype=np.int64))
        assert list(pages) == [0, 1]

    def test_page_size_must_be_line_multiple(self):
        b = PipelineBuilder("t")
        b.buffer("a", 4096)
        with pytest.raises(ValueError):
            BufferLayout(b.build(), line_bytes=128, page_bytes=200)

    def test_layout_of_2_31_blocks_is_refused(self):
        """2**31 blocks, 256 GB of 128-byte lines: buffer metadata only,
        nothing is allocated."""
        b = PipelineBuilder("t")
        b.buffer("a", (1 << 31) * 128)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            BufferLayout(b.build())

    def test_ids_at_the_top_of_the_largest_layout(self):
        """The last page of the largest layout: ids within 64 of 2**31."""
        b = PipelineBuilder("t")
        b.buffer("a", ((1 << 31) - 64) * 128)
        b.buffer("b", 4096)  # laid out after "a": the last 32 blocks
        stage = Stage(
            name="k",
            kind=StageKind.GPU_KERNEL,
            reads=(BufferAccess("b", AccessPattern.RANDOM, passes=4.0),),
            writes=(BufferAccess("b", AccessPattern.STENCIL),),
        )
        pipeline = b.build().with_stages([stage])
        layout = BufferLayout(pipeline)
        assert layout.total_blocks == (1 << 31) - 32
        trace = TraceGenerator(pipeline).stage_trace(stage)
        blocks = trace.stream.blocks
        assert blocks.dtype == trace.unique_ids.dtype == BLOCK_DTYPE
        assert blocks.min() == layout.base_block("b") == (1 << 31) - 64
        assert blocks.max() == (1 << 31) - 33


class TestPatternSynthesis:
    def make_gen(self, access, size=64 * KB):
        stage = gpu_stage(access)
        pipeline = pipeline_with(stage, {"a": size})
        return TraceGenerator(pipeline), stage

    def test_streaming_is_one_sequential_sweep(self):
        gen, stage = self.make_gen(BufferAccess("a"))
        trace = gen.stage_trace(stage)
        blocks = trace.stream.blocks
        assert len(blocks) == 512
        assert list(blocks) == sorted(blocks)
        assert trace.unique_blocks == 512

    def test_passes_repeat_the_sweep(self):
        gen, stage = self.make_gen(BufferAccess("a", passes=2.5))
        trace = gen.stage_trace(stage)
        assert len(trace.stream) == 1280
        assert trace.unique_blocks == 512

    def test_fraction_touches_subset(self):
        gen, stage = self.make_gen(BufferAccess("a", fraction=0.25))
        trace = gen.stage_trace(stage)
        assert trace.unique_blocks == 128

    def test_random_stays_in_region(self):
        gen, stage = self.make_gen(
            BufferAccess("a", AccessPattern.RANDOM, region=Region(0.0, 0.5), passes=4.0)
        )
        trace = gen.stage_trace(stage)
        assert trace.stream.blocks.max() < 256

    def test_graph_pattern_has_hot_blocks(self):
        gen, stage = self.make_gen(
            BufferAccess("a", AccessPattern.GRAPH, passes=16.0), size=512 * KB
        )
        trace = gen.stage_trace(stage)
        _, counts = np.unique(trace.stream.blocks, return_counts=True)
        # Skewed popularity: the hottest block sees far more than the mean.
        assert counts.max() > 4 * counts.mean()

    def test_stencil_triples_accesses(self):
        gen, stage = self.make_gen(BufferAccess("a", AccessPattern.STENCIL))
        trace = gen.stage_trace(stage)
        assert len(trace.stream) == 3 * 512

    def test_broadcast_repeats_small_region(self):
        gen, stage = self.make_gen(
            BufferAccess("a", AccessPattern.BROADCAST, passes=8.0), size=4096
        )
        trace = gen.stage_trace(stage)
        assert trace.unique_blocks == 32
        assert len(trace.stream) == 256

    def test_writes_marked_as_writes(self):
        stage = Stage(
            name="k",
            kind=StageKind.GPU_KERNEL,
            writes=(BufferAccess("a"),),
        )
        pipeline = pipeline_with(stage, {"a": 4096})
        trace = TraceGenerator(pipeline).stage_trace(stage)
        assert trace.stream.num_writes == len(trace.stream)

    def test_reads_and_writes_interleaved(self):
        stage = Stage(
            name="k",
            kind=StageKind.GPU_KERNEL,
            reads=(BufferAccess("a"),),
            writes=(BufferAccess("b"),),
        )
        pipeline = pipeline_with(stage, {"a": 64 * KB, "b": 64 * KB})
        trace = TraceGenerator(pipeline).stage_trace(stage)
        first_write = np.flatnonzero(trace.stream.is_write)[0]
        assert first_write < 10  # writes start near the beginning, not the end


class TestDeterminism:
    def test_same_seed_same_stream(self):
        access = BufferAccess("a", AccessPattern.RANDOM, passes=2.0)
        stage = gpu_stage(access)
        pipeline = pipeline_with(stage, {"a": 64 * KB})
        t1 = TraceGenerator(pipeline, seed=3).stage_trace(stage)
        t2 = TraceGenerator(pipeline, seed=3).stage_trace(stage)
        assert np.array_equal(t1.stream.blocks, t2.stream.blocks)

    def test_different_seed_different_stream(self):
        access = BufferAccess("a", AccessPattern.RANDOM, passes=2.0)
        stage = gpu_stage(access)
        pipeline = pipeline_with(stage, {"a": 64 * KB})
        t1 = TraceGenerator(pipeline, seed=1).stage_trace(stage)
        t2 = TraceGenerator(pipeline, seed=2).stage_trace(stage)
        assert not np.array_equal(t1.stream.blocks, t2.stream.blocks)

    def test_trace_carries_its_stage_key_under_a_memo(self):
        stage = gpu_stage(BufferAccess("a", AccessPattern.RANDOM, passes=2.0))
        pipeline = pipeline_with(stage, {"a": 64 * KB})
        memoized = TraceGenerator(pipeline, seed=3, memo=TraceMemo())
        trace = memoized.stage_trace(stage)
        assert trace.key == memoized.stage_key(stage)
        assert memoized.stage_trace(stage) is trace
        assert TraceGenerator(pipeline, seed=3).stage_trace(stage).key is None


class TestBlockWidth:
    @pytest.mark.parametrize("pattern", list(AccessPattern))
    def test_every_pattern_synthesizes_block_dtype_ids(self, pattern):
        """In the copy form, and misaligned in the limited-copy form."""
        b = PipelineBuilder("t")
        b.buffer("a", 64 * KB, cpu_line_aligned=False)
        b.copy_h2d("a")
        b.gpu_kernel(
            "k", flops=1.0, reads=[BufferAccess("a_dev", pattern, passes=2.0)]
        )
        for pipeline in (b.build(), remove_copies(b.build())):
            trace = TraceGenerator(pipeline).stage_trace(pipeline.stage("k"))
            assert trace.stream.blocks.dtype == BLOCK_DTYPE
            assert trace.unique_ids.dtype == BLOCK_DTYPE


class TestTraceMemoStoresOnlyServableParts:
    """Seeded parts recur only with their own stage, which the stage-level
    entry serves, so the memo stores RNG-free parts alone."""

    @pytest.mark.parametrize("limited", [False, True], ids=["copy", "limited-copy"])
    def test_bfs_stages(self, limited):
        pipeline = get("lonestar/bfs").pipeline().scaled(TINY_SCALE)
        if limited:
            pipeline = remove_copies(pipeline)
        memo = TraceMemo()
        generator = TraceGenerator(pipeline, seed=1, memo=memo)
        first = [generator.stage_trace(stage) for stage in pipeline.stages]

        stage_keys = [key for key in memo if key[0] == "stage"]
        part_keys = [key for key in memo if key[0] != "stage"]
        assert any(part[0] is not None for key in stage_keys for part in key[1:])
        assert part_keys and all(key[0] is None for key in part_keys)

        again = TraceGenerator(pipeline, seed=1, memo=memo)
        for stage, trace in zip(pipeline.stages, first):
            assert again.stage_trace(stage) is trace
        plain = TraceGenerator(pipeline, seed=1)
        for stage, trace in zip(pipeline.stages, first):
            fresh = plain.stage_trace(stage).stream
            assert np.array_equal(fresh.blocks, trace.stream.blocks)
            assert np.array_equal(fresh.is_write, trace.stream.is_write)


class TestMisalignment:
    def test_apply_misalignment_inflates_stream(self):
        rng = np.random.default_rng(0)
        stream = AccessStream.of(list(range(1000)))
        inflated = apply_misalignment(stream, rng, extra_passes=0.5)
        assert len(inflated) == 1500
        # Refetches are reads of the straddled neighbour block.
        assert inflated.num_writes == 0

    def test_zero_extra_passes_is_identity(self):
        rng = np.random.default_rng(0)
        stream = AccessStream.of([1, 2, 3])
        assert apply_misalignment(stream, rng, extra_passes=0.0) is stream

    def test_empty_stream_identity(self):
        rng = np.random.default_rng(0)
        stream = AccessStream.empty()
        assert apply_misalignment(stream, rng) is stream

    def test_only_applies_to_gpu_stages_in_limited_copy(self):
        b = PipelineBuilder("t")
        b.buffer("a", 64 * KB, cpu_line_aligned=False)
        b.copy_h2d("a")
        b.gpu_kernel("k", flops=1.0, reads=["a_dev"])
        pipeline = b.build()

        # Copy version: GPU reads the (aligned) mirror; no inflation.
        gen = TraceGenerator(pipeline)
        copy_len = len(gen.stage_trace(pipeline.stage("k")).stream)

        limited = remove_copies(pipeline)
        gen_lc = TraceGenerator(limited)
        lc_len = len(gen_lc.stage_trace(limited.stage("k")).stream)
        assert lc_len > copy_len

    def test_aligned_buffers_not_inflated_in_limited_copy(self):
        b = PipelineBuilder("t")
        b.buffer("a", 64 * KB, cpu_line_aligned=True)
        b.copy_h2d("a")
        b.gpu_kernel("k", flops=1.0, reads=["a_dev"])
        limited = remove_copies(b.build())
        gen = TraceGenerator(limited)
        assert len(gen.stage_trace(limited.stage("k")).stream) == 512
