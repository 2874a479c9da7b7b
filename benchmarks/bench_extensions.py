"""Benches for the forward-looking extensions (Section VI directions).

These go beyond the paper's figures: kernel fusion, GPU-to-CPU kernel
migration, occupancy sensitivity, the row-buffer DRAM refinement, and the
optimization advisor.
"""

import pytest

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments.advisor import Optimization, advise
from repro.pipeline.fusion import fuse_kernels, migrate_kernels_to_cpu
from repro.pipeline.stage import KernelResources
from repro.pipeline.transforms import remove_copies
from repro.sim.engine import SimOptions, simulate
from repro.sim.hierarchy import Component
from repro.workloads.registry import get


class TestKernelFusionBench:
    @pytest.fixture(scope="class")
    def fused_pair(self, bench_options):
        limited = remove_copies(get("rodinia/srad").pipeline())
        system = heterogeneous_processor()
        baseline = simulate(limited, system, bench_options)
        fused_pipeline = fuse_kernels(limited)
        fused = simulate(fused_pipeline, system, bench_options)
        return limited, fused_pipeline, baseline, fused

    def test_bench(self, fused_pair, save_result):
        limited, fused_pipeline, baseline, fused = fused_pair
        save_result(
            "extension_fusion",
            f"srad limited-copy: {len(limited.stages)} stages -> "
            f"{len(fused_pipeline.stages)} after fusion; off-chip accesses "
            f"{baseline.offchip_accesses():,} -> {fused.offchip_accesses():,}",
        )

    def test_fusion_merges_sweep_chain(self, fused_pair):
        limited, fused_pipeline, _, _ = fused_pair
        assert len(fused_pipeline.stages) < len(limited.stages)

    def test_fusion_cuts_offchip_traffic(self, fused_pair):
        _, _, baseline, fused = fused_pair
        assert fused.offchip_accesses() < baseline.offchip_accesses() * 0.6

    def test_fusion_respects_resource_limits(self, bench_options):
        # With heavyweight per-kernel resources, nothing fits fused.
        from repro.pipeline.builder import PipelineBuilder
        from repro.units import MB

        heavy = KernelResources(threads_per_cta=512, registers_per_thread=60)
        b = PipelineBuilder("t")
        b.buffer("x", 4 * MB)
        b.buffer("y", 4 * MB, temporary=True)
        b.buffer("z", 4 * MB)
        b.gpu_kernel("k1", flops=1e6, reads=["x"], writes=["y"], resources=heavy)
        b.gpu_kernel("k2", flops=1e6, reads=["y"], writes=["z"], resources=heavy)
        fused = fuse_kernels(b.build())
        assert len(fused.stages) == 2


class TestCpuMigrationBench:
    def test_bench(self, bench_options, save_result):
        # Barnes-Hut has kernels of widely varying size (tree build vs force
        # calculation) — exactly the Section VI migration candidate shape.
        limited = remove_copies(get("lonestar/bh").pipeline())
        system = heterogeneous_processor()
        baseline = simulate(limited, system, bench_options)
        threshold = max(s.flops for s in limited.stages) * 0.2
        migrated = migrate_kernels_to_cpu(limited, max_flops=threshold)
        migrated_result = simulate(migrated, system, bench_options)
        cpu_flops = migrated_result.flops_by_component[Component.CPU]
        save_result(
            "extension_cpu_migration",
            f"bh limited-copy: CPU now performs {cpu_flops:.3g} FLOPs "
            f"(baseline {baseline.flops_by_component[Component.CPU]:.3g}); "
            f"runtime {baseline.roi_s:.6f}s -> {migrated_result.roi_s:.6f}s",
        )
        assert cpu_flops > baseline.flops_by_component[Component.CPU]


class TestOccupancyBench:
    def test_bench(self, bench_options, save_result):
        from repro.pipeline.builder import PipelineBuilder
        from repro.units import MB

        def build(regs):
            b = PipelineBuilder("t")
            b.buffer("a", 16 * MB)
            b.copy_h2d("a")
            b.gpu_kernel(
                "k", flops=2e9, reads=["a_dev"], efficiency=0.9,
                resources=KernelResources(
                    threads_per_cta=256, registers_per_thread=regs
                ),
            )
            return b.build()

        system = discrete_gpu_system()
        rows = []
        for regs in (16, 24, 40, 64, 120):
            result = simulate(build(regs), system, bench_options)
            rows.append((regs, result.roi_s))
        save_result(
            "extension_occupancy",
            "\n".join(
                f"{regs} regs/thread: runtime={runtime:.6f}s"
                for regs, runtime in rows
            ),
        )
        runtimes = [runtime for _, runtime in rows]
        assert runtimes == sorted(runtimes)  # more registers, less occupancy


class TestRowModelBench:
    def test_bench(self, bench_options, save_result):
        pipeline = get("pannotia/pr").pipeline()
        system = discrete_gpu_system()
        flat = simulate(pipeline, system, bench_options)
        row_options = SimOptions(
            scale=bench_options.scale, dram_row_model=True
        )
        row = simulate(pipeline, system, row_options)
        save_result(
            "extension_dram_row",
            f"pannotia/pr: flat-efficiency runtime {flat.roi_s:.6f}s, "
            f"row-buffer-aware {row.roi_s:.6f}s",
        )
        # Random graph traffic cannot beat the flat 82% assumption.
        assert row.roi_s >= flat.roi_s * 0.95


class TestAdvisorBench:
    def test_bench(self, runner, save_result):
        report = advise(get("rodinia/srad"), runner)
        assert report.top is not None
        assert report.top.optimization is Optimization.FAULT_HANDLING
        save_result("extension_advisor_srad", report.render())

    def test_kmeans_advice_ranks_copies_high(self, runner, save_result):
        report = advise(get("rodinia/kmeans"), runner)
        kinds = [r.optimization for r in report.recommendations[:3]]
        assert Optimization.REMOVE_COPIES in kinds
        save_result("extension_advisor_kmeans", report.render())
