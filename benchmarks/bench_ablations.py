"""Ablation benches over the model's design choices (see DESIGN.md)."""

import pytest

from repro.experiments import ablations


class TestCacheSizeAblation:
    @pytest.fixture(scope="class")
    def rows(self, bench_options):
        return ablations.cache_size_sweep(options=bench_options)

    def test_bench(self, rows, save_result):
        save_result(
            "ablation_cache_size",
            "\n".join(
                f"L2x{r.gpu_l2_scale:g}: contention={r.contention_fraction:.3f} "
                f"spills={r.spill_fraction:.3f} offchip={r.offchip_accesses}"
                for r in rows
            ),
        )

    def test_bigger_cache_reduces_offchip_traffic(self, rows):
        assert rows[-1].offchip_accesses < rows[0].offchip_accesses

    def test_contention_falls_with_capacity(self, rows):
        assert rows[-1].contention_fraction <= rows[0].contention_fraction


class TestPageFaultAblation:
    @pytest.fixture(scope="class")
    def rows(self, bench_options):
        return ablations.pagefault_sweep(options=bench_options)

    def test_bench(self, rows, save_result):
        save_result(
            "ablation_pagefault",
            "\n".join(
                f"{r.service_latency_us:g}us: runtime={r.runtime_s:.6f}s "
                f"slowdown={r.slowdown_vs_no_faults:.2f}x"
                for r in rows
            ),
        )

    def test_slowdown_monotonic_in_latency(self, rows):
        slowdowns = [r.slowdown_vs_no_faults for r in rows]
        assert slowdowns == sorted(slowdowns)

    def test_srad_regime_matches_paper(self, rows):
        # At the default 5us service latency srad sits in the multi-x
        # slowdown regime the paper reports (7x GPU slowdown).
        at_default = [r for r in rows if r.service_latency_us == 5.0][0]
        assert at_default.slowdown_vs_no_faults > 3.0


class TestAlignmentAblation:
    def test_bench(self, bench_options, save_result):
        row = ablations.alignment_ablation(options=bench_options)
        assert row.inflation > 0.03
        save_result(
            "ablation_alignment",
            f"{row.benchmark}: aligned={row.aligned_gpu_accesses} "
            f"misaligned={row.misaligned_gpu_accesses} "
            f"inflation={row.inflation:.1%}",
        )


class TestDynamicParallelismAblation:
    @pytest.fixture(scope="class")
    def rows(self, bench_options):
        return ablations.dynamic_parallelism_sweep(options=bench_options)

    def test_bench(self, rows, save_result):
        save_result(
            "ablation_dynamic_parallelism",
            "\n".join(
                f"{r.device_launch_latency_us:g}us: host={r.host_loop_runtime_s:.6f}s "
                f"dynpar={r.dynpar_runtime_s:.6f}s speedup={r.speedup:.2f}x"
                for r in rows
            ),
        )

    def test_speedup_falls_with_launch_latency(self, rows):
        speedups = [r.speedup for r in rows]
        assert speedups == sorted(speedups, reverse=True)

    def test_overheads_eventually_outweigh_benefits(self, rows):
        # Paper (citing Wang & Yalamanchili): kernel launch overheads can
        # outweigh the performance benefits of dynamic parallelism.
        assert rows[0].speedup > 1.0
        assert rows[-1].speedup < 1.0


class TestPcieAblation:
    @pytest.fixture(scope="class")
    def rows(self, bench_options):
        return ablations.pcie_sweep(options=bench_options)

    def test_bench(self, rows, save_result):
        save_result(
            "ablation_pcie",
            "\n".join(
                f"{r.pcie_gbps:g}GB/s: runtime={r.runtime_s:.6f}s "
                f"copy_share={r.copy_share:.2f}"
                for r in rows
            ),
        )

    def test_runtime_falls_with_bandwidth(self, rows):
        runtimes = [r.runtime_s for r in rows]
        assert runtimes == sorted(runtimes, reverse=True)

    def test_copy_share_collapses(self, rows):
        # The Section II asymmetry argument: at 8 GB/s copies dominate; at
        # high bandwidth they become a small share.
        at_8 = [r for r in rows if r.pcie_gbps == 8.0][0]
        assert at_8.copy_share > 0.4
        assert rows[-1].copy_share < 0.2
