"""Ablation studies over the design choices DESIGN.md calls out.

These go beyond the paper's figures: they vary one model parameter at a
time to show which mechanism produces each effect.

* :func:`cache_size_sweep` — contention classes vs shared-cache capacity
  (the Fig. 9 mechanism).
* :func:`pagefault_sweep` — limited-copy slowdown vs fault service latency
  (the srad/heartwall mechanism).
* :func:`alignment_ablation` — limited-copy GPU accesses with and without
  the misalignment model (the Fig. 5 ``*`` mechanism).
* :func:`pcie_sweep` — baseline copy share vs PCIe bandwidth (the Section
  II bandwidth-asymmetry argument).
* :func:`dynamic_parallelism_sweep` — host-checked loop vs device-side
  launches across device launch latencies (the Section VI caveat that
  launch overheads can outweigh benefits).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.config.components import PcieConfig
from repro.config.system import (
    PageFaultConfig,
    discrete_gpu_system,
    heterogeneous_processor,
)
from repro.core.classify import classify_result
from repro.experiments.report import format_table
from repro.experiments.runner import DEFAULT_BENCH_SCALE
from repro.pipeline.transforms import remove_copies
from repro.sim.engine import SimOptions, simulate
from repro.sim.hierarchy import Component
from repro.units import GB_PER_S, MICROSECONDS
from repro.workloads.registry import get


@dataclass(frozen=True)
class CacheSweepRow:
    gpu_l2_scale: float
    contention_fraction: float
    spill_fraction: float
    offchip_accesses: int


def cache_size_sweep(
    benchmark: str = "rodinia/kmeans",
    l2_scales: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
    options: Optional[SimOptions] = None,
) -> List[CacheSweepRow]:
    """Grow the GPU L2 and watch contention accesses disappear."""
    options = options or SimOptions(scale=DEFAULT_BENCH_SCALE)
    pipeline = remove_copies(get(benchmark).pipeline())
    rows: List[CacheSweepRow] = []
    for factor in l2_scales:
        system = heterogeneous_processor()
        system = replace(
            system, gpu=replace(system.gpu, l2=system.gpu.l2.scaled(factor))
        )
        result = simulate(pipeline, system, options)
        cls = classify_result(result)
        rows.append(
            CacheSweepRow(
                gpu_l2_scale=factor,
                contention_fraction=cls.contention_fraction,
                spill_fraction=cls.spill_fraction,
                offchip_accesses=result.offchip_accesses(),
            )
        )
    return rows


@dataclass(frozen=True)
class PageFaultRow:
    service_latency_us: float
    runtime_s: float
    slowdown_vs_no_faults: float


def pagefault_sweep(
    benchmark: str = "rodinia/srad",
    latencies_us: Sequence[float] = (0.0, 1.0, 2.5, 5.0, 10.0),
    options: Optional[SimOptions] = None,
) -> List[PageFaultRow]:
    """Vary the CPU fault-service latency for a fault-heavy benchmark."""
    options = options or SimOptions(scale=DEFAULT_BENCH_SCALE)
    pipeline = remove_copies(get(benchmark).pipeline())
    baseline: Optional[float] = None
    rows: List[PageFaultRow] = []
    for latency in latencies_us:
        config = PageFaultConfig(
            enabled=latency > 0.0,
            service_latency_s=max(latency, 0.001) * MICROSECONDS,
        )
        system = heterogeneous_processor(page_faults=config)
        result = simulate(pipeline, system, options)
        if baseline is None:
            baseline = result.roi_s
        rows.append(
            PageFaultRow(
                service_latency_us=latency,
                runtime_s=result.roi_s,
                slowdown_vs_no_faults=result.roi_s / baseline,
            )
        )
    return rows


@dataclass(frozen=True)
class AlignmentRow:
    benchmark: str
    aligned_gpu_accesses: int
    misaligned_gpu_accesses: int

    @property
    def inflation(self) -> float:
        if not self.aligned_gpu_accesses:
            return 0.0
        return self.misaligned_gpu_accesses / self.aligned_gpu_accesses - 1.0


def alignment_ablation(
    benchmark: str = "parboil/sgemm",
    options: Optional[SimOptions] = None,
) -> AlignmentRow:
    """Compare limited-copy GPU accesses with aligned vs unaligned buffers."""
    options = options or SimOptions(scale=DEFAULT_BENCH_SCALE)
    pipeline = remove_copies(get(benchmark).pipeline())
    system = heterogeneous_processor()

    misaligned = simulate(pipeline, system, options)

    aligned_buffers = {
        name: replace(buf, cpu_line_aligned=True)
        for name, buf in pipeline.buffers.items()
    }
    aligned_pipeline = pipeline.with_stages(pipeline.stages, buffers=aligned_buffers)
    aligned = simulate(aligned_pipeline, system, options)

    return AlignmentRow(
        benchmark=benchmark,
        aligned_gpu_accesses=aligned.offchip_by_component()[Component.GPU],
        misaligned_gpu_accesses=misaligned.offchip_by_component()[Component.GPU],
    )


@dataclass(frozen=True)
class PcieRow:
    pcie_gbps: float
    runtime_s: float
    copy_share: float


def pcie_sweep(
    benchmark: str = "rodinia/kmeans",
    bandwidths_gbps: Sequence[float] = (4.0, 8.0, 16.0, 32.0, 64.0),
    options: Optional[SimOptions] = None,
) -> List[PcieRow]:
    """Vary PCIe bandwidth and watch the baseline copy share collapse."""
    options = options or SimOptions(scale=DEFAULT_BENCH_SCALE)
    pipeline = get(benchmark).pipeline()
    rows: List[PcieRow] = []
    for gbps in bandwidths_gbps:
        system = discrete_gpu_system(
            pcie=PcieConfig(peak_bandwidth=gbps * GB_PER_S)
        )
        result = simulate(pipeline, system, options)
        rows.append(
            PcieRow(
                pcie_gbps=gbps,
                runtime_s=result.roi_s,
                copy_share=result.busy_time(Component.COPY) / result.roi_s,
            )
        )
    return rows


@dataclass(frozen=True)
class DynParRow:
    device_launch_latency_us: float
    host_loop_runtime_s: float
    dynpar_runtime_s: float

    @property
    def speedup(self) -> float:
        return (
            self.host_loop_runtime_s / self.dynpar_runtime_s
            if self.dynpar_runtime_s
            else 0.0
        )


def dynamic_parallelism_sweep(
    benchmark: str = "lonestar/bfs",
    latencies_us: Sequence[float] = (1.0, 5.0, 20.0, 80.0, 320.0),
    options: Optional[SimOptions] = None,
) -> List[DynParRow]:
    """Host-checked loop vs device-side launches, across launch latencies.

    At low latency dynamic parallelism wins (no flag copy, no CPU check);
    past the crossover the device launch overhead dominates — the Wang &
    Yalamanchili result the paper cites.
    """
    from repro.pipeline.dynpar import dynamic_parallelism

    options = options or SimOptions(scale=DEFAULT_BENCH_SCALE)
    limited = remove_copies(get(benchmark).pipeline())
    transformed = dynamic_parallelism(limited)
    rows: List[DynParRow] = []
    for latency in latencies_us:
        system = replace(
            heterogeneous_processor(),
            device_launch_latency_s=latency * MICROSECONDS,
        )
        host = simulate(limited, system, options)
        device = simulate(transformed, system, options)
        rows.append(
            DynParRow(
                device_launch_latency_us=latency,
                host_loop_runtime_s=host.roi_s,
                dynpar_runtime_s=device.roi_s,
            )
        )
    return rows


def render(options: Optional[SimOptions] = None) -> str:
    cache_rows = cache_size_sweep(options=options)
    cache_table = format_table(
        ("GPU L2 scale", "Contention", "Spills", "Off-chip accesses"),
        [
            (r.gpu_l2_scale, r.contention_fraction, r.spill_fraction, r.offchip_accesses)
            for r in cache_rows
        ],
        title="Ablation: contention vs GPU L2 capacity (kmeans, limited-copy)",
    )
    fault_rows = pagefault_sweep(options=options)
    fault_table = format_table(
        ("Service latency (us)", "Runtime (s)", "Slowdown"),
        [
            (r.service_latency_us, f"{r.runtime_s:.6f}", r.slowdown_vs_no_faults)
            for r in fault_rows
        ],
        title="Ablation: srad slowdown vs page-fault service latency",
    )
    align = alignment_ablation(options=options)
    pcie_rows = pcie_sweep(options=options)
    pcie_table = format_table(
        ("PCIe GB/s", "Runtime (s)", "Copy share"),
        [(r.pcie_gbps, f"{r.runtime_s:.6f}", r.copy_share) for r in pcie_rows],
        title="Ablation: kmeans baseline copy share vs PCIe bandwidth",
    )
    dynpar_rows = dynamic_parallelism_sweep(options=options)
    dynpar_table = format_table(
        ("Device launch (us)", "Host loop (s)", "Dynamic par. (s)", "Speedup"),
        [
            (
                r.device_launch_latency_us,
                f"{r.host_loop_runtime_s:.6f}",
                f"{r.dynpar_runtime_s:.6f}",
                f"{r.speedup:.2f}x",
            )
            for r in dynpar_rows
        ],
        title="Ablation: dynamic parallelism vs host-checked loop (bfs)",
    )
    return (
        f"{cache_table}\n\n{fault_table}\n\n"
        f"Ablation: sgemm misalignment inflates limited-copy GPU accesses by "
        f"{align.inflation:.1%}\n\n{pcie_table}\n\n{dynpar_table}"
    )
