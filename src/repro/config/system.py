"""Whole-system configurations for the two machines of Table I.

:func:`discrete_gpu_system` builds the split-memory discrete GPU machine and
:func:`heterogeneous_processor` builds the single-chip cache-coherent
processor.  Both share identical CPU and GPU core complexes; they differ in
memory topology, the presence of a PCIe link, and whether CPU and GPU share
an on-chip coherence domain.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.config.components import (
    DDR3_1600,
    GDDR5,
    CpuConfig,
    GpuConfig,
    InterconnectConfig,
    MemoryConfig,
    PcieConfig,
)
from repro.units import MICROSECONDS


class SystemKind(enum.Enum):
    """The two system organizations the paper compares."""

    DISCRETE = "discrete"
    HETEROGENEOUS = "heterogeneous"


@dataclass(frozen=True)
class PageFaultConfig:
    """CPU-handled GPU page faults (heterogeneous processor only).

    gem5-gpu models GPU faults like IOMMU faults: the GPU interrupts the CPU,
    which maps the page and returns the translation.  Faults are serviced
    serially by the faulting core.
    """

    enabled: bool = True
    page_bytes: int = 4096
    service_latency_s: float = 5 * MICROSECONDS
    # Ordinarily the GPU's other warps make progress while a fault is
    # serviced, so several faults are effectively pipelined.
    hidden_parallelism: float = 8.0
    # Fault-heavy benchmarks (numerous would-be-parallel writes to unmapped
    # memory) instead serialize on the CPU handler; the penalty multiplies
    # the full serial cost (paper: up to 7x slowdown for Rodinia srad).
    serialization_penalty: float = 2.0


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated machine."""

    kind: SystemKind
    cpu: CpuConfig
    gpu: GpuConfig
    cpu_memory: MemoryConfig
    gpu_memory: MemoryConfig
    pcie: Optional[PcieConfig]
    interconnect: InterconnectConfig
    page_faults: PageFaultConfig
    # Per-kernel/copy launch overhead paid on the CPU (drives Cserial).
    kernel_launch_latency_s: float = 8 * MICROSECONDS
    # Per-launch overhead of a device-side (dynamic-parallelism) launch;
    # higher than a host launch, per Wang & Yalamanchili (IISWC 2014).
    device_launch_latency_s: float = 20 * MICROSECONDS

    def __post_init__(self) -> None:
        if self.kind is SystemKind.DISCRETE and self.pcie is None:
            raise ValueError("discrete system requires a PCIe link")
        if self.kind is SystemKind.HETEROGENEOUS and self.pcie is not None:
            raise ValueError("heterogeneous processor has no PCIe link")
        # The engine's scheduler relies on launches never ending before
        # they begin (repro.sim.engine.Engine.run).
        for name in ("kernel_launch_latency_s", "device_launch_latency_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    @property
    def is_heterogeneous(self) -> bool:
        return self.kind is SystemKind.HETEROGENEOUS

    @property
    def shared_memory(self) -> bool:
        """True when CPU and GPU address the same physical memory pool."""
        return self.is_heterogeneous

    def scaled(self, factor: float) -> "SystemConfig":
        """Scale cache capacities and per-launch latencies by ``factor``.

        Memory bandwidths and FLOP rates are left untouched: scaling shrinks
        footprints and caches together so that capacity *ratios* — which
        drive contention and spill behaviour — are preserved.  Launch
        latencies are scaled too because launch *counts* do not shrink with
        the input: keeping them constant would let fixed overheads dominate
        scaled runs and distort the run-time breakdowns.  (Per-fault and
        per-miss latencies are untouched: fault and miss counts already
        scale with the footprint.)
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        cpu = replace(
            self.cpu,
            l1i=self.cpu.l1i.scaled(factor),
            l1d=self.cpu.l1d.scaled(factor),
            l2=self.cpu.l2.scaled(factor),
        )
        gpu = replace(
            self.gpu,
            l1=self.gpu.l1.scaled(factor),
            l2=self.gpu.l2.scaled(factor),
        )
        pcie = self.pcie
        if pcie is not None:
            pcie = replace(
                pcie, copy_launch_latency_s=pcie.copy_launch_latency_s * factor
            )
        return replace(
            self,
            cpu=cpu,
            gpu=gpu,
            pcie=pcie,
            kernel_launch_latency_s=self.kernel_launch_latency_s * factor,
            device_launch_latency_s=self.device_launch_latency_s * factor,
        )


def discrete_gpu_system(
    cpu: Optional[CpuConfig] = None,
    gpu: Optional[GpuConfig] = None,
    pcie: Optional[PcieConfig] = None,
) -> SystemConfig:
    """The discrete GPU system of Table I: split DDR3/GDDR5 memories + PCIe."""
    return SystemConfig(
        kind=SystemKind.DISCRETE,
        cpu=cpu or CpuConfig(),
        gpu=gpu or GpuConfig(),
        cpu_memory=DDR3_1600,
        gpu_memory=GDDR5,
        pcie=pcie or PcieConfig(),
        interconnect=InterconnectConfig(name="6-port switch + dance-hall", ports=6),
        page_faults=PageFaultConfig(enabled=False),
    )


def heterogeneous_processor(
    cpu: Optional[CpuConfig] = None,
    gpu: Optional[GpuConfig] = None,
    page_faults: Optional[PageFaultConfig] = None,
) -> SystemConfig:
    """The heterogeneous CPU-GPU processor of Table I: shared GDDR5, no PCIe."""
    return SystemConfig(
        kind=SystemKind.HETEROGENEOUS,
        cpu=cpu or CpuConfig(),
        gpu=gpu or GpuConfig(),
        cpu_memory=GDDR5,
        gpu_memory=GDDR5,
        pcie=None,
        interconnect=InterconnectConfig(name="12-port switch + dance-hall", ports=12),
        page_faults=page_faults or PageFaultConfig(enabled=True),
    )


def table_i() -> dict:
    """Render Table I ("Heterogeneous system parameters") as structured data."""
    discrete = discrete_gpu_system()
    hetero = heterogeneous_processor()
    return {
        "CPU Cores": (
            f"({discrete.cpu.num_cores}) {discrete.cpu.issue_width}-wide out-of-order, "
            f"x86 cores, {discrete.cpu.clock_hz / 1e9:.1f}GHz"
        ),
        "CPU Caches": (
            f"Per-core {discrete.cpu.l1i.capacity_bytes // 1024}kB L1I + "
            f"{discrete.cpu.l1d.capacity_bytes // 1024}kB L1D and exclusive, private "
            f"{discrete.cpu.l2.capacity_bytes // 1024}kB L2 cache, "
            f"{discrete.cpu.l2.line_bytes}B lines"
        ),
        "GPU Cores": (
            f"({discrete.gpu.num_cores}) {discrete.gpu.max_ctas_per_core} CTAs, "
            f"{discrete.gpu.warps_per_core} warps of {discrete.gpu.threads_per_warp} threads, "
            f"{discrete.gpu.clock_hz / 1e6:.0f}MHz"
        ),
        "GPU Caches": (
            f"{discrete.gpu.l1.capacity_bytes // 1024}kB L1 per-core. GPU-shared, banked, "
            f"non-inclusive L2 cache {discrete.gpu.l2.capacity_bytes // (1024 * 1024)}MB, "
            f"{discrete.gpu.l2.line_bytes}B lines"
        ),
        "Discrete: CPU Memory": (
            f"({discrete.cpu_memory.num_channels}) {discrete.cpu_memory.name} channels, "
            f"{discrete.cpu_memory.peak_bandwidth / 1e9:.0f} GB/s peak"
        ),
        "Discrete: GPU Memory": (
            f"({discrete.gpu_memory.num_channels}) {discrete.gpu_memory.name} channels, "
            f"{discrete.gpu_memory.peak_bandwidth / 1e9:.0f} GB/s peak"
        ),
        "Discrete: PCI Express": (
            f"v{discrete.pcie.generation}, {discrete.pcie.peak_bandwidth / 1e9:.0f} GB/s peak"
        ),
        "Heterogeneous: Memory": (
            f"({hetero.gpu_memory.num_channels}) shared {hetero.gpu_memory.name} channels, "
            f"{hetero.gpu_memory.peak_bandwidth / 1e9:.0f} GB/s peak"
        ),
    }


TABLE_I = table_i()
