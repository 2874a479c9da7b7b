"""FLOP opportunity cost and core-utilization metrics (Section II).

The paper defines FLOP opportunity cost as "the portion of compute FLOPs
that go unused due to a core being inactive": integrating each component's
peak FLOP rate over its idle time, as a fraction of the FLOPs the whole
chip could have delivered over the ROI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.system import SystemConfig
from repro.sim.hierarchy import Component
from repro.sim.results import SimResult


@dataclass(frozen=True)
class OpportunityReport:
    """Core-utilization summary for one run."""

    roi_s: float
    cpu_busy_s: float
    gpu_busy_s: float
    cpu_peak_flops: float
    gpu_peak_flops: float
    cpu_flops_done: float
    gpu_flops_done: float

    @property
    def cpu_utilization(self) -> float:
        return self.cpu_busy_s / self.roi_s if self.roi_s else 0.0

    @property
    def gpu_utilization(self) -> float:
        return self.gpu_busy_s / self.roi_s if self.roi_s else 0.0

    @property
    def available_flops(self) -> float:
        """FLOPs the chip could deliver over the ROI at peak."""
        return self.roi_s * (self.cpu_peak_flops + self.gpu_peak_flops)

    @property
    def unused_flops(self) -> float:
        """FLOPs forgone while cores sat idle."""
        cpu_idle = max(0.0, self.roi_s - self.cpu_busy_s)
        gpu_idle = max(0.0, self.roi_s - self.gpu_busy_s)
        return cpu_idle * self.cpu_peak_flops + gpu_idle * self.gpu_peak_flops

    @property
    def flop_opportunity_cost(self) -> float:
        """Fraction of available FLOPs lost to idle cores."""
        available = self.available_flops
        return self.unused_flops / available if available else 0.0

    @property
    def gpu_compute_share(self) -> float:
        """Fraction of executed FLOPs the GPU performed (kmeans: 95%)."""
        done = self.cpu_flops_done + self.gpu_flops_done
        return self.gpu_flops_done / done if done else 0.0


def opportunity_report(result: SimResult, system: SystemConfig) -> OpportunityReport:
    flops = result.flops_by_component
    return OpportunityReport(
        roi_s=result.roi_s,
        cpu_busy_s=result.busy_time(Component.CPU),
        gpu_busy_s=result.busy_time(Component.GPU),
        cpu_peak_flops=system.cpu.peak_flops,
        gpu_peak_flops=system.gpu.peak_flops,
        cpu_flops_done=flops.get(Component.CPU, 0.0),
        gpu_flops_done=flops.get(Component.GPU, 0.0),
    )
