"""Scaled-simulation helpers.

Paper-scale workloads (6-90 MB footprints) are faithful but slow to
simulate in Python; `SimOptions(scale=...)` shrinks footprints and caches
together so capacity *ratios* — which drive contention, spills, and every
figure — are preserved.  This module helps pick and sanity-check a scale:

* :func:`estimate_accesses` — predicted trace length of a pipeline at a
  given scale (the dominant simulation cost);
* :func:`recommended_scale` — largest power-of-two scale whose predicted
  cost fits a budget;
* :func:`scaling_report` — runs a pipeline at two scales and verifies the
  scale-invariant quantities actually are invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.system import SystemConfig, discrete_gpu_system
from repro.pipeline.graph import Pipeline
from repro.pipeline.patterns import AccessPattern
from repro.sim.engine import SimOptions, simulate

#: Extra accesses per element for stencil's neighbour touches.
_STENCIL_FACTOR = 3.0


def estimate_accesses(pipeline: Pipeline, scale: float = 1.0, line_bytes: int = 128) -> int:
    """Predict the total trace length (accesses) of one simulation run.

    Computed from the access specs without generating anything; accurate to
    within rounding because the generators emit exactly
    ``touched_blocks x passes`` records (x3 for stencil, x1.35 for
    misaligned limited-copy streams — ignored here, it is a bounded
    constant).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    total = 0.0
    for stage in pipeline.stages:
        for access in stage.accesses:
            buf = pipeline.buffers[access.buffer]
            blocks = max(1.0, buf.size_bytes * scale / line_bytes)
            touched = max(1.0, blocks * access.region.span * access.fraction)
            count = touched * access.passes
            if access.pattern is AccessPattern.STENCIL:
                count *= _STENCIL_FACTOR
            total += count
    return int(total)


def recommended_scale(
    pipeline: Pipeline,
    max_accesses: int = 2_000_000,
    min_scale: float = 1 / 1024,
) -> float:
    """Largest power-of-two scale whose predicted trace fits the budget."""
    if max_accesses <= 0:
        raise ValueError("max_accesses must be positive")
    scale = 1.0
    while scale > min_scale and estimate_accesses(pipeline, scale) > max_accesses:
        scale /= 2.0
    return max(scale, min_scale)


@dataclass(frozen=True)
class ScalingReport:
    """Scale-invariance check between two scales of the same pipeline."""

    coarse_scale: float
    fine_scale: float
    runtime_ratio: float      # coarse roi / (fine roi x scale ratio)
    access_ratio: float       # coarse accesses / (fine accesses x scale ratio)
    gpu_utilization_delta: float

    @property
    def runtime_invariant(self) -> bool:
        """Run time should scale linearly with the footprint scale."""
        return abs(self.runtime_ratio - 1.0) < 0.25

    @property
    def access_invariant(self) -> bool:
        return abs(self.access_ratio - 1.0) < 0.25


def scaling_report(
    pipeline: Pipeline,
    coarse_scale: float,
    fine_scale: float,
    system: Optional[SystemConfig] = None,
    seed: int = 0,
) -> ScalingReport:
    """Simulate at two scales and compare the scale-invariant quantities."""
    if not 0 < fine_scale < coarse_scale <= 1.0:
        raise ValueError("need 0 < fine_scale < coarse_scale <= 1")
    system = system or discrete_gpu_system()
    from repro.sim.hierarchy import Component

    coarse = simulate(pipeline, system, SimOptions(scale=coarse_scale, seed=seed))
    fine = simulate(pipeline, system, SimOptions(scale=fine_scale, seed=seed))
    ratio = coarse_scale / fine_scale
    return ScalingReport(
        coarse_scale=coarse_scale,
        fine_scale=fine_scale,
        runtime_ratio=coarse.roi_s / (fine.roi_s * ratio) if fine.roi_s else 0.0,
        access_ratio=(
            coarse.offchip_accesses() / (fine.offchip_accesses() * ratio)
            if fine.offchip_accesses()
            else 0.0
        ),
        gpu_utilization_delta=abs(
            coarse.utilization(Component.GPU) - fine.utilization(Component.GPU)
        ),
    )
