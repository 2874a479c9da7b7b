"""Off-chip memory timing: bandwidth pools shared by active components."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.config.components import MemoryConfig
from repro.config.system import SystemConfig, SystemKind
from repro.sim.hierarchy import Component


@dataclass(frozen=True)
class BandwidthShare:
    """Effective bandwidth available to one component at a point in time."""

    pool: str
    bytes_per_second: float


class MemorySystem:
    """Maps components to memory pools and arbitrates shared bandwidth.

    Discrete system: CPU traffic uses the DDR3 pool, GPU traffic the GDDR5
    pool; the copy engine is bound by the PCIe link (modelled separately)
    but also consumes both pools.  Heterogeneous processor: everything
    shares the single GDDR5 pool.
    """

    def __init__(self, system: SystemConfig):
        self.system = system

    def pool_of(self, component: Component) -> MemoryConfig:
        if self.system.kind is SystemKind.HETEROGENEOUS:
            return self.system.gpu_memory
        if component is Component.CPU:
            return self.system.cpu_memory
        return self.system.gpu_memory

    def _sharers(self, component: Component, active: FrozenSet[Component]) -> int:
        """Number of active components (incl. ``component``) on its pool."""
        pool = self.pool_of(component)
        count = 0
        for other in set(active) | {component}:
            other_pool = self.pool_of(other)
            if other_pool is pool or other_pool.name == pool.name:
                count += 1
        return max(1, count)

    def effective_bandwidth(
        self, component: Component, active: FrozenSet[Component]
    ) -> BandwidthShare:
        """Achievable bandwidth for ``component`` given who else is active.

        Bandwidth is split evenly among concurrently active components on the
        same pool — a deliberately simple arbitration model; the paper notes
        that CPU/GPU contention effects are marginal compared to the
        application-level differences being studied.
        """
        pool = self.pool_of(component)
        share = pool.achievable_bandwidth / self._sharers(component, active)
        return BandwidthShare(pool=pool.name, bytes_per_second=share)
