"""PCIe copy-engine timing (discrete system) and in-memory copy timing
(residual copies on the heterogeneous processor)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.system import SystemConfig, SystemKind


@dataclass(frozen=True)
class CopyTiming:
    """Time to execute one copy stage."""

    launch_s: float
    transfer_s: float


class CopyEngine:
    """Times copy stages for either system organization.

    Discrete: transfers cross the PCIe link, whose bandwidth (8 GB/s peak) is
    far below either memory's — the asymmetry that drives the paper's
    baseline results.  Heterogeneous: a residual copy is a memory-to-memory
    move within the shared pool, paying a read plus a write of every byte.
    """

    def __init__(self, system: SystemConfig):
        self.system = system

    def copy_time(self, num_bytes: float, bandwidth_share: float = 1.0) -> CopyTiming:
        if num_bytes < 0:
            raise ValueError("copy size must be non-negative")
        if self.system.kind is SystemKind.DISCRETE:
            pcie = self.system.pcie
            assert pcie is not None
            transfer = num_bytes / pcie.achievable_bandwidth
            return CopyTiming(launch_s=pcie.copy_launch_latency_s, transfer_s=transfer)
        pool = self.system.gpu_memory
        bandwidth = pool.achievable_bandwidth * bandwidth_share
        # Read + write of every byte through the same channels.
        transfer = 2.0 * num_bytes / bandwidth
        return CopyTiming(
            launch_s=self.system.kernel_launch_latency_s, transfer_s=transfer
        )
