"""Tests for repro.config.system."""

from dataclasses import replace

import pytest

from repro.config.components import PcieConfig
from repro.config.system import (
    TABLE_I,
    PageFaultConfig,
    SystemConfig,
    SystemKind,
    discrete_gpu_system,
    heterogeneous_processor,
    table_i,
)


class TestFactories:
    def test_discrete_has_pcie_and_split_memories(self):
        system = discrete_gpu_system()
        assert system.kind is SystemKind.DISCRETE
        assert system.pcie is not None
        assert system.cpu_memory.name != system.gpu_memory.name
        assert not system.shared_memory

    def test_heterogeneous_shares_gddr5_without_pcie(self):
        system = heterogeneous_processor()
        assert system.kind is SystemKind.HETEROGENEOUS
        assert system.pcie is None
        assert system.cpu_memory.name == system.gpu_memory.name == "GDDR5"
        assert system.shared_memory

    def test_page_faults_only_on_heterogeneous(self):
        assert not discrete_gpu_system().page_faults.enabled
        assert heterogeneous_processor().page_faults.enabled

    def test_same_cores_in_both_systems(self):
        discrete = discrete_gpu_system()
        hetero = heterogeneous_processor()
        assert discrete.cpu == hetero.cpu
        assert discrete.gpu == hetero.gpu

    def test_interconnect_port_counts(self):
        assert discrete_gpu_system().interconnect.ports == 6
        assert heterogeneous_processor().interconnect.ports == 12


class TestValidation:
    def test_discrete_requires_pcie(self):
        base = discrete_gpu_system()
        with pytest.raises(ValueError, match="PCIe"):
            SystemConfig(
                kind=SystemKind.DISCRETE,
                cpu=base.cpu,
                gpu=base.gpu,
                cpu_memory=base.cpu_memory,
                gpu_memory=base.gpu_memory,
                pcie=None,
                interconnect=base.interconnect,
                page_faults=base.page_faults,
            )

    def test_heterogeneous_forbids_pcie(self):
        base = heterogeneous_processor()
        with pytest.raises(ValueError, match="PCIe"):
            SystemConfig(
                kind=SystemKind.HETEROGENEOUS,
                cpu=base.cpu,
                gpu=base.gpu,
                cpu_memory=base.cpu_memory,
                gpu_memory=base.gpu_memory,
                pcie=PcieConfig(),
                interconnect=base.interconnect,
                page_faults=base.page_faults,
            )

    @pytest.mark.parametrize("factory", [discrete_gpu_system, heterogeneous_processor])
    @pytest.mark.parametrize(
        "field", ["kernel_launch_latency_s", "device_launch_latency_s"]
    )
    @pytest.mark.parametrize("value", [-50e-6, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_launch_latency(self, factory, field, value):
        with pytest.raises(ValueError, match=field):
            replace(factory(), **{field: value})

    def test_dynamic_parallelism_sweep_rejects_negative_latency(self):
        from repro.experiments.ablations import dynamic_parallelism_sweep

        with pytest.raises(ValueError, match="device_launch_latency_s"):
            dynamic_parallelism_sweep(latencies_us=(-50.0,))


class TestScaling:
    def test_scaled_shrinks_caches_proportionally(self):
        system = discrete_gpu_system().scaled(1 / 16)
        assert system.gpu.l2.capacity_bytes == discrete_gpu_system().gpu.l2.capacity_bytes // 16
        assert system.cpu.l2.capacity_bytes == discrete_gpu_system().cpu.l2.capacity_bytes // 16

    def test_scaled_preserves_bandwidth_and_flops(self):
        base = discrete_gpu_system()
        scaled = base.scaled(1 / 8)
        assert scaled.gpu_memory.peak_bandwidth == base.gpu_memory.peak_bandwidth
        assert scaled.gpu.peak_flops == base.gpu.peak_flops

    def test_scaled_shrinks_launch_latencies(self):
        base = discrete_gpu_system()
        scaled = base.scaled(1 / 4)
        assert scaled.kernel_launch_latency_s == pytest.approx(
            base.kernel_launch_latency_s / 4
        )
        assert scaled.pcie.copy_launch_latency_s == pytest.approx(
            base.pcie.copy_launch_latency_s / 4
        )

    def test_scaled_preserves_fault_and_miss_latencies(self):
        base = heterogeneous_processor()
        scaled = base.scaled(1 / 4)
        assert scaled.page_faults.service_latency_s == base.page_faults.service_latency_s
        assert scaled.cpu.miss_latency_s == base.cpu.miss_latency_s

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            discrete_gpu_system().scaled(-1.0)


class TestTableI:
    def test_table_i_mentions_key_parameters(self):
        text = " ".join(TABLE_I.values())
        for fragment in ("3.5GHz", "700MHz", "24 GB/s", "179 GB/s", "8 GB/s", "128B"):
            assert fragment in text

    def test_table_i_is_reproducible(self):
        assert table_i() == TABLE_I


class TestPageFaultConfig:
    def test_defaults(self):
        config = PageFaultConfig()
        assert config.page_bytes == 4096
        assert config.hidden_parallelism > 1.0
        assert config.serialization_penalty >= 1.0
