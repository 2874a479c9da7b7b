"""Tests for repro.sim.hierarchy (domains, coherence, off-chip log)."""

import numpy as np
import pytest

from repro.config.components import CacheConfig
from repro.sim.hierarchy import CacheSystem, Component, Domain, OffChipLog
from repro.trace.stream import AccessStream


def small_config(lines=8, assoc=2):
    return CacheConfig(lines * 128, line_bytes=128, associativity=assoc)


def reads(blocks):
    arr = np.asarray(blocks, dtype=np.int64)
    return AccessStream(arr, np.zeros(len(arr), dtype=bool))


def writes(blocks):
    arr = np.asarray(blocks, dtype=np.int64)
    return AccessStream(arr, np.ones(len(arr), dtype=bool))


def make_system(coherent: bool, l2_lines=64) -> CacheSystem:
    return CacheSystem(
        cpu_l1=small_config(4),
        cpu_l2=small_config(l2_lines, assoc=4),
        gpu_l1=small_config(4),
        gpu_l2=small_config(l2_lines, assoc=4),
        coherent=coherent,
    )


class TestOffChipLog:
    def test_append_and_arrays(self):
        log = OffChipLog()
        log.append(np.array([1, 2]), np.array([False, True]), 0, Component.CPU)
        log.append(np.array([3]), np.array([False]), 1, Component.GPU)
        blocks, is_write, stage, comp = log.arrays()
        assert list(blocks) == [1, 2, 3]
        assert list(is_write) == [False, True, False]
        assert list(stage) == [0, 0, 1]
        assert list(comp) == [0, 0, 1]
        assert (stage.dtype, comp.dtype) == (np.int32, np.int8)
        assert len(log) == 3

    def test_counts_by_component(self):
        log = OffChipLog()
        log.append(np.array([1]), np.array([False]), 0, Component.COPY)
        log.append(np.array([2, 3]), np.array([False, False]), 0, Component.GPU)
        counts = log.counts_by_component()
        assert counts[Component.COPY] == 1
        assert counts[Component.GPU] == 2
        assert counts[Component.CPU] == 0

    def test_dropped_positions_left_out(self):
        log = OffChipLog()
        blocks = np.array([5, 6, 7, 8])
        is_write = np.array([False, False, True, False])
        log.append(blocks, is_write, 0, Component.GPU, dropped=np.array([3, 0]))
        log.append(np.array([9]), np.array([False]), 1, Component.GPU, dropped=np.array([0]))
        assert len(log) == 2
        got_blocks, got_write, stage, comp = log.arrays()
        assert list(got_blocks) == [6, 7]
        assert list(got_write) == [False, True]
        assert list(stage) == [0, 0] and list(comp) == [1, 1]
        ((part_blocks, part_write, code),) = log.parts_since(0)
        assert list(part_blocks) == [6, 7] and list(part_write) == [False, True]
        assert code == 1
        assert list(blocks) == [5, 6, 7, 8], "the appended arrays stay whole"

    def test_empty_append_ignored(self):
        log = OffChipLog()
        log.append(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), 0, Component.CPU)
        assert len(log) == 0

    def test_empty_arrays(self):
        blocks, is_write, stage, comp = OffChipLog().arrays()
        assert len(blocks) == 0
        assert (stage.dtype, comp.dtype) == (np.int32, np.int8)


class TestDomain:
    def test_l1_filters_before_l2(self):
        domain = Domain("cpu", small_config(4), small_config(64, assoc=4))
        log = OffChipLog()
        result = domain.process(reads([0, 0, 0]), log, 0, Component.CPU)
        assert result.requests == 3
        assert result.offchip_reads == 1
        assert domain.l1.stats.hits == 2
        assert domain.l2.stats.accesses == 1  # only the L1 miss reached L2

    def test_offchip_accesses_logged(self):
        domain = Domain("cpu", small_config(4), small_config(8, assoc=4))
        log = OffChipLog()
        domain.process(reads(range(32)), log, stage_ordinal=5, component=Component.CPU)
        blocks, is_write, stage, comp = log.arrays()
        assert len(blocks) >= 32  # all compulsory misses reach memory
        assert (stage == 5).all()

    def test_invalidate_clears_both_levels(self):
        domain = Domain("cpu", small_config(8), small_config(64, assoc=4))
        log = OffChipLog()
        domain.process(writes([1, 2]), log, 0, Component.CPU)
        domain.invalidate(np.array([1, 2]))
        assert 1 not in domain.l1.resident_blocks
        assert 1 not in domain.l2.resident_blocks

    def test_flush_returns_dirty_lines(self):
        domain = Domain("cpu", small_config(8), small_config(64, assoc=4))
        log = OffChipLog()
        domain.process(writes([1, 2]), log, 0, Component.CPU)
        written = domain.flush(np.array([1, 2, 3]))
        assert set(written) == {1, 2}


class TestCoherence:
    def test_peer_hit_becomes_onchip_transfer(self):
        system = make_system(coherent=True)
        # GPU writes blocks 0..3: they stay dirty in the GPU hierarchy.
        system.process_compute(writes([0, 1, 2, 3]), 0, Component.GPU)
        # Drain GPU L1 into L2 so the blocks sit in the probe-able L2.
        for block in list(system.gpu.l1.resident_blocks):
            system.gpu.l1.extract(block)
            system.gpu.l2.access_stream(reads([block]))
        before = len(system.log)
        result = system.process_compute(reads([0, 1, 2, 3]), 1, Component.CPU)
        assert result.onchip_transfers > 0
        # Transfers do not hit memory.
        assert len(system.log) - before == 4 - result.onchip_transfers

    def test_transfer_migrates_line_out_of_peer(self):
        system = make_system(coherent=True)
        system.gpu.l2.access_stream(writes([7]))
        system.process_compute(reads([7]), 0, Component.CPU)
        assert 7 not in system.gpu.l2.resident_blocks
        assert 7 in system.cpu.l2.resident_blocks

    def test_discrete_domains_do_not_probe(self):
        system = make_system(coherent=False)
        system.gpu.l2.access_stream(writes([7]))
        result = system.process_compute(reads([7]), 0, Component.CPU)
        assert result.onchip_transfers == 0
        assert result.offchip_reads == 1

    def test_writebacks_never_probe_peer(self):
        system = make_system(coherent=True, l2_lines=4)
        # Peer holds everything; our writebacks still go to memory.
        system.gpu.l2.access_stream(reads(range(100)))
        system.process_compute(writes(range(100)), 0, Component.CPU)
        comp_counts = system.log.counts_by_component()
        assert comp_counts[Component.CPU] > 0


class TestCopyPath:
    def test_copy_logs_reads_and_writes(self):
        system = make_system(coherent=False)
        src = np.arange(10, dtype=np.int64)
        dst = np.arange(100, 110, dtype=np.int64)
        result = system.process_copy(src, dst, 3)
        assert result.offchip_reads == 10
        assert result.offchip_writes == 10
        counts = system.log.counts_by_component()
        assert counts[Component.COPY] == 20

    def test_copy_flushes_dirty_source_lines(self):
        system = make_system(coherent=False)
        system.process_compute(writes([5]), 0, Component.CPU)
        result = system.process_copy(
            np.array([5], dtype=np.int64), np.array([200], dtype=np.int64), 1
        )
        # The flushed dirty line is an extra off-chip write attributed to
        # the owning core.
        counts = system.log.counts_by_component()
        assert counts[Component.CPU] >= 1
        assert 5 not in system.cpu.l1.resident_blocks

    def test_copy_invalidates_destination_in_caches(self):
        system = make_system(coherent=False)
        system.process_compute(reads([300]), 0, Component.GPU)
        system.process_copy(
            np.array([1], dtype=np.int64), np.array([300], dtype=np.int64), 1
        )
        assert 300 not in system.gpu.l1.resident_blocks
        assert 300 not in system.gpu.l2.resident_blocks

    def test_domain_for_copy_raises(self):
        system = make_system(coherent=False)
        with pytest.raises(ValueError):
            system.domain_for(Component.COPY)
