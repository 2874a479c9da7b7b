"""Cache hierarchies, coherence domains, and the off-chip interface log.

Each core complex (CPU, GPU) owns a two-level hierarchy.  In the discrete
system the two domains are fully separate and the copy engine moves data
between them over PCIe.  In the heterogeneous processor the domains are
coherent: a miss in one domain's hierarchy probes the peer's L2 and, on a
hit, migrates the line on chip instead of going to memory — the mechanism
behind the paper's "Parallel + Cache" kmeans organization.

Every access that does reach memory is appended to the
:class:`OffChipLog`, which Figs. 5 and 9 are computed from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config.components import CacheConfig
from repro.sim.cache import SetAssocCache
from repro.sim.fastcache import FastSetAssocCache
from repro.trace.stream import AccessStream, sorted_unique

#: Selectable cache-simulation implementations.  ``reference`` is the
#: plain-Python model of :mod:`repro.sim.cache`; ``fast`` is the
#: bit-exact vectorized twin of :mod:`repro.sim.fastcache` (equivalence
#: enforced by tests/test_engine_equivalence.py and
#: tests/test_cache_vectorized.py).
CACHE_IMPLS = {"reference": SetAssocCache, "fast": FastSetAssocCache}


class Component(enum.Enum):
    """The actors whose memory traffic the study attributes (Figs. 4-6)."""

    CPU = "cpu"
    GPU = "gpu"
    COPY = "copy"


COMPONENT_CODE = {Component.CPU: 0, Component.GPU: 1, Component.COPY: 2}
COMPONENT_BY_CODE = {code: comp for comp, code in COMPONENT_CODE.items()}


class OffChipLog:
    """Append-only record of every access that reaches off-chip memory."""

    def __init__(self) -> None:
        self._blocks: List[np.ndarray] = []
        self._is_write: List[np.ndarray] = []
        self._stage: List[np.ndarray] = []
        self._component: List[np.ndarray] = []

    def append(
        self,
        blocks: np.ndarray,
        is_write: np.ndarray,
        stage_ordinal: int,
        component: Component,
    ) -> None:
        count = len(blocks)
        if not count:
            return
        self._blocks.append(np.asarray(blocks, dtype=np.int64))
        self._is_write.append(np.asarray(is_write, dtype=bool))
        self._stage.append(np.full(count, stage_ordinal, dtype=np.int32))
        self._component.append(
            np.full(count, COMPONENT_CODE[component], dtype=np.int8)
        )

    def __len__(self) -> int:
        return sum(len(part) for part in self._blocks)

    # -- delta capture (stage memoization) -------------------------------------

    def mark(self) -> int:
        """Position token delimiting the appends of one stage's memory step."""
        return len(self._blocks)

    def parts_since(
        self, mark: int
    ) -> Tuple[Tuple[np.ndarray, np.ndarray, int], ...]:
        """The (blocks, is_write, component_code) parts appended since ``mark``.

        The returned arrays are shared references into the log (never
        mutated anywhere), so capturing a delta for :mod:`repro.sim.memo`
        costs no copies; the per-part stage ordinal is deliberately dropped
        — replays re-stamp parts with the replaying stage's ordinal.
        """
        return tuple(
            (self._blocks[i], self._is_write[i], int(self._component[i][0]))
            for i in range(mark, len(self._blocks))
        )

    def replay(
        self,
        parts: Tuple[Tuple[np.ndarray, np.ndarray, int], ...],
        stage_ordinal: int,
    ) -> None:
        """Re-append a captured delta under a (possibly different) ordinal."""
        for blocks, is_write, code in parts:
            self.append(blocks, is_write, stage_ordinal, COMPONENT_BY_CODE[code])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(blocks, is_write, stage_ordinal, component_code) in log order."""
        if not self._blocks:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty,
                np.empty(0, dtype=bool),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int8),
            )
        return (
            np.concatenate(self._blocks),
            np.concatenate(self._is_write),
            np.concatenate(self._stage),
            np.concatenate(self._component),
        )

    def counts_by_component(self) -> Dict[Component, int]:
        totals = {comp: 0 for comp in Component}
        for part in zip(self._component, self._blocks):
            codes, blocks = part
            for comp, code in COMPONENT_CODE.items():
                totals[comp] += int((codes == code).sum())
        return totals


@dataclass
class DomainResult:
    """Summary of running one stage's stream through a domain."""

    requests: int
    offchip_reads: int
    offchip_writes: int
    onchip_transfers: int
    # Block ids of the off-chip accesses, in order (for the optional
    # row-buffer DRAM model); None when the stage produced none.
    offchip_blocks: Optional[np.ndarray] = None


class Domain:
    """A core complex's private cache hierarchy (L1 -> L2 -> memory)."""

    def __init__(
        self,
        name: str,
        l1: CacheConfig,
        l2: CacheConfig,
        impl: str = "reference",
    ):
        if impl not in CACHE_IMPLS:
            raise ValueError(
                f"unknown cache impl {impl!r}; choose from {sorted(CACHE_IMPLS)}"
            )
        self.name = name
        self.impl = impl
        cache_cls = CACHE_IMPLS[impl]
        self.l1 = cache_cls(l1, name=f"{name}.l1")
        self.l2 = cache_cls(l2, name=f"{name}.l2")

    def process(
        self,
        stream: AccessStream,
        log: OffChipLog,
        stage_ordinal: int,
        component: Component,
        peer: Optional["Domain"] = None,
    ) -> DomainResult:
        """Run a stream through L1 then L2, logging off-chip accesses.

        With a coherent ``peer`` (heterogeneous processor), L2 read misses
        that hit in the peer's L2 become on-chip transfers: the line migrates
        to this domain and no off-chip access is logged.
        """
        if not len(stream):
            return DomainResult(0, 0, 0, 0)
        below_l1 = self.l1.access_stream(stream)
        below_l2 = self.l2.access_stream(below_l1)
        if not len(below_l2):
            return DomainResult(len(stream), 0, 0, 0)

        if peer is None:
            blocks, is_write = below_l2.blocks, below_l2.is_write
            transfers = 0
        elif self.impl == "fast":
            blocks, is_write, transfers = self._probe_peer_fast(below_l2, peer)
        else:
            peer_resident = peer.l2.resident_blocks
            keep = np.ones(len(below_l2), dtype=bool)
            transfers = 0
            out_blocks = below_l2.blocks.tolist()
            out_writes = below_l2.is_write.tolist()
            for i in range(len(below_l2)):
                if out_writes[i]:
                    continue  # writebacks always go to memory
                block = out_blocks[i]
                if block in peer_resident:
                    peer.l2.extract(block)
                    peer.l1.extract(block)
                    keep[i] = False
                    transfers += 1
            blocks = below_l2.blocks[keep]
            is_write = below_l2.is_write[keep]

        log.append(blocks, is_write, stage_ordinal, component)
        reads = int((~is_write).sum())
        writes = int(is_write.sum())
        return DomainResult(
            len(stream), reads, writes, transfers, offchip_blocks=blocks
        )

    def _probe_peer_fast(
        self, below_l2: AccessStream, peer: "Domain"
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Vectorized coherent peer probe, bit-exact with the loop above.

        Only reads probe the peer, and extraction removes the line, so only
        the *first* read of each resident block is an on-chip transfer —
        later reads of the same block (and all writebacks) go to memory.
        Removing a set of lines leaves the others' LRU order alone, so the
        peer drops every migrated line in one bulk extraction per level.
        """
        blocks, is_write = below_l2.blocks, below_l2.is_write
        resident = peer.l2.resident_array()
        if not len(resident):
            return blocks, is_write, 0
        candidates = np.flatnonzero(~is_write & np.isin(blocks, resident))
        if not len(candidates):
            return blocks, is_write, 0
        taken, first = np.unique(blocks[candidates], return_index=True)
        peer.l2.extract_all(taken)
        peer.l1.extract_all(taken)
        keep = np.ones(len(blocks), dtype=bool)
        keep[candidates[first]] = False
        return blocks[keep], is_write[keep], len(taken)

    def invalidate(self, blocks: np.ndarray) -> None:
        """Drop lines in both levels without writeback (DMA overwrite)."""
        unique = self._lookup_list(blocks)
        self.l1.invalidate(unique)
        self.l2.invalidate(unique)

    def flush(self, blocks: np.ndarray) -> List[int]:
        """Write back dirty copies of the given lines (pre-DMA-read flush)."""
        unique = self._lookup_list(blocks)
        written = self.l1.flush(unique)
        written += self.l2.flush(unique)
        return written

    def _lookup_list(self, blocks: np.ndarray):
        """Sorted unique lookup blocks, in whichever form the impl prefers.

        Copy streams are usually already sorted runs of block ids, so the
        sort is skipped when a cheap monotonicity check passes.  The fast
        impl narrows lookups vectorized and prefers the ndarray; the
        reference loop is faster over a plain list.
        """
        arr = np.asarray(blocks, dtype=np.int64)
        if len(arr) > 1 and not np.all(arr[1:] > arr[:-1]):
            arr = sorted_unique(arr)
        if self.impl == "fast":
            return arr
        return arr.tolist()


class CacheSystem:
    """Both domains plus the copy-engine path and the off-chip log."""

    def __init__(
        self,
        cpu_l1: CacheConfig,
        cpu_l2: CacheConfig,
        gpu_l1: CacheConfig,
        gpu_l2: CacheConfig,
        coherent: bool,
        impl: str = "reference",
    ):
        self.cpu = Domain("cpu", cpu_l1, cpu_l2, impl=impl)
        self.gpu = Domain("gpu", gpu_l1, gpu_l2, impl=impl)
        self.coherent = coherent
        self.impl = impl
        self.log = OffChipLog()

    def domain_for(self, component: Component) -> Domain:
        if component is Component.CPU:
            return self.cpu
        if component is Component.GPU:
            return self.gpu
        raise ValueError("the copy engine has no cache domain")

    def peer_of(self, component: Component) -> Optional[Domain]:
        if not self.coherent:
            return None
        return self.gpu if component is Component.CPU else self.cpu

    def process_compute(
        self, stream: AccessStream, stage_ordinal: int, component: Component
    ) -> DomainResult:
        """Run a CPU or GPU stage's stream through its domain."""
        domain = self.domain_for(component)
        return domain.process(
            stream, self.log, stage_ordinal, component, peer=self.peer_of(component)
        )

    def process_copy(
        self,
        src_blocks: np.ndarray,
        dst_blocks: np.ndarray,
        stage_ordinal: int,
    ) -> DomainResult:
        """Run a DMA copy: read source blocks, write destination blocks.

        Coherent source lines are flushed from caches first (their writebacks
        are attributed to the owning core's traffic); destination lines are
        invalidated in all caches.  The DMA engine itself does not allocate
        in any cache — every copied block is an off-chip read plus an
        off-chip write attributed to the COPY component.
        """
        flushed = 0
        for domain, comp in ((self.cpu, Component.CPU), (self.gpu, Component.GPU)):
            written = domain.flush(src_blocks)
            if written:
                arr = np.asarray(written, dtype=np.int64)
                self.log.append(arr, np.ones(len(arr), dtype=bool), stage_ordinal, comp)
                flushed += len(written)
        self.cpu.invalidate(dst_blocks)
        self.gpu.invalidate(dst_blocks)

        self.log.append(
            src_blocks, np.zeros(len(src_blocks), dtype=bool), stage_ordinal, Component.COPY
        )
        self.log.append(
            dst_blocks, np.ones(len(dst_blocks), dtype=bool), stage_ordinal, Component.COPY
        )
        return DomainResult(
            requests=len(src_blocks) + len(dst_blocks),
            offchip_reads=len(src_blocks),
            offchip_writes=len(dst_blocks) + flushed,
            onchip_transfers=0,
            offchip_blocks=np.concatenate([src_blocks, dst_blocks])
            if len(src_blocks) or len(dst_blocks)
            else None,
        )
