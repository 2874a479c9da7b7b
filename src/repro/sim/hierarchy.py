"""Cache hierarchies, coherence domains, and the off-chip interface log.

Each core complex (CPU, GPU) owns a two-level hierarchy.  In the discrete
system the two domains are fully separate and the copy engine moves data
between them over PCIe.  In the heterogeneous processor the domains are
coherent: a miss in one domain's hierarchy probes the peer's L2 and, on a
hit, migrates the line on chip instead of going to memory — the mechanism
behind the paper's "Parallel + Cache" kmeans organization.

Every access that does reach memory is appended to the
:class:`OffChipLog`, which Figs. 5 and 9 are computed from.

Each level of a domain and the coherent peer probe is its own step, run
by :func:`repro.sim.memo.run_step`: with a stage memo each step is keyed
only on its own inputs, so a study that changes one cache replays the
levels it did not change.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.config.components import CacheConfig
from repro.sim.cache import SetAssocCache
from repro.sim.fastcache import FastSetAssocCache, downstream
from repro.sim.memo import StageMemo, run_step, states_digest
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

_NONE_MIGRATED = np.empty(0, dtype=np.int64)
_NONE_MIGRATED.flags.writeable = False


class OffChipLog:
    """Append-only record of every access that reaches off-chip memory."""

    def __init__(self) -> None:
        self._blocks: List[np.ndarray] = []
        self._is_write: List[np.ndarray] = []
        # Per part, the positions left out when the log is read, or None.
        self._dropped: List[Optional[np.ndarray]] = []
        # Per part, its stage ordinal, component code and kept count.
        self._ordinal: List[int] = []
        self._code: List[int] = []
        self._count: List[int] = []
        self._total = 0

    def append(
        self,
        blocks: np.ndarray,
        is_write: np.ndarray,
        stage_ordinal: int,
        component: Component,
        dropped: Optional[np.ndarray] = None,
    ) -> None:
        """Append one part of ``blocks``/``is_write``, less the positions in
        ``dropped`` (lines a coherent peer supplied on chip).

        The part keeps the arrays as given and leaves the dropped positions
        out only when the log is read, so it can share the unfiltered
        arrays a stage-memo entry holds instead of a filtered copy.
        """
        if dropped is not None and not len(dropped):
            dropped = None
        count = len(blocks) - (0 if dropped is None else len(dropped))
        if not count:
            return
        self._blocks.append(np.asarray(blocks, dtype=np.int64))
        self._is_write.append(np.asarray(is_write, dtype=bool))
        self._dropped.append(dropped)
        self._ordinal.append(stage_ordinal)
        self._code.append(COMPONENT_CODE[component])
        self._count.append(count)
        self._total += count

    def __len__(self) -> int:
        return self._total

    def _kept(self, parts: List[np.ndarray], index: int) -> np.ndarray:
        """Part ``index`` of ``parts`` without its dropped positions."""
        dropped = self._dropped[index]
        if dropped is None:
            return parts[index]
        return np.delete(parts[index], dropped)

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
            (
                self._kept(self._blocks, i),
                self._kept(self._is_write, i),
                self._code[i],
            )
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

    def _read(self, parts: List[np.ndarray], dtype) -> np.ndarray:
        """``parts`` in log order without their dropped positions.

        Fills one output array part by part, so at most one filtered copy
        of a part exists at a time.
        """
        out = np.empty(len(self), dtype=dtype)
        pos = 0
        for index in range(len(parts)):
            part = self._kept(parts, index)
            out[pos : pos + len(part)] = part
            pos += len(part)
        return out

    @staticmethod
    def empty_arrays() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fresh empty arrays of the :meth:`arrays` dtypes."""
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int8),
        )

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(blocks, is_write, stage_ordinal, component_code) in log order."""
        if not self._blocks:
            return self.empty_arrays()
        return (
            self._read(self._blocks, np.int64),
            self._read(self._is_write, bool),
            np.repeat(np.asarray(self._ordinal, dtype=np.int32), self._count),
            np.repeat(np.asarray(self._code, dtype=np.int8), self._count),
        )

    def counts_by_component(self) -> Dict[Component, int]:
        totals = {comp: 0 for comp in Component}
        for code, count in zip(self._code, self._count):
            totals[COMPONENT_BY_CODE[code]] += count
        return totals


class DomainResult(NamedTuple):
    """Summary of running one stage's stream through a domain (a tuple, so
    a copy step's result is its stage-memo outputs as is)."""

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
        memo: Optional[StageMemo] = None,
        stream_key: Optional[tuple] = None,
    ) -> DomainResult:
        """Run a stream through L1 then L2, logging off-chip accesses.

        With a coherent ``peer`` (heterogeneous processor), L2 read misses
        that hit in the peer's L2 become on-chip transfers: the line migrates
        to this domain and no off-chip access is logged.

        The L1, the L2 and the probe are steps run through ``memo``; the L1
        step keys on ``stream_key``, which names the stream's contents (and
        the engine version), the L2 step on the L1 step's token and the
        probe on the L2 step's.
        """
        if not len(stream):
            return DomainResult(0, 0, 0, 0)
        l1, l2 = self.l1, self.l2
        below_l1: Optional[AccessStream] = None

        def l1_live() -> tuple:
            nonlocal below_l1
            below_l1, miss, wb_pos, victims = l1.access_misses(stream)
            return np.packbits(miss), wb_pos, victims

        l1_out, l1_token = run_step(
            memo,
            lambda: ("l1", l1.config, states_digest([l1.state_arrays()]), stream_key),
            (l1,),
            log,
            stage_ordinal,
            l1_live,
        )
        if not l1_out[0].any():
            # No L1 misses: nothing reaches the L2.
            return DomainResult(len(stream), 0, 0, 0)

        def l2_live() -> tuple:
            below = below_l1
            if below is None:
                # The L1 step replayed: rebuild its downstream.
                miss_bits, wb_pos, wb_block = l1_out
                miss = np.unpackbits(miss_bits, count=len(stream)).view(bool)
                below = downstream(stream.blocks, miss, wb_pos, wb_block)
            below_l2 = l2.access_stream(below)
            return below_l2.blocks, below_l2.is_write

        (blocks, is_write), l2_token = run_step(
            memo,
            lambda: ("l2", l2.config, states_digest([l2.state_arrays()]), l1_token),
            (l2,),
            log,
            stage_ordinal,
            l2_live,
        )
        if not len(blocks):
            return DomainResult(len(stream), 0, 0, 0)

        migrated = _NONE_MIGRATED
        if peer is not None:
            peers = (peer.l1, peer.l2)
            (migrated,), _ = run_step(
                memo,
                lambda: (
                    "probe",
                    states_digest([cache.state_arrays() for cache in peers]),
                    l2_token,
                ),
                peers,
                log,
                stage_ordinal,
                lambda: (self._probe_peer(AccessStream(blocks, is_write), peer),),
            )

        # Migrated lines are reads that never reach memory; the log leaves
        # them out when read, so it keeps the L2's arrays, not a copy.
        log.append(blocks, is_write, stage_ordinal, component, dropped=migrated)
        writes = int(is_write.sum())
        return DomainResult(
            len(stream),
            len(is_write) - writes - len(migrated),
            writes,
            len(migrated),
            offchip_blocks=np.delete(blocks, migrated) if len(migrated) else blocks,
        )

    def _probe_peer(self, below_l2: AccessStream, peer: "Domain") -> np.ndarray:
        """Probe the peer's L2 with this domain's L2 read misses.

        Returns the positions in ``below_l2`` whose line migrated from the
        peer: the first read of each block resident in the peer's L2, which
        the peer's L1 and L2 drop.  Writebacks always go to memory.
        """
        if self.impl == "fast":
            return self._probe_peer_fast(below_l2, peer)
        peer_resident = peer.l2.resident_blocks
        migrated = []
        out_blocks = below_l2.blocks.tolist()
        out_writes = below_l2.is_write.tolist()
        for i in range(len(below_l2)):
            if out_writes[i]:
                continue  # writebacks always go to memory
            block = out_blocks[i]
            if block in peer_resident:
                peer.l2.extract(block)
                peer.l1.extract(block)
                migrated.append(i)
        return np.asarray(migrated, dtype=np.int64)

    def _probe_peer_fast(
        self, below_l2: AccessStream, peer: "Domain"
    ) -> np.ndarray:
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
            return _NONE_MIGRATED
        candidates = np.flatnonzero(~is_write & np.isin(blocks, resident))
        if not len(candidates):
            return _NONE_MIGRATED
        taken, first = np.unique(blocks[candidates], return_index=True)
        peer.l2.extract_all(taken)
        peer.l1.extract_all(taken)
        return candidates[first]

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
    """Both domains plus the copy-engine path and the off-chip log.

    ``memo`` memoizes each domain's levels and its peer probe on compute
    stages (see :meth:`Domain.process`); the engine runs a copy as one
    step, calling :meth:`process_copy` only when it misses.
    """

    def __init__(
        self,
        cpu_l1: CacheConfig,
        cpu_l2: CacheConfig,
        gpu_l1: CacheConfig,
        gpu_l2: CacheConfig,
        coherent: bool,
        impl: str = "reference",
        memo: Optional[StageMemo] = None,
    ):
        self.cpu = Domain("cpu", cpu_l1, cpu_l2, impl=impl)
        self.gpu = Domain("gpu", gpu_l1, gpu_l2, impl=impl)
        self.coherent = coherent
        self.memo = memo
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
        self,
        stream: AccessStream,
        stage_ordinal: int,
        component: Component,
        stream_key: Optional[tuple] = None,
    ) -> DomainResult:
        """Run a CPU or GPU stage's stream through its domain.

        ``stream_key`` names the stream for the memo's L1 step; it is
        required when the system has a memo.
        """
        domain = self.domain_for(component)
        return domain.process(
            stream,
            self.log,
            stage_ordinal,
            component,
            peer=self.peer_of(component),
            memo=self.memo,
            stream_key=stream_key,
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
