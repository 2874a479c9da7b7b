"""CPU-handled GPU page faults (heterogeneous processor).

With a shared page table, a GPU access to an unmapped page interrupts the
CPU, which maps the page (optionally zeroing it) and returns the
translation.  Faults are serviced serially, so fault-heavy GPU stages both
slow down and shift work onto the CPU — the Section IV effects on srad,
heartwall and pr_spmv.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

import numpy as np

from repro.config.system import PageFaultConfig
from repro.pipeline.graph import Pipeline
from repro.pipeline.stage import StageKind
from repro.trace.generator import BufferLayout


@dataclass(frozen=True)
class FaultResult:
    """Faults taken by one stage and the CPU time spent servicing them."""

    faults: int
    service_time_s: float
    zeroed_blocks: np.ndarray  # blocks the CPU wrote while zeroing new pages
    new_pages: np.ndarray  # int64 ids of the pages the touch mapped


def premapped_pages(pipeline: Pipeline, layout: BufferLayout) -> Set[int]:
    """Pages mapped before the ROI begins.

    The ROI starts after the CPU has set up all input data in its physical
    memory, so every true *input* buffer — one some stage reads before any
    stage writes it — is already mapped.  Output and intermediate buffers
    (first access is a write) and GPU temporaries are unmapped and will
    fault on first touch.
    """
    first_access_is_read: Set[str] = set()
    written: Set[str] = set()
    for stage in pipeline.topological_order():
        for access in stage.reads:
            if access.buffer not in written and access.buffer not in first_access_is_read:
                first_access_is_read.add(access.buffer)
        for access in stage.writes:
            written.add(access.buffer)

    pages: Set[int] = set()
    for name in first_access_is_read:
        buf = pipeline.buffers[name]
        if buf.temporary:
            continue
        base = layout.base_block(name)
        nblocks = layout.num_blocks(name)
        first_page = base // layout.blocks_per_page
        last_page = (base + nblocks - 1) // layout.blocks_per_page
        pages.update(range(first_page, last_page + 1))
    return pages


_TOKEN_MASK = (1 << 64) - 1


def _pages_token(pages) -> int:
    """Order-independent 64-bit token of a collection of page ids.

    A splitmix64-style finalizer over each id, summed mod 2**64.  The sum
    is commutative, so :class:`PageFaultModel` can maintain its page-table
    token incrementally (adding each touch's new pages) and still agree
    with a from-scratch fold over the mapped set — which is what lets
    :mod:`repro.sim.memo` key stage entries on page-table state in O(new
    pages) instead of O(mapped pages) per stage.
    """
    arr = np.fromiter(pages, dtype=np.uint64) if not isinstance(
        pages, np.ndarray
    ) else pages.astype(np.uint64)
    if not len(arr):
        return 0
    x = arr + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return int(x.sum(dtype=np.uint64))


class PageFaultModel:
    """Tracks the shared page table and charges fault service time."""

    def __init__(
        self,
        config: PageFaultConfig,
        layout: BufferLayout,
        mapped: Set[int],
        serialization_heavy: bool = False,
    ):
        self.config = config
        self.layout = layout
        self.mapped = set(mapped)
        self.serialization_heavy = serialization_heavy
        self._token = _pages_token(self.mapped)

    def state_key(self) -> tuple:
        """Everything a touch's outcome depends on besides the stream.

        Page size in blocks plus a digest of the page-table state: the key
        of the fault part of a stage memo entry.  Fault *timing*
        (:meth:`service_time`) is left out; it is recomputed live.
        """
        return (self.layout.blocks_per_page, len(self.mapped), self._token)

    def service_time(self, faults: int) -> float:
        """CPU seconds spent servicing ``faults`` GPU page faults."""
        if not faults:
            return 0.0
        if self.serialization_heavy:
            factor = self.config.serialization_penalty
        else:
            factor = 1.0 / self.config.hidden_parallelism
        return faults * self.config.service_latency_s * factor

    def map_pages(self, new_pages: np.ndarray) -> None:
        """Map ``new_pages``, none of them mapped yet: the one page-table
        update, made by :meth:`touch` and by a memoized touch's replay."""
        if not len(new_pages):
            return
        self.mapped.update(int(p) for p in new_pages)
        self._token = (self._token + _pages_token(new_pages)) & _TOKEN_MASK

    def touch(self, blocks: np.ndarray, kind: StageKind) -> FaultResult:
        """Record a stage's page touches; GPU first-touches fault.

        CPU first-touches are ordinary minor faults handled locally at
        negligible cost; they still map (and zero) the pages.
        """
        none = np.empty(0, dtype=np.int64)
        if not self.config.enabled or not len(blocks):
            return FaultResult(0, 0.0, none, none)
        pages = self.layout.pages_of(blocks)
        new_mask = np.fromiter(
            (int(p) not in self.mapped for p in pages), dtype=bool, count=len(pages)
        )
        new_pages = pages[new_mask].astype(np.int64, copy=False)
        if not len(new_pages):
            return FaultResult(0, 0.0, none, none)
        self.map_pages(new_pages)

        blocks_per_page = self.layout.blocks_per_page
        zeroed = (
            (new_pages[:, None] * blocks_per_page + np.arange(blocks_per_page)[None, :])
            .reshape(-1)
            .astype(np.int64)
        )
        if kind is not StageKind.GPU_KERNEL:
            return FaultResult(0, 0.0, zeroed, new_pages)
        faults = int(len(new_pages))
        return FaultResult(faults, self.service_time(faults), zeroed, new_pages)
