"""Block-granularity access streams.

The cache simulator consumes flat streams of (block id, is_write) records.
Block ids index a single global block-granule address space laid out by
:class:`repro.trace.generator.BufferLayout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class AccessStream:
    """A sequence of cache-block accesses in program order."""

    blocks: np.ndarray  # int64 block ids
    is_write: np.ndarray  # bool, parallel to blocks

    def __post_init__(self) -> None:
        if self.blocks.shape != self.is_write.shape:
            raise ValueError("blocks and is_write must have identical shapes")
        if self.blocks.ndim != 1:
            raise ValueError("streams are one-dimensional")

    def __len__(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def num_reads(self) -> int:
        return int(len(self) - self.is_write.sum())

    @property
    def num_writes(self) -> int:
        return int(self.is_write.sum())

    def unique_blocks(self) -> np.ndarray:
        return sorted_unique(self.blocks)

    @staticmethod
    def empty() -> "AccessStream":
        return AccessStream(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))

    @staticmethod
    def of(blocks: Sequence[int], is_write: bool = False) -> "AccessStream":
        """Build a stream of all-read or all-write accesses."""
        arr = np.asarray(blocks, dtype=np.int64)
        return AccessStream(arr, np.full(arr.shape, is_write, dtype=bool))


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """Sorted unique ids as a fresh array: ``np.unique`` without hashing.

    One comparison sort plus an adjacent-difference mask; numpy's
    ``np.unique`` hashes integer input instead, which is several times
    slower on block and page id arrays.
    """
    out = np.sort(ids, axis=None)
    if len(out) < 2:
        return out
    keep = np.empty(len(out), dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def concatenate(streams: Iterable[AccessStream]) -> AccessStream:
    """Join streams back to back."""
    streams = [s for s in streams if len(s)]
    if not streams:
        return AccessStream.empty()
    return AccessStream(
        np.concatenate([s.blocks for s in streams]),
        np.concatenate([s.is_write for s in streams]),
    )


def interleave(streams: Sequence[AccessStream]) -> AccessStream:
    """Merge streams proportionally, preserving each stream's own order.

    Every access is assigned a fractional position (i + 0.5) / n within its
    stream and the merged stream is sorted by position (stable), so a
    1000-access read stream and a 100-access write stream interleave at
    roughly 10:1 — the way a kernel's loads and stores mix in practice.
    """
    streams = [s for s in streams if len(s)]
    if not streams:
        return AccessStream.empty()
    if len(streams) == 1:
        return streams[0]
    positions = np.concatenate(
        [(np.arange(len(s)) + 0.5) / len(s) for s in streams]
    )
    blocks = np.concatenate([s.blocks for s in streams])
    is_write = np.concatenate([s.is_write for s in streams])
    order = np.argsort(positions, kind="stable")
    return AccessStream(blocks[order], is_write[order])
