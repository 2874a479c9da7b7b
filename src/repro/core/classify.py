"""Off-chip memory access classification (Section V-C, Fig. 9).

Every access at the off-chip interface is labelled from its relationship to
the previous (for reads) or next (for writebacks) off-chip access to the
same cache block, measured in pipeline-stage distance:

* **REQUIRED** — compulsory accesses (first read of / last write to a block)
  and long-range reuse spanning multiple pipeline stages.
* **WR_SPILL** — producer-consumer data written back in one stage and read
  in the next: the producing writeback and the consuming read.
* **RR_SPILL** — data read in consecutive stages (shared stage inputs).
* **RR_CONTENTION** — a block re-read within the same stage after capacity
  contention evicted it.
* **WR_CONTENTION** — a block written back and re-read within the same
  stage (the writeback happened before all uses completed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.sim.fastcache import stable_argsort_ids
from repro.sim.results import SimResult


class AccessClass(enum.Enum):
    REQUIRED = "required"
    WR_SPILL = "w-r spill"
    RR_SPILL = "r-r spill"
    RR_CONTENTION = "r-r contention"
    WR_CONTENTION = "w-r contention"


_CODE = {
    AccessClass.REQUIRED: 0,
    AccessClass.WR_SPILL: 1,
    AccessClass.RR_SPILL: 2,
    AccessClass.RR_CONTENTION: 3,
    AccessClass.WR_CONTENTION: 4,
}
_CLASS_OF_CODE = {code: cls for cls, code in _CODE.items()}


@dataclass(frozen=True)
class Classification:
    """Fig. 9 output for one simulation run."""

    counts: Dict[AccessClass, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, cls: AccessClass) -> float:
        return self.counts[cls] / self.total if self.total else 0.0

    @property
    def spill_fraction(self) -> float:
        return self.fraction(AccessClass.WR_SPILL) + self.fraction(AccessClass.RR_SPILL)

    @property
    def contention_fraction(self) -> float:
        return self.fraction(AccessClass.RR_CONTENTION) + self.fraction(
            AccessClass.WR_CONTENTION
        )

    @property
    def avoidable(self) -> int:
        """Accesses that better pipeline organization or caching could remove."""
        return self.total - self.counts[AccessClass.REQUIRED]


#: Class code of a close pair, indexed by its kind
#: ``2 * (earlier access is a write) + stage distance``.
_PAIR_CODE = np.array(
    [
        _CODE[AccessClass.RR_CONTENTION],
        _CODE[AccessClass.RR_SPILL],
        _CODE[AccessClass.WR_CONTENTION],
        _CODE[AccessClass.WR_SPILL],
    ],
    dtype=np.int8,
)
#: Accesses a close pair of each kind labels: a W-R pair labels the
#: writeback as well as the read.
_PAIR_LABELS = np.array([1, 1, 2, 2], dtype=np.int64)


def _close_pairs(
    blocks: np.ndarray,
    is_write: np.ndarray,
    logical_stage: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every read at stage distance 0 or 1 after the previous access to its block.

    One stable radix argsort groups the log by block and keeps program
    order inside each group, so an access's previous access to the same
    block is its neighbour in that order.  Returns ``(order, pairs, kind)``:
    pair ``i`` joins accesses ``order[pairs[i]]`` and ``order[pairs[i] + 1]``
    and has kind ``kind[i]`` (see :data:`_PAIR_CODE`).
    """
    # np.take gathers faster than fancy indexing.  Each log-length
    # temporary is dropped once used: the largest logs set a warm render's
    # peak memory.
    order = stable_argsort_ids(blocks)
    grouped = np.take(blocks, order)
    close = grouped[1:] == grouped[:-1]
    del grouped
    writes = np.take(is_write, order)
    close &= ~writes[1:]
    # int64 keeps narrow or unsigned stage dtypes from wrapping.
    stage = np.take(logical_stage, order).astype(np.int64)
    dist = stage[1:] - stage[:-1]
    del stage
    close &= dist.view(np.uint64) <= 1  # distance 0 or 1
    pairs = np.flatnonzero(close)
    kind = np.take(dist, pairs)
    kind[np.take(writes, pairs)] += 2
    return order, pairs, kind


def classify_log(
    blocks: np.ndarray,
    is_write: np.ndarray,
    logical_stage: np.ndarray,
) -> np.ndarray:
    """Label every off-chip access; returns an int8 array of class codes.

    ``logical_stage`` gives, per access, the pipeline-stage index at which
    it occurred; accesses are in program order and block ids are
    non-negative.
    """
    labels = np.full(len(blocks), _CODE[AccessClass.REQUIRED], dtype=np.int8)
    order, pairs, kind = _close_pairs(blocks, is_write, logical_stage)
    codes = _PAIR_CODE[kind]
    labels[order[pairs + 1]] = codes
    # A W-R pair labels its writeback too.
    writebacks = kind >= 2
    labels[order[pairs[writebacks]]] = codes[writebacks]
    return labels


def classify_result(result: SimResult) -> Classification:
    """Fig. 9 classification for one simulation run.

    Counts close pairs instead of labelling accesses: every access is
    labelled by at most one pair, so REQUIRED is the remainder.
    """
    logical = np.take(result.logical_of_ordinal, result.log_stage)
    *_, kind = _close_pairs(result.log_blocks, result.log_is_write, logical)
    labelled = (np.bincount(kind, minlength=len(_PAIR_CODE)) * _PAIR_LABELS).tolist()
    counts = {cls: 0 for cls in AccessClass}
    for code, tally in zip(_PAIR_CODE.tolist(), labelled):
        counts[_CLASS_OF_CODE[code]] = tally
    counts[AccessClass.REQUIRED] = len(result.log_blocks) - sum(labelled)
    return Classification(counts=counts)
