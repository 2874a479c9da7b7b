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

A read is labelled by its previous access to the block and a writeback by
its next one, so each label comes from a *close pair*: two consecutive
accesses to one block whose later access is a read at stage distance 0 or
1.  One in-place sort of one packed int64 key per access lines every
block's accesses up in program order (:func:`_close_pairs`), so every
close pair is a pair of neighbouring keys.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

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


#: Bits a packed key may use: block, program position and payload stay
#: below the int64 sign bit.
_KEY_BITS = 63

#: The classes a close pair labels, by stage distance: (its earlier access
#: is a read, its earlier access is a writeback).  A W-R pair labels the
#: writeback as well as the read.
_PAIR_CLASSES = (
    (AccessClass.RR_CONTENTION, AccessClass.WR_CONTENTION),
    (AccessClass.RR_SPILL, AccessClass.WR_SPILL),
)


def _dense_rank(blocks: np.ndarray) -> np.ndarray:
    """Each block id's rank among the log's distinct ids: same order, fewer bits."""
    return np.unique(blocks, return_inverse=True)[1].reshape(-1)


def _close_pairs(
    blocks: np.ndarray, payload: np.ndarray, span: int
) -> Tuple[np.ndarray, int, List[np.ndarray], np.ndarray]:
    """Sort a log of two or more accesses by block and find its close pairs.

    ``payload[i]`` is ``(logical stage - lowest stage) << 1 | is_write`` of
    access ``i``, and ``span`` is the highest logical stage minus the
    lowest.  Access ``i`` gets one int64 key::

        block << (pos_bits + pay_bits) | i << pay_bits | payload[i]

    The keys are unique, so numpy's unstable in-place sort orders each
    block's accesses by program position, as a stable argsort of the block
    ids would, and an access's previous access to its block is its
    neighbour.  Block ids too wide for the 63-bit budget are first replaced
    by their dense rank, which sorts the same.

    Returns ``(keys, pay_bits, near, earlier_write)`` over the neighbour
    pairs of the sorted keys (pair ``i`` joins keys ``i`` and ``i + 1``):
    ``near[d]`` marks the pairs of one block whose later access is a read
    at stage distance ``d`` (0 or 1), and ``earlier_write`` the pairs whose
    earlier access is a writeback.
    """
    n = len(blocks)
    pay_bits = (span << 1 | 1).bit_length()
    low_bits = (n - 1).bit_length() + pay_bits
    if int(blocks.max()).bit_length() + low_bits > _KEY_BITS:
        blocks = _dense_rank(blocks)
        if int(blocks.max()).bit_length() + low_bits > _KEY_BITS:
            raise OverflowError(
                f"{n} accesses over {span + 1} logical stages overflow a packed key"
            )
    keys = np.arange(0, n << pay_bits, 1 << pay_bits, dtype=np.int64)
    keys |= blocks << low_bits
    keys |= payload
    keys.sort()
    # Neighbours share a block when their keys differ only in the low bits.
    same = np.bitwise_xor(keys[1:], keys[:-1]) <= (1 << low_bits) - 1
    # The payload in the narrowest unsigned int with a bit to spare: the
    # wrapped difference below then reads 0 or 2 only for a true 0 or 2.
    ptype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if np.iinfo(t).bits > pay_bits)
    pay = keys.astype(ptype)
    pay &= ptype((1 << pay_bits) - 1)
    earlier = pay[:-1]
    # 2 * stage distance + (later access is a writeback).
    step = earlier & ~ptype(1)
    np.subtract(pay[1:], step, out=step)
    near = []
    for twice_distance in (0, 2):
        mask = step == twice_distance
        mask &= same
        near.append(mask)
    return keys, pay_bits, near, (earlier & 1).astype(bool)


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
    if len(blocks) < 2:
        return labels
    stage = np.asarray(logical_stage, dtype=np.int64)
    lowest = int(stage.min())
    payload = (stage - lowest) << 1
    payload |= is_write
    keys, pay_bits, near, earlier_write = _close_pairs(
        np.asarray(blocks, dtype=np.int64), payload, int(stage.max()) - lowest
    )
    position = keys >> pay_bits
    position &= (1 << (len(blocks) - 1).bit_length()) - 1
    for close, (read_class, write_class) in zip(near, _PAIR_CLASSES):
        pairs = np.flatnonzero(close)
        writeback = earlier_write[pairs]
        labels[position[pairs + 1]] = np.where(
            writeback, _CODE[write_class], _CODE[read_class]
        )
        labels[position[pairs[writeback]]] = _CODE[write_class]
    return labels


def classify_result(result: SimResult) -> Classification:
    """Fig. 9 classification for one simulation run.

    Counts close pairs instead of labelling accesses: every access is
    labelled by at most one pair, so REQUIRED is the remainder.
    """
    counts = {cls: 0 for cls in AccessClass}
    n = len(result.log_blocks)
    if n >= 2:
        logical = result.logical_of_ordinal.astype(np.int64)
        lowest = int(logical.min())
        payload = ((logical - lowest) << 1).take(result.log_stage)
        payload |= result.log_is_write
        *_, near, earlier_write = _close_pairs(
            result.log_blocks, payload, int(logical.max()) - lowest
        )
        for close, (read_class, write_class) in zip(near, _PAIR_CLASSES):
            writebacks = int(np.count_nonzero(close & earlier_write))
            counts[read_class] = int(np.count_nonzero(close)) - writebacks
            counts[write_class] = 2 * writebacks
    counts[AccessClass.REQUIRED] = n - sum(counts.values())
    return Classification(counts=counts)
