"""Fig. 9 classification against a plain-Python oracle.

The oracle walks the log in program order with a dict holding each
block's previous access, a direct transcription of the rules in
:mod:`repro.core.classify`.  ``classify_log`` labels and ``classify_result``
counts must equal it exactly for any log.

Classification sorts one packed int64 key per access: block id, program
position and payload (logical stage, write flag) side by side in 63 bits.
Block ids that fit the bits the position and payload leave are packed as
they are; wider ones are first replaced by their dense rank.  The
property tests draw peak block ids from one range per path, plus ids at
the exact boundary between them.  They run at least 100 examples each,
more under a larger Hypothesis profile (``--hypothesis-profile deep`` in
CI's differential job).

Registry logs pack their ids as they are: mst's copy run, the largest,
takes 45 of the 63 bits at the bench scale of 1/32 and 51 at 1/4 (18
block, 24 position and 9 payload bits), the scale at which the registry
check also classifies it.  There ``classify_log`` must agree with
``classify_result`` as well.  Like
``tests/test_engine_equivalence.py``, the registry check runs its
8-benchmark sample locally and the whole 46x2 matrix with
``REPRO_EQUIVALENCE_FULL=1``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterator, List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.core import classify
from repro.core.classify import (
    _CLASS_OF_CODE,
    AccessClass,
    classify_log,
    classify_result,
)
from repro.experiments.parallel import COPY, LIMITED, _simulate_version, _system_for
from repro.sim.engine import SimOptions
from repro.sim.results import SimResult
from repro.workloads.registry import simulatable_specs

from tests.conftest import TINY_SCALE
from tests.test_engine_equivalence import ALL_NAMES, RUN_FULL_MATRIX, SAMPLED_BENCHMARKS

#: Rows of the program-order walk converted to Python objects at a time, so
#: the oracle's memory stays flat on multi-million-access logs.
_CHUNK = 1 << 16


def _program_order(
    blocks: np.ndarray, is_write: np.ndarray, stages: np.ndarray
) -> Iterator[Tuple[int, int, bool, int]]:
    for lo in range(0, len(blocks), _CHUNK):
        hi = lo + _CHUNK
        yield from zip(
            range(lo, min(hi, len(blocks))),
            blocks[lo:hi].tolist(),
            is_write[lo:hi].tolist(),
            stages[lo:hi].tolist(),
        )


def reference_labels(
    blocks: np.ndarray, is_write: np.ndarray, stages: np.ndarray
) -> List[AccessClass]:
    """Fig. 9 labels from a dict holding each block's previous access."""
    labels = [AccessClass.REQUIRED] * len(blocks)
    previous = {}
    for i, block, write, stage in _program_order(blocks, is_write, stages):
        if not write and block in previous:
            j, prev_write, prev_stage = previous[block]
            distance = stage - prev_stage
            if distance == 0 and prev_write:
                # The writeback's next access is this read: both are W-R.
                labels[i] = labels[j] = AccessClass.WR_CONTENTION
            elif distance == 1 and prev_write:
                labels[i] = labels[j] = AccessClass.WR_SPILL
            elif distance == 0:
                labels[i] = AccessClass.RR_CONTENTION
            elif distance == 1:
                labels[i] = AccessClass.RR_SPILL
        previous[block] = (i, write, stage)
    return labels


def reference_counts(labels: List[AccessClass]) -> dict:
    tallies = Counter(labels)
    return {cls: tallies[cls] for cls in AccessClass}


def result_of(
    blocks: np.ndarray, is_write: np.ndarray, stages: np.ndarray
) -> SimResult:
    """A SimResult carrying the log, one stage ordinal per distinct stage."""
    logical, ordinal = np.unique(stages, return_inverse=True)
    return SimResult(
        pipeline_name="oracle",
        system_kind="discrete",
        roi_s=0.0,
        stages=(),
        busy={},
        launch_intervals=[],
        line_bytes=64,
        log_blocks=blocks,
        log_is_write=is_write,
        log_stage=ordinal.astype(np.int32),
        logical_of_ordinal=logical.astype(np.int32),
    )


@contextmanager
def spy_on_rank() -> Iterator[mock.MagicMock]:
    """Record whether classification replaced the block ids by their rank."""
    with mock.patch.object(
        classify, "_dense_rank", wraps=classify._dense_rank
    ) as rank:
        yield rank


def assert_matches_reference(blocks, is_write, stages) -> None:
    expected = reference_labels(blocks, is_write, stages)
    labels = classify_log(blocks, is_write, stages)
    assert labels.dtype == np.int8
    assert [_CLASS_OF_CODE[code] for code in labels.tolist()] == expected
    counts = classify_result(result_of(blocks, is_write, stages)).counts
    assert counts == reference_counts(expected)


# --- property tests: one id range per packed-key path ----------------------

#: Test logs hold at most 120 accesses (7 position bits) over at most 241
#: logical stages (9 payload bits), so peak ids below 2**47 always fit the
#: 63-bit key, and ids of 2**62 or more never fit beside the one position
#: bit and one payload bit of even the shortest log that is sorted.
BLOCK_ID_PATHS = {
    "packed": (0, 1 << 47),
    "rank-compressed": (1 << 62, 1 << 63),
}

#: Examples per property test: 100, or the loaded profile's count when
#: that is larger.
EXAMPLES = max(100, settings().max_examples)


@st.composite
def logs(draw, lo: int, hi: int, monotone: bool):
    """A log whose peak block id lies in ``[lo, hi)``.

    Blocks come from a small pool so that they recur; the pool mixes ids
    from the whole range below ``hi`` with one peak id of at least ``lo``.
    """
    peak = draw(st.integers(lo, hi - 1))
    pool = draw(st.lists(st.integers(0, peak), max_size=5)) + [peak]
    n = draw(st.integers(0, 120))
    blocks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if n:
        blocks[draw(st.integers(0, n - 1))] = peak
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if monotone:
        steps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        stages = np.cumsum(np.asarray(steps, dtype=np.int64))
    else:
        stages = np.asarray(draw(st.lists(st.integers(-2, 4), min_size=n, max_size=n)))
    return (
        np.asarray(blocks, dtype=np.int64),
        np.asarray(writes, dtype=bool),
        stages.astype(np.int32),
    )


@pytest.mark.parametrize("monotone", [True, False], ids=["monotone", "arbitrary"])
@pytest.mark.parametrize("path", list(BLOCK_ID_PATHS), ids=list(BLOCK_ID_PATHS))
@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_matches_reference(path, monotone, data):
    lo, hi = BLOCK_ID_PATHS[path]
    blocks, is_write, stages = data.draw(logs(lo, hi, monotone))
    if len(blocks):
        assert lo <= int(blocks.max()) < hi
    with spy_on_rank() as rank:
        assert_matches_reference(blocks, is_write, stages)
    assert rank.called == (path == "rank-compressed" and len(blocks) >= 2)


def key_budget(n: int, stages: np.ndarray) -> int:
    """Bits a peak block id may use: 63 less the position and payload bits."""
    span = int(stages.max()) - int(stages.min())
    return 63 - (n - 1).bit_length() - (span << 1 | 1).bit_length()


@pytest.mark.parametrize("monotone", [True, False], ids=["monotone", "arbitrary"])
@pytest.mark.parametrize("over", [False, True], ids=["exactly-63-bits", "64-bits"])
@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_ids_at_the_key_budget(over, monotone, data):
    small, is_write, stages = data.draw(logs(0, 8, monotone))
    assume(len(small) >= 2)
    # The peak id takes exactly the budget's bits, or one bit more.
    peak = (1 << key_budget(len(small), stages)) - 1 + over
    blocks = small + (peak - int(small.max()))
    with spy_on_rank() as rank:
        assert_matches_reference(blocks, is_write, stages)
    assert rank.called == over


@pytest.mark.parametrize("path", list(BLOCK_ID_PATHS), ids=list(BLOCK_ID_PATHS))
@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_single_access_logs(path, n):
    peak = BLOCK_ID_PATHS[path][0]
    for write in (False, True):
        assert_matches_reference(
            np.full(n, peak, dtype=np.int64),
            np.full(n, write, dtype=bool),
            np.zeros(n, dtype=np.int32),
        )


# --- every registry result ------------------------------------------------------

_SPECS = {spec.full_name: spec for spec in simulatable_specs()}
_DISCRETE = discrete_gpu_system()
_HETEROGENEOUS = heterogeneous_processor()

#: mst's logs at this scale are the largest checked: over 11 M accesses to
#: 174k blocks.
MST_SCALE = 1 / 4

FULL_ONLY = [
    pytest.mark.equivalence_full,
    pytest.mark.skip(reason="full 46x2 matrix runs with REPRO_EQUIVALENCE_FULL=1"),
]

REGISTRY = [
    pytest.param(
        name,
        version,
        TINY_SCALE,
        id=f"{name}-{version}",
        marks=[] if RUN_FULL_MATRIX or name in SAMPLED_BENCHMARKS else FULL_ONLY,
    )
    for name in ALL_NAMES
    for version in (COPY, LIMITED)
] + [
    pytest.param(
        "lonestar/mst",
        version,
        MST_SCALE,
        id=f"lonestar/mst-{version}-scale-1/4",
        marks=[] if RUN_FULL_MATRIX else FULL_ONLY,
    )
    for version in (COPY, LIMITED)
]


@pytest.mark.parametrize("name, version, scale", REGISTRY)
def test_registry_counts_match_reference(name, version, scale):
    system = _system_for(version, _DISCRETE, _HETEROGENEOUS)
    options = SimOptions(scale=scale, seed=7)
    result, _wall = _simulate_version(_SPECS[name], version, system, options)
    logical = result.logical_of_ordinal[result.log_stage]
    expected = reference_labels(result.log_blocks, result.log_is_write, logical)
    with spy_on_rank() as rank:
        counts = classify_result(result).counts
    assert not rank.called
    assert counts == reference_counts(expected)
    labels = classify_log(result.log_blocks, result.log_is_write, logical)
    tallies = np.bincount(labels, minlength=len(_CLASS_OF_CODE)).tolist()
    assert {_CLASS_OF_CODE[code]: n for code, n in enumerate(tallies)} == counts
