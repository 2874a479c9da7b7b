"""Fig. 9 classification against a plain-Python oracle.

The oracle walks the log in program order with a dict holding each
block's previous access, a direct transcription of the rules in
:mod:`repro.core.classify`.  ``classify_log`` labels and ``classify_result``
counts must equal it exactly for any log.

The property tests draw block ids from one range per path of
:func:`repro.sim.fastcache.stable_argsort_ids` (one 16-bit pass, two
passes, the generic sort).  At the test suite's scale every registry log
takes the single pass, so the registry check also classifies mst at scale
1/4, whose 174k-block address space takes the two-pass sort.  Like
``tests/test_engine_equivalence.py``, the registry check runs its 8-benchmark
sample locally and the whole 46x2 matrix with ``REPRO_EQUIVALENCE_FULL=1``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import discrete_gpu_system, heterogeneous_processor
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


def assert_matches_reference(blocks, is_write, stages) -> None:
    expected = reference_labels(blocks, is_write, stages)
    labels = classify_log(blocks, is_write, stages)
    assert labels.dtype == np.int8
    assert [_CLASS_OF_CODE[code] for code in labels.tolist()] == expected
    counts = classify_result(result_of(blocks, is_write, stages)).counts
    assert counts == reference_counts(expected)


# --- property tests: one id range per stable_argsort_ids path ---------------

ID_RANGES = {
    "one-16-bit-pass": (0, 1 << 16),
    "two-16-bit-passes": (1 << 16, 1 << 32),
    "generic-sort": (1 << 32, 1 << 63),
}


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
@pytest.mark.parametrize("id_range", list(ID_RANGES), ids=list(ID_RANGES))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_matches_reference(id_range, monotone, data):
    lo, hi = ID_RANGES[id_range]
    blocks, is_write, stages = data.draw(logs(lo, hi, monotone))
    if len(blocks):
        assert lo <= int(blocks.max()) < hi
    assert_matches_reference(blocks, is_write, stages)


@pytest.mark.parametrize("id_range", list(ID_RANGES), ids=list(ID_RANGES))
@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_single_access_logs(id_range, n):
    peak = ID_RANGES[id_range][0]
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

#: mst's block address space at this scale (174k blocks) is past 2**16.
TWO_PASS_SCALE = 1 / 4

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
        TWO_PASS_SCALE,
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
    if scale == TWO_PASS_SCALE:
        assert int(result.log_blocks.max()) >= 1 << 16
    logical = result.logical_of_ordinal[result.log_stage]
    expected = reference_labels(result.log_blocks, result.log_is_write, logical)
    assert classify_result(result).counts == reference_counts(expected)
