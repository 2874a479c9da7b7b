"""Tests for repro.trace.stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.stream import AccessStream, concatenate, interleave, sorted_unique

_int64 = st.integers(-(2**63), 2**63 - 1)
#: Empty, single, arbitrary, already-sorted and duplicate-heavy id lists.
_id_lists = st.one_of(
    st.just([]),
    st.lists(_int64, min_size=1, max_size=1),
    st.lists(_int64, max_size=64),
    st.lists(st.integers(-1000, 1000), max_size=64).map(sorted),
    st.lists(st.integers(0, 3), min_size=2, max_size=200),
)


class TestAccessStream:
    def test_of_builds_read_stream(self):
        stream = AccessStream.of([1, 2, 3])
        assert len(stream) == 3
        assert stream.num_reads == 3
        assert stream.num_writes == 0

    def test_of_builds_write_stream(self):
        stream = AccessStream.of([1, 2], is_write=True)
        assert stream.num_writes == 2

    def test_unique_blocks(self):
        stream = AccessStream.of([5, 1, 5, 2])
        assert list(stream.unique_blocks()) == [1, 2, 5]

    @given(ids=_id_lists)
    @settings(max_examples=200, deadline=None)
    def test_unique_blocks_match_np_unique(self, ids):
        arr = np.asarray(ids, dtype=np.int64)
        expected = np.unique(arr)
        for got in (sorted_unique(arr), AccessStream.of(ids).unique_blocks()):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert not np.shares_memory(got, arr)

    def test_empty(self):
        stream = AccessStream.empty()
        assert len(stream) == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical shapes"):
            AccessStream(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool))

    def test_multidim_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            AccessStream(
                np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=bool)
            )


class TestConcatenate:
    def test_joins_in_order(self):
        merged = concatenate(
            [AccessStream.of([1, 2]), AccessStream.of([3], is_write=True)]
        )
        assert list(merged.blocks) == [1, 2, 3]
        assert list(merged.is_write) == [False, False, True]

    def test_skips_empties(self):
        merged = concatenate([AccessStream.empty(), AccessStream.of([1])])
        assert len(merged) == 1

    def test_all_empty(self):
        assert len(concatenate([AccessStream.empty()])) == 0


class TestInterleave:
    def test_preserves_multiset(self):
        a = AccessStream.of(list(range(100)))
        b = AccessStream.of(list(range(100, 110)), is_write=True)
        merged = interleave([a, b])
        assert len(merged) == 110
        assert sorted(merged.blocks) == sorted(list(a.blocks) + list(b.blocks))

    def test_preserves_per_stream_order(self):
        a = AccessStream.of([10, 20, 30, 40])
        b = AccessStream.of([1, 2], is_write=True)
        merged = interleave([a, b])
        a_positions = [i for i, w in enumerate(merged.is_write) if not w]
        assert list(merged.blocks[a_positions]) == [10, 20, 30, 40]

    def test_proportional_mixing(self):
        # A 1000-access stream and a 10-access stream should interleave
        # roughly evenly: the small stream's accesses should not cluster.
        a = AccessStream.of(list(range(1000)))
        b = AccessStream.of(list(range(5000, 5010)), is_write=True)
        merged = interleave([a, b])
        write_positions = np.flatnonzero(merged.is_write)
        gaps = np.diff(write_positions)
        assert gaps.max() < 300  # evenly spread, not clumped at one end
        assert write_positions[0] < 200

    def test_single_stream_identity(self):
        a = AccessStream.of([1, 2, 3])
        assert interleave([a]) is a

    def test_empty_input(self):
        assert len(interleave([])) == 0
