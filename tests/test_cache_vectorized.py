"""Hypothesis property tests: FastSetAssocCache == SetAssocCache.

Random block ranges, strides, and overlapping segments — plus interleaved
maintenance operations and coherent peer probes — must leave the
vectorized cache bit-identical to the reference on every observable: the
downstream stream (contents and order), the statistics counters, and the
full per-set LRU state including dirty bits, compared through both
implementations' public ``state_arrays`` snapshots.  Failures shrink to
minimal streams because everything is generated from plain Hypothesis
strategies.

The offline path is forced by patching ``SERIAL_CUTOFF`` to zero (and the
scan-budget/serial paths by patching their knobs), so short generated
streams still exercise the vectorized passes.  One seeded test (not
Hypothesis) runs long streams at the shapes perfbench times instead.

:func:`repro.sim.fastcache.downstream`, which rebuilds a call's downstream
from its misses and dirty victims, is also held to the whole-stream
prefix-sum formulation it replaced, kept here as its oracle.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.fastcache as fastcache
from repro.config.components import CacheConfig
from repro.sim.cache import SetAssocCache
from repro.sim.fastcache import FastSetAssocCache
from repro.sim.hierarchy import CacheSystem, Component
from repro.trace.stream import AccessStream

geometries = st.sampled_from(
    [(1, 1), (1, 4), (2, 2), (3, 2), (4, 4), (8, 2), (8, 16), (24, 4)]
)

#: One access segment: a strided range walk (stride 0 = one repeated
#: block), the building block of overlapping/reversed/sparse streams.
segments = st.tuples(
    st.integers(min_value=0, max_value=600),  # start block
    st.integers(min_value=-3, max_value=3),  # stride
    st.integers(min_value=1, max_value=40),  # count
    st.booleans(),  # is_write for the whole segment
)

streams = st.lists(segments, min_size=1, max_size=8)


def build_stream(segs) -> AccessStream:
    blocks = []
    writes = []
    for start, stride, count, is_write in segs:
        seg = start + stride * np.arange(count, dtype=np.int64)
        np.clip(seg, 0, None, out=seg)
        blocks.append(seg)
        writes.append(np.full(count, is_write, dtype=bool))
    return AccessStream(np.concatenate(blocks), np.concatenate(writes))


def cache_config(geometry) -> CacheConfig:
    num_sets, assoc = geometry
    return CacheConfig(
        capacity_bytes=num_sets * assoc * 128, associativity=assoc, line_bytes=128
    )


def make_pair(geometry):
    config = cache_config(geometry)
    return SetAssocCache(config), FastSetAssocCache(config)


def assert_same_state(ref: SetAssocCache, fast: FastSetAssocCache):
    """Both public snapshots agree byte for byte, dtypes included."""
    for ref_arr, fast_arr in zip(ref.state_arrays(), fast.state_arrays()):
        assert ref_arr.dtype == fast_arr.dtype
        assert ref_arr.tobytes() == fast_arr.tobytes()


def assert_equivalent(ref: SetAssocCache, fast: FastSetAssocCache, down_ref, down_fast):
    assert np.array_equal(down_ref.blocks, down_fast.blocks)
    assert np.array_equal(down_ref.is_write, down_fast.is_write)
    assert_same_state(ref, fast)
    assert vars(ref.stats) == vars(fast.stats)


@contextmanager
def forced(cutoff=None, budget=None, windows=None):
    """Temporarily re-point the fast path's tuning knobs."""
    saved = (
        fastcache.SERIAL_CUTOFF,
        fastcache._RESIDUE_BUDGET_FACTOR,
        fastcache._WINDOW_SMALL,
        fastcache._WINDOW_MEDIUM,
        fastcache._WINDOW_LARGE,
    )
    try:
        if cutoff is not None:
            fastcache.SERIAL_CUTOFF = cutoff
        if budget is not None:
            fastcache._RESIDUE_BUDGET_FACTOR = budget
        if windows is not None:
            small, large = windows
            fastcache._WINDOW_SMALL = small
            fastcache._WINDOW_MEDIUM = small
            fastcache._WINDOW_LARGE = large
        yield
    finally:
        (
            fastcache.SERIAL_CUTOFF,
            fastcache._RESIDUE_BUDGET_FACTOR,
            fastcache._WINDOW_SMALL,
            fastcache._WINDOW_MEDIUM,
            fastcache._WINDOW_LARGE,
        ) = saved


@given(segs=streams, geometry=geometries)
@settings(max_examples=120, deadline=None)
def test_offline_path_matches_reference(segs, geometry):
    """Vectorized whole-stream accounting == per-block reference loop."""
    ref, fast = make_pair(geometry)
    stream = build_stream(segs)
    with forced(cutoff=0):
        assert_equivalent(
            ref, fast, ref.access_stream(stream), fast.access_stream(stream)
        )


@given(segs=streams, geometry=geometries)
@settings(max_examples=60, deadline=None)
def test_narrow_windows_and_residue_scan_match(segs, geometry):
    """Tiny scan windows force the chunked backward residue loop."""
    ref, fast = make_pair(geometry)
    stream = build_stream(segs)
    with forced(cutoff=0, windows=(2, 3)):
        assert_equivalent(
            ref, fast, ref.access_stream(stream), fast.access_stream(stream)
        )


@given(segs=streams, geometry=geometries)
@settings(max_examples=60, deadline=None)
def test_budget_blowout_serial_fallback_matches(segs, geometry):
    """An exhausted scan budget must fall back with no state corruption."""
    ref, fast = make_pair(geometry)
    stream = build_stream(segs)
    with forced(cutoff=0, budget=-(10**9), windows=(1, 2)):
        assert_equivalent(
            ref, fast, ref.access_stream(stream), fast.access_stream(stream)
        )


@given(
    segs=st.lists(segments, min_size=2, max_size=6),
    geometry=geometries,
    cutoff=st.sampled_from([0, None]),
)
@settings(max_examples=60, deadline=None)
def test_multi_call_state_carries_over(segs, geometry, cutoff):
    """Residency carried between calls stays identical call after call,
    through the offline passes and through the short-stream loop, which
    unpacks only the sets a stream maps to."""
    ref, fast = make_pair(geometry)
    with forced(cutoff=cutoff):
        for seg in segs:
            stream = build_stream([seg])
            assert_equivalent(
                ref, fast, ref.access_stream(stream), fast.access_stream(stream)
            )


@given(
    segs=st.lists(segments, min_size=1, max_size=4),
    geometry=geometries,
    ops=st.lists(
        st.tuples(
            st.sampled_from(["drain", "flush", "invalidate", "extract"]),
            st.lists(
                st.integers(min_value=0, max_value=600), min_size=1, max_size=30
            ),
        ),
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_maintenance_ops_interleaved(segs, geometry, ops):
    """drain/flush/invalidate/extract agree mid-stream with the reference."""
    ref, fast = make_pair(geometry)
    with forced(cutoff=0):
        for seg in segs:
            stream = build_stream([seg])
            assert_equivalent(
                ref, fast, ref.access_stream(stream), fast.access_stream(stream)
            )
            for op, arg in ops:
                if op == "drain":
                    assert ref.drain() == fast.drain()
                elif op == "flush":
                    assert ref.flush(arg) == fast.flush(arg)
                elif op == "invalidate":
                    assert ref.invalidate(arg) == fast.invalidate(arg)
                else:
                    for block in arg[:5]:
                        assert ref.extract(block) == fast.extract(block)
                assert_same_state(ref, fast)


@given(segs=streams, geometry=geometries)
@settings(max_examples=60, deadline=None)
def test_serial_short_stream_path_matches(segs, geometry):
    """Below SERIAL_CUTOFF the tuned OrderedDict loop must agree too."""
    ref, fast = make_pair(geometry)
    stream = build_stream(segs)
    assert fastcache.SERIAL_CUTOFF > 0  # default path selection
    assert_equivalent(
        ref, fast, ref.access_stream(stream), fast.access_stream(stream)
    )


def test_wide_block_ids_use_int64_path():
    """Block ids above 2**31 still process correctly (no int32 narrowing)."""
    ref, fast = make_pair((4, 2))
    blocks = np.array([1 << 33, (1 << 33) + 4, 1 << 33, 7, 11, 7], dtype=np.int64)
    writes = np.array([True, False, False, True, False, False], dtype=bool)
    stream = AccessStream(blocks, writes)
    with forced(cutoff=0):
        assert_equivalent(
            ref, fast, ref.access_stream(stream), fast.access_stream(stream)
        )


def benchmark_shaped_stream(rng, n: int, base: int) -> AccessStream:
    """``n`` accesses at ids ``base`` and up, shaped like a GPU stage stream.

    Each access comes from a cyclic sweep over 1536 lines (larger than
    either cache), a hot set of 40 lines or 24000 random lines, so reuse
    gaps range from a few rows to thousands; about 30% are writes.
    """
    source = rng.choice(3, size=n, p=[0.5, 0.2, 0.3])
    sweep = np.cumsum(source == 0) % 1536
    hot = 30000 + rng.integers(0, 40, size=n)
    scattered = 2000 + rng.integers(0, 24000, size=n)
    blocks = base + np.choose(source, [sweep, hot, scattered])
    return AccessStream(blocks.astype(np.int64), rng.random(n) < 0.3)


@pytest.mark.parametrize("base", [0, 3 << 20], ids=["ids-below-2^16", "ids-above-2^16"])
@pytest.mark.parametrize("geometry", [(32, 4), (16, 16)], ids=["gpu-l1", "gpu-l2"])
def test_benchmark_shaped_calls_match_reference(geometry, base, monkeypatch):
    """Three long calls with carried state, at the shapes perfbench runs.

    The GPU L1 and L2 geometries of scale 1/32; each call is longer than
    32767 rows, where the window scan stops narrowing positions to int16,
    and the ids take one 16-bit radix pass, or two above 2**16.  Every
    call must take the offline path, not the serial fallback.
    """
    offline = FastSetAssocCache._process_offline
    results = []

    def spy(self, blocks, is_write):
        results.append(offline(self, blocks, is_write))
        return results[-1]

    monkeypatch.setattr(FastSetAssocCache, "_process_offline", spy)
    rng = np.random.default_rng(20151019 + geometry[0] + base)
    ref, fast = make_pair(geometry)
    for n in (33000, 34500, 36962):
        stream = benchmark_shaped_stream(rng, n, base)
        down_ref, down_fast = ref.access_stream(stream), fast.access_stream(stream)
        for field in ("blocks", "is_write"):
            arr_ref, arr_fast = getattr(down_ref, field), getattr(down_fast, field)
            assert arr_ref.dtype == arr_fast.dtype
            assert arr_ref.tobytes() == arr_fast.tobytes()
        assert_same_state(ref, fast)
        assert vars(ref.stats) == vars(fast.stats)
    assert len(results) == 3 and all(out is not None for out in results)


@given(
    stages=st.lists(
        st.tuples(st.sampled_from([Component.CPU, Component.GPU]), streams),
        min_size=1,
        max_size=5,
    ),
    l1=st.sampled_from([(1, 2), (2, 2), (4, 1)]),
    l2=st.sampled_from([(2, 4), (4, 4), (8, 2)]),
    cutoff=st.sampled_from([0, None]),
)
@settings(max_examples=60, deadline=None)
def test_coherent_peer_probes_match(stages, l1, l2, cutoff):
    """Coherent probes migrate the same lines out of the peer.

    The fast hierarchy extracts every migrated line from the peer's L1
    and L2 in one bulk operation; the reference extracts them one read at
    a time.  Results, off-chip logs and all four caches must agree.
    """
    ref, fast = (
        CacheSystem(
            cache_config(l1),
            cache_config(l2),
            cache_config(l1),
            cache_config(l2),
            coherent=True,
            impl=impl,
        )
        for impl in ("reference", "fast")
    )
    with forced(cutoff=cutoff):
        for ordinal, (component, segs) in enumerate(stages):
            stream = build_stream(segs)
            got_ref = ref.process_compute(stream, ordinal, component)
            got_fast = fast.process_compute(stream, ordinal, component)
            assert got_ref.requests == got_fast.requests
            assert got_ref.offchip_reads == got_fast.offchip_reads
            assert got_ref.offchip_writes == got_fast.offchip_writes
            assert got_ref.onchip_transfers == got_fast.onchip_transfers
            for domain_ref, domain_fast in ((ref.cpu, fast.cpu), (ref.gpu, fast.gpu)):
                for level in ("l1", "l2"):
                    cache_ref = getattr(domain_ref, level)
                    cache_fast = getattr(domain_fast, level)
                    assert_same_state(cache_ref, cache_fast)
                    assert vars(cache_ref.stats) == vars(cache_fast.stats)
    for arr_ref, arr_fast in zip(ref.log.arrays(), fast.log.arrays()):
        assert np.array_equal(arr_ref, arr_fast)


@pytest.mark.parametrize("cutoff", [0, None])
def test_snapshots_are_read_only(cutoff):
    """The snapshot is the cache's own state: writing into it must fail,
    and later changes replace the arrays instead of writing into them."""
    ref, fast = make_pair((4, 2))
    stream = build_stream([(0, 1, 40, True), (3, 2, 20, False)])
    with forced(cutoff=cutoff):
        fast.access_stream(stream)
    snapshot = fast.state_arrays()
    saved = [arr.copy() for arr in snapshot]
    for arr in snapshot:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = arr
    with forced(cutoff=cutoff):
        fast.access_stream(build_stream([(100, 1, 30, True)]))
    fast.flush([0, 1, 2, 3])
    fast.invalidate(range(100, 110))
    fast.extract(129)
    fast.drain()
    for before, arr in zip(saved, snapshot):
        assert before.tobytes() == arr.tobytes()

    # A restored snapshot from the reference is adopted read-only too.
    ref.access_stream(stream)
    fast.restore_state(ref.state_arrays())
    assert_same_state(ref, fast)
    assert not any(arr.flags.writeable for arr in fast.state_arrays())


# --- downstream assembly against the prefix-sum formulation ------------------


def prefix_sum_downstream(blocks, miss, wb_pos, wb_block) -> AccessStream:
    """Each stream position's output offset from one cumulative sum of its
    fill and writeback counts, scattered into place."""
    if not len(wb_pos):
        out_b = blocks[miss]
        return AccessStream(out_b, np.zeros(len(out_b), dtype=bool))
    counts = miss.astype(np.int8)
    counts[wb_pos] += 1
    offsets = np.cumsum(counts, dtype=np.int32)
    total = int(offsets[-1])
    offsets -= counts
    out_b = np.empty(total, dtype=np.int64)
    out_w = np.zeros(total, dtype=bool)
    out_b[offsets[miss]] = blocks[miss]
    wb_at = offsets[wb_pos] + 1
    out_b[wb_at] = wb_block
    out_w[wb_at] = True
    return AccessStream(out_b, out_w)


@st.composite
def miss_records(draw):
    """What one ``access_misses`` call returns: a stream, its miss mask, and
    the sorted miss positions that evicted a dirty line, with the lines."""
    n = draw(st.integers(0, 60))
    ids = st.lists(st.integers(0, 1 << 40), min_size=n, max_size=n)
    blocks = np.asarray(draw(ids), dtype=np.int64)
    miss = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    misses = np.flatnonzero(miss)
    evicts = draw(st.lists(st.booleans(), min_size=len(misses), max_size=len(misses)))
    wb_pos = misses[np.asarray(evicts, dtype=bool)].astype(np.int64)
    victims = st.lists(st.integers(0, 1 << 40), min_size=len(wb_pos), max_size=len(wb_pos))
    return blocks, miss, wb_pos, np.asarray(draw(victims), dtype=np.int64)


@given(record=miss_records())
@settings(max_examples=120, deadline=None)
def test_downstream_matches_prefix_sum_formulation(record):
    got = fastcache.downstream(*record)
    want = prefix_sum_downstream(*record)
    for ours, oracle in ((got.blocks, want.blocks), (got.is_write, want.is_write)):
        assert ours.dtype == oracle.dtype
        assert np.array_equal(ours, oracle)
