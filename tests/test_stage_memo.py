"""Stage-level memoization (:mod:`repro.sim.memo`): bit-exactness first.

The memo's whole license to exist is that replaying a recorded memory
step is indistinguishable — down to the serialized v2-full bytes — from
recomputing it.  The property test here drives that from arbitrary
interleavings of runs (and therefore arbitrary hit/miss patterns against
the shared process-wide memo), page-fault configurations and GPU L2
sizes; the env-gated differentials (``REPRO_MEMO_DIFFERENTIAL=1``, run by
the CI ``differential`` job) pin an 8-benchmark memo-on/off matrix and
the five ablation studies' rows.  The rest covers the key's
:data:`~repro.sim.engine.ENGINE_VERSION` invalidation (shared with the
persistent :mod:`repro.sim.resultcache`), per-level sharing (a GPU L2
change replays the GPU L1 steps, a page-fault change every cache step),
sharing entries across fault timings and cache implementations, snapshot
immutability, the option plumbing, hit counts that repeat after a clear,
and the bounded-memory wholesale clear.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.components import CacheConfig
from repro.config.system import (
    PageFaultConfig,
    discrete_gpu_system,
    heterogeneous_processor,
)
from repro.experiments import ablations
from repro.experiments.parallel import COPY, LIMITED, _simulate_version, _system_for
from repro.sim import engine as engine_mod
from repro.sim.engine import SimOptions
from repro.sim.fastcache import FastSetAssocCache
from repro.sim.hierarchy import CacheSystem, Component
from repro.sim.memo import (
    MemoStats,
    StageEntry,
    StageMemo,
    clear_shared_stage_memo,
    shared_stage_memo,
    stage_memo_snapshot,
)
from repro.sim.resultcache import cache_key
from repro.sim.serialize import result_to_full_dict
from repro.trace.stream import AccessStream
from repro.units import MICROSECONDS
from repro.workloads.registry import get

from tests.conftest import TINY_SCALE

_DISCRETE = discrete_gpu_system()
_HETEROGENEOUS = heterogeneous_processor()

#: Pattern-diverse pool of the property test: an iterated offload loop
#: (kmeans), a stencil (srad), an RNG-seeded graph (bfs), a histogram
#: (histo).
POOL = ("rodinia/kmeans", "rodinia/srad", "lonestar/bfs", "parboil/histo")

#: The CI memo-on/off differential matrix (mirrors the equivalence sample).
DIFFERENTIAL_BENCHMARKS = (
    "rodinia/kmeans",
    "lonestar/bfs",
    "rodinia/srad",
    "parboil/histo",
    "lonestar/mst",
    "pannotia/pr",
    "parboil/spmv",
    "rodinia/backprop",
)

RUN_MEMO_DIFFERENTIAL = bool(os.environ.get("REPRO_MEMO_DIFFERENTIAL"))

_DEFAULT_FAULTS = PageFaultConfig()

#: Page-fault configurations of the heterogeneous system: the default,
#: other timings (which share stage-memo entries with it), fault handling
#: off, and a different page size.
FAULT_CONFIGS = (
    _DEFAULT_FAULTS,
    PageFaultConfig(service_latency_s=1 * MICROSECONDS),
    PageFaultConfig(service_latency_s=20 * MICROSECONDS),
    PageFaultConfig(hidden_parallelism=2.0, serialization_penalty=7.0),
    PageFaultConfig(enabled=False),
    PageFaultConfig(page_bytes=8192),
)


#: GPU L2 capacity factors of the property test (cache_size_sweep's kind
#: of change), whose runs share every step but the GPU L2's.
GPU_L2_SCALES = (0.5, 1.0, 2.0)


def _options(stage_memo: str, impl: str = "fast") -> SimOptions:
    return SimOptions(
        scale=TINY_SCALE, seed=7, engine_impl=impl, stage_memo=stage_memo
    )


def _run(
    name: str,
    version: str,
    stage_memo: str,
    impl: str = "fast",
    faults: PageFaultConfig = _DEFAULT_FAULTS,
    l2_scale: float = 1.0,
):
    heterogeneous = (
        _HETEROGENEOUS
        if faults == _DEFAULT_FAULTS
        else heterogeneous_processor(page_faults=faults)
    )
    system = _system_for(version, _DISCRETE, heterogeneous)
    if l2_scale != 1.0:
        gpu = replace(system.gpu, l2=system.gpu.l2.scaled(l2_scale))
        system = replace(system, gpu=gpu)
    result, _wall = _simulate_version(
        get(name), version, system, _options(stage_memo, impl)
    )
    return result


def _payload_bytes(result) -> bytes:
    return json.dumps(result_to_full_dict(result), sort_keys=True).encode()


@lru_cache(maxsize=None)
def _memo_off_bytes(
    name: str,
    version: str,
    faults: PageFaultConfig = _DEFAULT_FAULTS,
    l2_scale: float = 1.0,
) -> bytes:
    """The ground truth: this run simulated without the memo."""
    return _payload_bytes(
        _run(name, version, "off", faults=faults, l2_scale=l2_scale)
    )


@pytest.fixture
def kernel_runs(monkeypatch):
    """Counter of fast-cache kernel runs (offline or serial) per cache name."""
    runs: Counter = Counter()
    for attr in ("_process_offline", "_process_serial"):
        kernel = getattr(FastSetAssocCache, attr)

        def counted(self, *args, _kernel=kernel):
            runs[self.name] += 1
            return _kernel(self, *args)

        monkeypatch.setattr(FastSetAssocCache, attr, counted)
    return runs


# -- bit-exactness ----------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(POOL),
            st.sampled_from((COPY, LIMITED)),
            st.sampled_from(FAULT_CONFIGS),
            st.sampled_from(GPU_L2_SCALES),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_any_interleaving_matches_memo_off(sequence):
    """Every run of any interleaving serializes to the memo-off bytes.

    The shared memo is deliberately *not* cleared between examples: each
    run executes against whatever entries previous examples left behind,
    so the hit/miss pattern varies arbitrarily — which is exactly the
    claim under test, that memo state can never leak into results.  Runs
    differing only in fault timing replay each other's entries, so their
    fault service time must still come out of their own configuration;
    runs differing in GPU L2 size replay each other's L1 steps.
    """
    for name, version, faults, l2_scale in sequence:
        got = _payload_bytes(
            _run(name, version, "on", faults=faults, l2_scale=l2_scale)
        )
        assert got == _memo_off_bytes(name, version, faults, l2_scale), (
            name,
            version,
            faults,
            l2_scale,
        )


def test_gpu_l2_change_replays_gpu_l1_steps(kernel_runs):
    """A run at twice the GPU L2 runs no GPU L1 kernel after the run at
    the stock size: each GPU L1 step keys on the L1's own config, state
    and stream, none of which the L2 size changes."""
    clear_shared_stage_memo()
    first = _run("rodinia/kmeans", COPY, "on")
    assert kernel_runs["gpu.l1"] > 0
    kernel_runs.clear()
    second = _run("rodinia/kmeans", COPY, "on", l2_scale=2.0)
    assert kernel_runs["gpu.l1"] == 0
    assert kernel_runs["gpu.l2"] > 0, "the larger L2 must simulate its own steps"
    assert _payload_bytes(first) == _memo_off_bytes("rodinia/kmeans", COPY)
    assert _payload_bytes(second) == _memo_off_bytes(
        "rodinia/kmeans", COPY, l2_scale=2.0
    )


def test_fault_handling_change_replays_every_cache_step(kernel_runs):
    """Turning CPU-handled page faults on changes the page-table steps
    only: the run with faults runs no GPU kernel at either level after
    the run without them."""
    no_faults = PageFaultConfig(enabled=False)
    clear_shared_stage_memo()
    first = _run("rodinia/srad", LIMITED, "on", faults=no_faults)
    assert kernel_runs["gpu.l1"] > 0
    kernel_runs.clear()
    second = _run("rodinia/srad", LIMITED, "on")
    assert kernel_runs["gpu.l1"] == kernel_runs["gpu.l2"] == 0
    assert second.roi_s > first.roi_s, "the faults must still cost time"
    assert _payload_bytes(first) == _memo_off_bytes(
        "rodinia/srad", LIMITED, no_faults
    )
    assert _payload_bytes(second) == _memo_off_bytes("rodinia/srad", LIMITED)


def test_fault_timing_shares_entries():
    """A second fault latency replays every stage of the first run's
    entries (the key holds fault behaviour, not timing), and still yields
    its own memo-off bytes."""
    quick = PageFaultConfig(service_latency_s=2 * MICROSECONDS)
    slow = PageFaultConfig(service_latency_s=10 * MICROSECONDS)
    clear_shared_stage_memo()
    memo = shared_stage_memo()
    first = _run("rodinia/srad", LIMITED, "on", faults=quick)
    before = memo.stats.snapshot()
    second = _run("rodinia/srad", LIMITED, "on", faults=slow)
    after = memo.stats.snapshot()
    assert after[1] == before[1], "no stage may miss"
    assert after[0] > before[0]
    assert second.roi_s > first.roi_s, "fault time must follow the config"
    assert _payload_bytes(second) == _memo_off_bytes("rodinia/srad", LIMITED, slow)


@pytest.mark.skipif(
    not RUN_MEMO_DIFFERENTIAL,
    reason="8-benchmark memo differential runs with REPRO_MEMO_DIFFERENTIAL=1",
)
@pytest.mark.parametrize(
    "name, version",
    [
        pytest.param(name, version, id=f"{name}-{version}")
        for name in DIFFERENTIAL_BENCHMARKS
        for version in (COPY, LIMITED)
    ],
)
def test_memo_differential(name, version):
    """Memo-on equals memo-off byte-for-byte, cold and warm."""
    expected = _memo_off_bytes(name, version)
    clear_shared_stage_memo()
    assert _payload_bytes(_run(name, version, "on")) == expected  # recording
    assert _payload_bytes(_run(name, version, "on")) == expected  # replaying


def _small_system(memo, impl: str = "fast") -> CacheSystem:
    def config(lines: int, assoc: int) -> CacheConfig:
        return CacheConfig(lines * 128, line_bytes=128, associativity=assoc)

    return CacheSystem(
        cpu_l1=config(4, 2),
        cpu_l2=config(16, 4),
        gpu_l1=config(4, 2),
        gpu_l2=config(16, 4),
        coherent=True,
        impl=impl,
        memo=memo,
    )


def _outcome(system: CacheSystem, mem) -> tuple:
    """Everything a compute step leaves behind, as comparable bytes."""
    caches = (system.cpu.l1, system.cpu.l2, system.gpu.l1, system.gpu.l2)
    return (
        (mem.requests, mem.offchip_reads, mem.offchip_writes, mem.onchip_transfers),
        mem.offchip_blocks.tobytes(),
        [arr.tobytes() for arr in system.log.arrays()],
        [arr.tobytes() for cache in caches for arr in cache.state_arrays()],
        [vars(cache.stats) for cache in caches],
    )


@pytest.mark.parametrize("impl", ["fast", "reference"])
@pytest.mark.parametrize("warmed", ["gpu.l1", "gpu.l2", "cpu.l1", "cpu.l2"])
def test_cache_steps_key_on_every_state_they_read(warmed, impl):
    """A GPU stage recorded on cold caches, then run again with one cache
    warmed, gives the memo-off outcome of the warmed run: the L1 and L2
    steps key on their own states, the probe on both peer states."""
    # Starts on lines the warming leaves resident in every cache.
    blocks = np.concatenate([[20, 21, 22, 23, 8, 9, 10, 11], np.arange(40)])
    stream = AccessStream(blocks, np.arange(len(blocks)) % 5 == 0)
    warm = AccessStream.of(range(8, 24))
    memo = StageMemo()
    cold = _small_system(memo, impl)
    cold_mem = cold.process_compute(stream, 0, Component.GPU, ("stream",))
    got, want = _small_system(memo, impl), _small_system(None, impl)
    domain, level = warmed.split(".")
    for system in (got, want):
        getattr(getattr(system, domain), level).access_stream(warm)
    hits_before = memo.stats.hits
    outcomes = [
        _outcome(system, system.process_compute(stream, 0, Component.GPU, ("stream",)))
        for system in (got, want)
    ]
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][:4] != _outcome(cold, cold_mem)[:4], "the warming must matter"
    if warmed.startswith("cpu"):
        assert memo.stats.hits > hits_before, "the GPU's own levels replay"


#: Benchmarks and studies of the ablation differential (perfbench's
#: ``design_space`` workload).
ABLATION_BENCHMARKS = ("rodinia/kmeans", "rodinia/srad", "lonestar/bfs")
ABLATION_STUDIES = (
    "cache_size_sweep",
    "pagefault_sweep",
    "pcie_sweep",
    "alignment_ablation",
    "dynamic_parallelism_sweep",
)


@pytest.mark.skipif(
    not RUN_MEMO_DIFFERENTIAL,
    reason="ablation memo differential runs with REPRO_MEMO_DIFFERENTIAL=1",
)
def test_ablation_studies_memo_differential():
    """The five ablation studies give identical rows with the memo on and
    off.  The memo-on runs share one memo, cleared once, so each study
    replays the steps every earlier one recorded."""

    def rows(stage_memo: str) -> list:
        options = SimOptions(scale=1 / 32, seed=1, stage_memo=stage_memo)
        return [
            getattr(ablations, study)(benchmark=name, options=options)
            for name in ABLATION_BENCHMARKS
            for study in ABLATION_STUDIES
        ]

    clear_shared_stage_memo()
    assert rows("on") == rows("off")


# -- ENGINE_VERSION invalidation (shared with the persistent cache) ---------


def test_engine_version_bump_invalidates_memo_and_resultcache(monkeypatch):
    """Bumping ENGINE_VERSION rotates both the stage-memo keys and the
    persistent result-cache keys — one tag invalidates every recorded
    artifact at once."""
    clear_shared_stage_memo()
    memo = shared_stage_memo()
    start = memo.stats.snapshot()
    _run("rodinia/kmeans", COPY, "on")
    before = memo.stats.snapshot()
    # An iterated pipeline self-hits even on a cold run (its stages reach
    # a cache-state fixed point); what makes it *cold* is the misses.
    cold_profile = (before[0] - start[0], before[1] - start[1])
    assert cold_profile[1] > 0
    _run("rodinia/kmeans", COPY, "on")
    after = memo.stats.snapshot()
    assert after[0] > before[0], "warm identical run must hit"
    assert after[1] == before[1], "warm identical run must not miss"

    spec = get("rodinia/kmeans")
    key_now = cache_key(spec, COPY, _DISCRETE, _options("on"))
    monkeypatch.setattr(engine_mod, "ENGINE_VERSION", "repro-sim/test-bump")
    mid = memo.stats.snapshot()
    result = _run("rodinia/kmeans", COPY, "on")
    bumped = memo.stats.snapshot()
    # Every pre-bump entry is unreachable: the run re-records from scratch,
    # reproducing the cold run's exact hit/miss profile.
    assert (bumped[0] - mid[0], bumped[1] - mid[1]) == cold_profile
    assert _payload_bytes(result) == _memo_off_bytes("rodinia/kmeans", COPY)
    key_bumped = cache_key(
        spec, COPY, _DISCRETE, _options("on"), engine_version="repro-sim/test-bump"
    )
    assert key_bumped != key_now


# -- option plumbing and key sharing ----------------------------------------


def test_cache_key_ignores_stage_memo():
    """Memo-on and memo-off runs share persistent cache entries, like the
    two engine implementations do."""
    spec = get("rodinia/kmeans")
    base = cache_key(spec, COPY, _DISCRETE, _options("on"))
    for mode in ("off", "auto"):
        assert cache_key(spec, COPY, _DISCRETE, _options(mode)) == base


def test_invalid_stage_memo_rejected():
    with pytest.raises(ValueError, match="stage_memo"):
        _run("rodinia/kmeans", COPY, "sometimes")


def test_auto_enables_memo_only_on_fast():
    clear_shared_stage_memo()
    before = stage_memo_snapshot()
    _run("rodinia/kmeans", COPY, "auto", impl="reference")
    assert stage_memo_snapshot() == before, "auto+reference must not memoize"
    _run("rodinia/kmeans", COPY, "auto", impl="fast")
    assert stage_memo_snapshot() != before, "auto+fast must memoize"


def test_off_disables_memo_on_fast():
    clear_shared_stage_memo()
    before = stage_memo_snapshot()
    _run("rodinia/kmeans", COPY, "off", impl="fast")
    assert stage_memo_snapshot() == before


def test_reference_run_replays_fast_recorded_entries():
    """Entries are impl-independent: a reference run warm-hits a memo
    populated entirely by the fast engine, and stays bit-exact."""
    clear_shared_stage_memo()
    _run("rodinia/srad", COPY, "on", impl="fast")
    memo = shared_stage_memo()
    mid = memo.stats.snapshot()
    result = _run("rodinia/srad", COPY, "on", impl="reference")
    final = memo.stats.snapshot()
    assert final[0] > mid[0], "reference must hit fast-recorded entries"
    assert final[1] == mid[1]
    assert _payload_bytes(result) == _memo_off_bytes("rodinia/srad", COPY)


def test_replayed_snapshots_stay_intact(monkeypatch):
    """Replaying an entry hands its cache-state arrays to the live caches
    without a copy; the stages the engine then simulates live must leave
    every stored snapshot byte-identical."""
    stored = []
    hits = []
    real_store, real_lookup = StageMemo.store, StageMemo.lookup

    def store(self, key, entry):
        stored.append(entry)
        real_store(self, key, entry)

    def lookup(self, key):
        entry = real_lookup(self, key)
        hits.append(entry is not None)
        return entry

    monkeypatch.setattr(StageMemo, "store", store)
    monkeypatch.setattr(StageMemo, "lookup", lookup)
    clear_shared_stage_memo()
    spec = get("lonestar/bfs")
    seed_8 = replace(_options("on"), seed=8)
    _simulate_version(spec, COPY, _DISCRETE, _options("on"))
    recorded = [
        [arr.tobytes() for state in entry.cache_states for arr in state]
        for entry in stored
    ]
    assert all(
        not arr.flags.writeable
        for entry in stored
        for state in entry.cache_states
        for arr in state
    )
    hits.clear()
    # Another seed replays the RNG-free stages and simulates the rest live.
    result, _wall = _simulate_version(spec, COPY, _DISCRETE, seed_8)
    assert any(hit and not then for hit, then in zip(hits, hits[1:]))
    for entry, before in zip(stored, recorded):
        assert [
            arr.tobytes() for state in entry.cache_states for arr in state
        ] == before
    memo_off, _wall = _simulate_version(
        spec, COPY, _DISCRETE, replace(seed_8, stage_memo="off")
    )
    assert _payload_bytes(result) == _payload_bytes(memo_off)


# -- counters and bounds ----------------------------------------------------


def test_memo_stats_hit_rate():
    stats = MemoStats()
    assert stats.lookups == 0 and stats.hit_rate == 0.0
    stats.hits, stats.misses = 3, 1
    assert stats.lookups == 4
    assert stats.hit_rate == pytest.approx(0.75)
    assert stats.snapshot() == (3, 1)


def test_cleared_memo_repeats_hit_pattern():
    """After ``clear_shared_stage_memo()`` the same runs make the same
    hits and misses, so memo counters compare across repeated runs."""

    def pair_delta():
        clear_shared_stage_memo()
        before = stage_memo_snapshot()
        _run("rodinia/kmeans", COPY, "on")
        _run("rodinia/kmeans", LIMITED, "on")
        after = stage_memo_snapshot()
        return (after[0] - before[0], after[1] - before[1])

    first = pair_delta()
    assert first[0] > 0, "kmeans iterations must hit their own stages"
    assert pair_delta() == first


def _tiny_entry() -> StageEntry:
    return StageEntry(
        log_parts=(), mem=None, fault=None, cache_states=(), stats_deltas=()
    )


def test_entry_bound_triggers_wholesale_clear():
    memo = StageMemo(max_entries=2, max_bytes=1 << 30)
    memo.store(("k1",), _tiny_entry())
    memo.store(("k2",), _tiny_entry())
    assert len(memo) == 2 and memo.stats.clears == 0
    memo.store(("k3",), _tiny_entry())
    assert len(memo) == 1, "hitting the entry bound clears wholesale"
    assert memo.stats.clears == 1


def test_byte_bound_triggers_wholesale_clear():
    big = StageEntry(
        log_parts=(
            (np.zeros(256, dtype=np.int64), np.zeros(256, dtype=bool), 0),
        ),
        mem=None,
        fault=None,
        cache_states=(),
        stats_deltas=(),
    )
    probe = StageMemo()
    probe.store(("probe",), big)
    nbytes = probe.retained_bytes
    assert nbytes > 0
    memo = StageMemo(max_entries=100, max_bytes=nbytes + nbytes // 2)
    memo.store(("a",), big)
    memo.store(("b",), big)  # would exceed the byte bound
    assert len(memo) == 1 and memo.stats.clears == 1
    assert memo.retained_bytes == nbytes


def test_clear_preserves_cumulative_counters():
    memo = StageMemo()
    memo.store(("k",), _tiny_entry())
    assert memo.lookup(("k",)) is not None
    assert memo.lookup(("absent",)) is None
    snapshot = memo.stats.snapshot()
    assert snapshot == (1, 1)
    memo.clear()
    assert len(memo) == 0 and memo.retained_bytes == 0
    assert memo.stats.snapshot() == snapshot
