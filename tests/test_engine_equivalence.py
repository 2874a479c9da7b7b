"""Registry-wide differential tests: fast engine == reference engine.

What the program runs — the vectorized caches of :mod:`repro.sim.fastcache`
with the trace-part and shared stage memos — must be *bit-exact* with the
oracle, an :class:`~repro.sim.engine.Engine` built with
``impl="reference"`` and ``stage_memo=None`` (the plain-Python caches with
neither memo), on every benchmark and both pipeline versions: identical
figure inputs, Table II metrics, invariant violations, and byte-identical
v2-full serialization.  How a result was computed is therefore no input
of the persistent result cache's key
(:func:`repro.sim.resultcache.cache_key`); the second half of this module
checks that an entry either side writes serves the other.

So this matrix is at once the fast-vs-reference *and* the memo-on-vs-off
differential (the focused memo tests live in tests/test_stage_memo.py).

The full 46x2 matrix runs in CI (``REPRO_EQUIVALENCE_FULL=1``); locally
only a deterministic 8-benchmark sample runs, the rest are skipped (marker
``equivalence_full``).  With the full matrix, the five benchmarks perfbench
times also run at its scale, 1/32, where cache-kernel calls reach 37k rows
(at most 9200 at 1/128).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments.parallel import COPY, LIMITED, _simulate_version, _system_for
from repro.sim import engine
from repro.sim.cache import SetAssocCache
from repro.sim.engine import _TRACE_MEMO, Engine, SimOptions
from repro.sim.fastcache import FastSetAssocCache
from repro.sim.memo import shared_stage_memo
from repro.sim.resultcache import ResultCache, cache_key
from repro.sim.serialize import result_to_full_dict, results_identical
from repro.trace import generator
from repro.trace.generator import TraceMemo
from repro.workloads.registry import simulatable_specs

from tests.conftest import TINY_SCALE, run_engine

#: Benchmarks always exercised locally: the paper's focal four plus one
#: extra per suite, chosen for pattern diversity (graph, spmv, stencil).
SAMPLED_BENCHMARKS = frozenset(
    {
        "rodinia/kmeans",
        "lonestar/bfs",
        "rodinia/srad",
        "parboil/histo",
        "lonestar/mst",
        "pannotia/pr",
        "parboil/spmv",
        "rodinia/backprop",
    }
)

RUN_FULL_MATRIX = bool(os.environ.get("REPRO_EQUIVALENCE_FULL"))

ALL_NAMES = sorted(spec.full_name for spec in simulatable_specs())

#: The benchmarks perfbench sweeps, and its scale.
PERFBENCH_SUBSET = (
    "lonestar/bfs",
    "lonestar/mst",
    "parboil/histo",
    "rodinia/kmeans",
    "rodinia/srad",
)
PERFBENCH_SCALE = 1 / 32

#: (benchmark, scale, runs without the full matrix): every benchmark at the
#: suite's scale, then perfbench's benchmarks at its scale.
CASES = [(name, TINY_SCALE, name in SAMPLED_BENCHMARKS) for name in ALL_NAMES] + [
    (name, PERFBENCH_SCALE, False) for name in PERFBENCH_SUBSET
]

PARAMS = [
    pytest.param(
        name,
        version,
        scale,
        id=f"{name}-{version}"
        + ("" if scale == TINY_SCALE else f"-1/{round(1 / scale)}"),
        marks=[]
        if RUN_FULL_MATRIX or local
        else [
            pytest.mark.equivalence_full,
            pytest.mark.skip(reason="full matrix runs with REPRO_EQUIVALENCE_FULL=1"),
        ],
    )
    for name, scale, local in CASES
    for version in (COPY, LIMITED)
]

_SPECS = {spec.full_name: spec for spec in simulatable_specs()}
_DISCRETE = discrete_gpu_system()
_HETEROGENEOUS = heterogeneous_processor()


def _run(name: str, version: str, impl: str, scale: float = TINY_SCALE):
    """A ``fast`` run is a sweep task's; a ``reference`` run is the oracle."""
    options = SimOptions(scale=scale, seed=7)
    system = _system_for(version, _DISCRETE, _HETEROGENEOUS)
    if impl == "reference":
        return run_engine(
            _SPECS[name], version, system, options, impl=impl, stage_memo=None
        )
    result, _wall = _simulate_version(_SPECS[name], version, system, options)
    return result


@pytest.mark.parametrize("name, version, scale", PARAMS)
def test_fast_engine_is_bit_exact(name, version, scale):
    """Fast and reference SimResults serialize to identical v2-full bytes."""
    reference = _run(name, version, "reference", scale)
    fast = _run(name, version, "fast", scale)
    ref_dict = result_to_full_dict(reference)
    fast_dict = result_to_full_dict(fast)
    assert fast_dict == ref_dict
    # Byte-identical serialization is the cache-sharing contract: the
    # stored cache entry must not depend on which engine produced it.
    ref_bytes = json.dumps(ref_dict, sort_keys=True).encode()
    fast_bytes = json.dumps(fast_dict, sort_keys=True).encode()
    assert fast_bytes == ref_bytes
    assert results_identical(reference, fast)


def test_fast_is_the_default_engine():
    """An engine runs the fast caches with the trace-part and shared stage
    memos unless a test asks for the oracle, which has neither memo."""
    pipeline = _SPECS["rodinia/kmeans"].pipeline()
    options = SimOptions(scale=TINY_SCALE)
    fast = Engine(pipeline, _DISCRETE, options)
    assert isinstance(fast.caches.gpu.l1, FastSetAssocCache)
    assert fast.tracegen.memo is _TRACE_MEMO
    assert fast.stage_memo is shared_stage_memo()
    oracle = Engine(pipeline, _DISCRETE, options, impl="reference", stage_memo=None)
    assert type(oracle.caches.gpu.l1) is SetAssocCache
    assert oracle.tracegen.memo is None and oracle.stage_memo is None


def test_trace_memo_clears_past_its_byte_bound(monkeypatch):
    """A trace memo bounded below one benchmark's streams clears wholesale
    as it fills, and results stay byte-identical to runs without one."""
    options = SimOptions(scale=TINY_SCALE, seed=7)

    def serialized_pair():
        return [
            result_to_full_dict(
                run_engine(
                    _SPECS["rodinia/kmeans"],
                    version,
                    _system_for(version, _DISCRETE, _HETEROGENEOUS),
                    options,
                    stage_memo=None,
                )
            )
            for version in (COPY, LIMITED)
        ]

    unbounded, bounded, max_bytes = TraceMemo(), TraceMemo(), 64 << 10
    monkeypatch.setattr(engine, "_TRACE_MEMO", unbounded)
    serialized_pair()
    monkeypatch.setattr(engine, "_TRACE_MEMO", bounded)
    monkeypatch.setattr(generator, "_MEMO_MAX_BYTES", max_bytes)
    results = serialized_pair()
    # Holding less than the pair's streams means it cleared on the way.
    assert 0 < bounded.retained_bytes <= max_bytes < unbounded.retained_bytes
    monkeypatch.setattr(engine, "_TRACE_MEMO", None)
    assert serialized_pair() == results


def test_violations_match_on_fault_free_runs():
    """Both engines agree on the (empty) violation list of a clean run."""
    for impl in ("reference", "fast"):
        result = _run("rodinia/kmeans", COPY, impl)
        payload = result_to_full_dict(result)
        assert payload.get("violations", []) == []


class TestResultCacheSharing:
    """A cache entry written by one engine impl serves the other.

    The key holds no engine impl *because* the differential suite above
    proves bit-exactness; these tests pin the end-to-end hand-off in both
    directions.
    """

    def _key(self) -> str:
        options = SimOptions(scale=TINY_SCALE, seed=7)
        return cache_key(_SPECS["rodinia/kmeans"], COPY, _DISCRETE, options)

    def test_cache_key_still_separates_other_options(self):
        options = SimOptions(scale=TINY_SCALE, seed=8)
        other = cache_key(_SPECS["rodinia/kmeans"], COPY, _DISCRETE, options)
        assert other != self._key()

    @pytest.mark.parametrize(
        "writer, reader", [("reference", "fast"), ("fast", "reference")]
    )
    def test_entry_written_by_one_impl_serves_the_other(
        self, tmp_path, writer, reader
    ):
        cache = ResultCache(tmp_path)
        result = _run("rodinia/kmeans", COPY, writer)
        cache.store(self._key(), result, sim_wall_s=0.5)
        entry = cache.load(self._key())
        assert entry is not None
        assert results_identical(entry.result, result)
        # And the served payload equals what the reader would compute.
        assert results_identical(entry.result, _run("rodinia/kmeans", COPY, reader))
