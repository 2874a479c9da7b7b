"""Registry-wide differential tests: fast engine == reference engine.

The vectorized cache implementation (``engine_impl="fast"``, the default
since the flip — ``reference`` is the opt-out baseline) must be
*bit-exact* with the reference model on every benchmark and both pipeline
versions: identical figure inputs, Table II metrics, invariant violations,
and byte-identical v2-full serialization.  This is the contract that lets
the persistent result cache be shared between the two implementations
(``engine_impl`` is deliberately excluded from the cache key — see
:func:`repro.sim.resultcache.cache_key`), which the second half of this
module tests directly.

Because ``stage_memo`` defaults to ``"auto"``, every fast run here
executes with stage-level memoization (:mod:`repro.sim.memo`) enabled
while the reference side runs memo-free — so this matrix is
simultaneously the fast-vs-reference *and* the memo-on-vs-off
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
from repro.sim.engine import SimOptions
from repro.sim.resultcache import ResultCache, cache_key
from repro.sim.serialize import result_to_full_dict, results_identical
from repro.workloads.registry import simulatable_specs

from tests.conftest import TINY_SCALE

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
    options = SimOptions(scale=scale, seed=7, engine_impl=impl)
    system = _system_for(version, _DISCRETE, _HETEROGENEOUS)
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
    """The vectorized engine is the default; reference is the opt-out.

    The differential matrix above is what licenses the default: users get
    the fast path, and ``--engine reference`` (or
    ``SimOptions(engine_impl="reference")``) opts back into the readable
    baseline with bit-identical results.
    """
    options = SimOptions()
    assert options.engine_impl == "fast"
    assert options.stage_memo == "auto"


def test_violations_match_on_fault_free_runs():
    """Both engines agree on the (empty) violation list of a clean run."""
    for impl in ("reference", "fast"):
        result = _run("rodinia/kmeans", COPY, impl)
        payload = result_to_full_dict(result)
        assert payload.get("violations", []) == []


class TestResultCacheSharing:
    """A cache entry written by one engine impl serves the other.

    ``engine_impl`` is excluded from the cache key *because* the
    differential suite above proves bit-exactness; these tests pin the
    exclusion and the end-to-end hand-off in both directions.
    """

    def _key(self, impl: str) -> str:
        options = SimOptions(scale=TINY_SCALE, seed=7, engine_impl=impl)
        return cache_key(_SPECS["rodinia/kmeans"], COPY, _DISCRETE, options)

    def test_cache_key_ignores_engine_impl(self):
        assert self._key("reference") == self._key("fast")

    def test_cache_key_still_separates_other_options(self):
        options = SimOptions(scale=TINY_SCALE, seed=8, engine_impl="fast")
        other = cache_key(_SPECS["rodinia/kmeans"], COPY, _DISCRETE, options)
        assert other != self._key("fast")

    @pytest.mark.parametrize(
        "writer, reader", [("reference", "fast"), ("fast", "reference")]
    )
    def test_entry_written_by_one_impl_serves_the_other(
        self, tmp_path, writer, reader
    ):
        cache = ResultCache(tmp_path)
        result = _run("rodinia/kmeans", COPY, writer)
        cache.store(self._key(writer), result, sim_wall_s=0.5)
        entry = cache.load(self._key(reader))
        assert entry is not None
        assert results_identical(entry.result, result)
        # And the served payload equals what the reader would compute.
        assert results_identical(entry.result, _run("rodinia/kmeans", COPY, reader))
