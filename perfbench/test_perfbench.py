"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The counter tests run real phases in fresh interpreters, about a minute
in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import phase  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

SEED = 3
RESULTS = 2 * len(phase.SUBSET)

#: Traced metrics that are counts, not times: they must repeat exactly.
COUNTED = [
    name for name, unit in run.metric_units("per_layer").items()
    if unit in ("count", "bytes", "ratio", "MB") and not name.startswith("tracing.")
]


def assert_same_counts(*reports):
    """Counts repeat exactly, except entry-file sizes: each cache entry
    embeds its simulation's measured wall time, so a fresh entry's gzip
    size varies by a few bytes."""
    for other in reports[1:]:
        first, other = dict(reports[0]), dict(other)
        for name in [n for n in first if "bytes" in n]:
            assert abs(first.pop(name) - other.pop(name)) <= 64 * RESULTS, name
        assert first == other


@pytest.fixture
def bench(tmp_path):
    run._become_subreaper()
    return run.Bench(ROOT, tmp_path, SEED, {})


def _phase(bench, kind, cache=None, trace=None):
    sample = bench.launch(kind, cache_dir=cache, trace=trace)
    assert sample.error is None, sample.error
    return sample.report


@pytest.mark.parametrize("kind", ["cold", "design"])
def test_counters_repeat_at_one_seed(bench, tmp_path, kind):
    def cache():
        return bench.new_cache() if kind == "cold" else None

    plain = _phase(bench, kind, cache())
    traced = [_phase(bench, kind, cache(), str(tmp_path / f"t{i}")) for i in (1, 2)]
    # Tracing only observes: the public counters match the untraced run's.
    assert_same_counts(plain["counters"], *(r["counters"] for r in traced))
    assert plain.get("ops") == traced[0].get("ops") == traced[1].get("ops")
    first, second = ({n: r["layers"][n] for n in COUNTED} for r in traced)
    assert_same_counts(first, second)
    assert first["sim.engine.calls"] > 0 and first["sim.cache.accesses"] > 0


def test_warm_counters_repeat_and_render_simulates_nothing(bench, tmp_path):
    fills = [_phase(bench, "fill", bench.new_cache(), str(tmp_path / f"f{i}"))
             for i in (1, 2)]
    assert_same_counts(fills[0]["counters"], fills[1]["counters"])
    first, second = ({n: r["layers"][n] for n in COUNTED} for r in fills)
    assert_same_counts(first, second)
    assert first["parallel.launched"] == RESULTS == first["executors.submits"]
    assert first["resultcache.store.calls"] == RESULTS

    warm = bench.new_cache()
    _phase(bench, "fill", warm)
    plain = _phase(bench, "render", warm)
    traced = [_phase(bench, "render", warm, str(tmp_path / f"r{i}")) for i in (1, 2)]
    assert traced[0]["counters"] == plain["counters"] == traced[1]["counters"]
    assert plain["ops"] == traced[0]["ops"] == traced[1]["ops"]
    assert plain["counters"]["simulations"] == 0
    assert plain["counters"]["runner_memo_hits"] == 5 * RESULTS
    first, second = ({n: r["layers"][n] for n in COUNTED} for r in traced)
    assert first == second
    assert first["resultcache.load.hits"] == RESULTS
    assert first["sim.engine.calls"] == 0
    assert first["runner.sweep.calls"] == 6


def test_self_time_subtracts_children_and_chrome_export_validates():
    from repro.sim.observe.chrome import validate_chrome_trace

    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(20000)))

    def middle():
        leaf()
        leaf()

    root = tracer.wrap("root", tracer.wrap("middle", middle))
    root()
    names = [span.name for span in tracer.spans]
    assert names == ["root", "middle", "leaf", "leaf"]
    own = tracing.self_times_ns(tracer.spans)
    assert sum(own) == tracer.spans[0].duration_ns == tracing.covered_ns(tracer.spans)
    assert all(value >= 0 for value in own)
    assert [span.parent for span in tracer.spans] == [-1, 0, 1, 1]
    chrome = tracing.chrome_trace(tracer.spans, "unit")
    assert validate_chrome_trace(chrome) == []
    assert len(tracing.spans_json(tracer.spans)) == 4


def test_install_patches_by_name_imports_and_unpatch_restores():
    import repro.experiments.ablations as ablations
    import repro.experiments.parallel as parallel
    import repro.sim.engine as engine

    original = engine.simulate
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert engine.simulate is not original
        assert parallel.simulate is engine.simulate is ablations.simulate
    finally:
        tracer.unpatch()
    assert engine.simulate is original is parallel.simulate is ablations.simulate


def test_expected_outputs_are_recorded_for_these_inputs():
    expected = json.loads(run.EXPECTED.read_text())
    assert expected["scale"] == phase.SCALE
    assert expected["subset"] == list(phase.SUBSET)
    assert expected["design"] == list(phase.DESIGN)
    assert sorted(expected["seeds"], key=int) == [str(i) for i in range(16)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
