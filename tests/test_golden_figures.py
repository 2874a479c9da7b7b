"""Golden-figure regression tests.

Renders fig4-fig9 and Table II at ``DEFAULT_BENCH_SCALE`` over a fixed,
suite-spanning benchmark subset and compares the key numeric columns of
each figure against checked-in JSON fixtures under ``tests/golden/``.
Simulations are deterministic, so any drift means the models (or the
engine) changed behaviour; if the change is intentional, refresh the
fixtures with::

    python -m pytest tests/test_golden_figures.py --update-goldens

and commit the updated ``tests/golden/*.json`` alongside the change (and
bump ``repro.sim.engine.ENGINE_VERSION`` so persistent sweep caches are
invalidated too).
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro.experiments import fig4, fig5, fig6, fig7, fig8, fig9, table2
from repro.experiments.runner import DEFAULT_BENCH_SCALE, SweepRunner
from repro.sim.engine import SimOptions
from repro.workloads.registry import get

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: Two benchmarks per suite: a bandwidth/irregular representative and a
#: regular one, covering page-fault-heavy (srad), misaligned, and dense
#: cases so every figure's special-casing is exercised.
GOLDEN_BENCHMARKS = (
    "lonestar/bfs",
    "lonestar/sssp",
    "pannotia/color_max",
    "pannotia/mis",
    "parboil/cutcp",
    "parboil/spmv",
    "rodinia/kmeans",
    "rodinia/srad",
)

#: Relative tolerance for float comparisons.  Runs are deterministic, so
#: this only guards against cross-platform libm/ordering noise.
REL_TOL = 1e-9


@pytest.fixture(scope="module")
def golden_specs():
    return [get(name) for name in GOLDEN_BENCHMARKS]


@pytest.fixture(scope="module")
def golden_runner(golden_specs, tmp_path_factory):
    """One shared sweep of the golden subset at the figure scale, stored
    in a result cache of its own."""
    runner = SweepRunner(
        options=SimOptions(scale=DEFAULT_BENCH_SCALE),
        cache_dir=tmp_path_factory.mktemp("golden-cache"),
    )
    runner.sweep(golden_specs)
    return runner


@pytest.fixture(scope="module")
def update_goldens(request):
    return request.config.getoption("--update-goldens")


def _assert_close(golden, actual, path=""):
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: type changed"
        assert sorted(golden) == sorted(actual), f"{path}: keys changed"
        for key in golden:
            _assert_close(golden[key], actual[key], f"{path}/{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list) and len(golden) == len(actual), (
            f"{path}: length changed"
        )
        for index, (g, a) in enumerate(zip(golden, actual)):
            _assert_close(g, a, f"{path}[{index}]")
    elif isinstance(golden, float) or isinstance(actual, float):
        assert math.isclose(
            float(golden), float(actual), rel_tol=REL_TOL, abs_tol=1e-15
        ), f"{path}: {golden} != {actual}"
    else:
        assert golden == actual, f"{path}: {golden} != {actual}"


def _check_golden(name: str, payload, update: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    assert path.is_file(), (
        f"missing golden fixture {path}; generate it with "
        f"pytest tests/test_golden_figures.py --update-goldens"
    )
    _assert_close(json.loads(path.read_text()), payload, name)


def test_table2_golden(update_goldens):
    payload = {row.suite: list(row.as_tuple()) for row in table2.run()}
    _check_golden("table2", payload, update_goldens)
    assert table2.matches_paper(table2.run())


def test_fig4_golden(golden_runner, golden_specs, update_goldens):
    payload = {
        row.benchmark: {
            "copy_total_bytes": row.copy_total_bytes,
            "limited_total_bytes": row.limited_total_bytes,
            "footprint_ratio": row.footprint_ratio,
            "gpu_share_of_limited": row.gpu_share_of_limited(),
        }
        for row in fig4.run(golden_runner, golden_specs)
    }
    _check_golden("fig4", payload, update_goldens)


def test_fig5_golden(golden_runner, golden_specs, update_goldens):
    payload = {
        row.benchmark: {
            "copy_accesses": {
                component.value: count
                for component, count in row.copy_accesses.items()
            },
            "limited_accesses": {
                component.value: count
                for component, count in row.limited_accesses.items()
            },
            "copy_total": row.copy_total,
            "limited_total": row.limited_total,
        }
        for row in fig5.run(golden_runner, golden_specs)
    }
    _check_golden("fig5", payload, update_goldens)


def test_fig6_golden(golden_runner, golden_specs, update_goldens):
    payload = {
        row.benchmark: {
            "copy_runtime_s": row.copy.runtime_s,
            "limited_runtime_s": row.limited.runtime_s,
            "runtime_ratio": row.runtime_ratio,
            "copy_serial_fraction": row.copy.serial_fraction,
            "limited_serial_fraction": row.limited.serial_fraction,
        }
        for row in fig6.run(golden_runner, golden_specs)
    }
    _check_golden("fig6", payload, update_goldens)


def test_fig7_golden(golden_runner, golden_specs, update_goldens):
    payload = {
        row.benchmark: {
            "copy_runtime_s": row.copy_runtime_s,
            "limited_runtime_s": row.limited_runtime_s,
            "copy_normalized": row.copy_normalized,
            "limited_normalized": row.limited_normalized,
        }
        for row in fig7.run(golden_runner, golden_specs)
    }
    _check_golden("fig7", payload, update_goldens)


def test_fig8_golden(golden_runner, golden_specs, update_goldens):
    payload = {
        row.benchmark: {
            "copy_runtime_s": row.copy_runtime_s,
            "limited_runtime_s": row.limited_runtime_s,
            "copy_normalized": row.copy_normalized,
            "limited_normalized": row.limited_normalized,
        }
        for row in fig8.run(golden_runner, golden_specs)
    }
    _check_golden("fig8", payload, update_goldens)


def test_fig9_golden(golden_runner, golden_specs, update_goldens):
    payload = {
        row.benchmark: {
            "copy_total": row.copy.total,
            "limited_total": row.limited.total,
            "limited_total_ratio": row.limited_total_ratio,
            "limited_spill_fraction": row.limited.spill_fraction,
            "limited_contention_fraction": row.limited.contention_fraction,
        }
        for row in fig9.run(golden_runner, golden_specs)
    }
    _check_golden("fig9", payload, update_goldens)


def test_figures_render_from_shared_sweep(golden_runner, golden_specs):
    """Rendering all six figures reuses the memoized sweep: 0 new runs."""
    for module in (fig4, fig5, fig6, fig7, fig8, fig9):
        text = module.render(golden_runner, golden_specs)
        assert text.strip()
    metrics = golden_runner.last_metrics
    assert metrics is not None
    assert metrics.launched == 0 and metrics.cache_hits == 0
    assert metrics.memo_hits == 2 * len(golden_specs)


def test_goldens_hold_for_results_loaded_from_the_cache(golden_runner, golden_specs):
    """A second runner over the golden sweep's cache renders every figure
    from decoded entries, whose columns are read-only arrays, and matches
    the same goldens."""
    loaded = SweepRunner(
        options=golden_runner.options, cache_dir=golden_runner.cache.root
    )
    checks = (
        test_fig4_golden,
        test_fig5_golden,
        test_fig6_golden,
        test_fig7_golden,
        test_fig8_golden,
        test_fig9_golden,
    )
    for index, check in enumerate(checks):
        check(loaded, golden_specs, False)
        metrics = loaded.last_metrics
        assert metrics.launched == 0
        if index == 0:
            assert metrics.cache_hits == 2 * len(golden_specs)
    pair = loaded.sweep(golden_specs)[golden_specs[0].full_name]
    assert not pair.copy.log_blocks.flags.writeable
