"""Shared fixtures for the figure-regeneration benchmarks.

A single session-scoped :class:`SweepRunner` is shared by every bench so
the 46x2 simulation sweep runs once; each bench then checks its figure's
claims and writes the regenerated rows to ``results/``.

The runner fans simulations out over every core and persists results to
the shared sweep cache (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweeps``),
so a repeated benchmark session replays the sweep from disk instead of
re-simulating it.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.runner import DEFAULT_BENCH_SCALE, SweepRunner
from repro.sim.engine import SimOptions
from repro.sim.resultcache import default_cache_dir

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def runner() -> SweepRunner:
    return SweepRunner(
        options=SimOptions(scale=DEFAULT_BENCH_SCALE),
        parallel=0,  # all cores
        cache_dir=default_cache_dir(),
        verbose=True,
    )


@pytest.fixture(scope="session")
def bench_options() -> SimOptions:
    return SimOptions(scale=DEFAULT_BENCH_SCALE)


@pytest.fixture(scope="session")
def save_result():
    """Write a regenerated table/figure to results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _save
