"""Shared fixtures: tiny-scale simulation options and small pipelines."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments.parallel import LIMITED
from repro.pipeline.builder import PipelineBuilder
from repro.pipeline.patterns import AccessPattern
from repro.pipeline.stage import BufferAccess
from repro.pipeline.transforms import remove_copies
from repro.sim.engine import Engine, SimOptions
from repro.units import MB

#: Scale used throughout the test suite: big enough for cache behaviour to
#: be non-trivial, small enough that a full pipeline simulates in ~10ms.
TINY_SCALE = 1 / 128


def run_engine(spec, version, system, options, **engine):
    """Simulate one version of ``spec`` as a sweep task does, on an
    :class:`~repro.sim.engine.Engine` built with ``engine`` (its ``impl``
    and ``stage_memo`` arguments): the seam of the reference-cache and
    memo-off oracles."""
    pipeline = spec.pipeline()
    if version == LIMITED:
        pipeline = remove_copies(pipeline)
    return Engine(pipeline, system, options, **engine).run()


# Every property test sets its own example count except those of
# tests/test_supervisor.py, tests/test_engine_schedule.py and
# tests/test_sim_results.py, which run the loaded profile's: 40 by default,
# ten times that under ``--hypothesis-profile deep`` (CI's differential
# job).  tests/test_classify_oracle.py runs the larger of 100 and the
# profile's count.
settings.register_profile("default", max_examples=40)
settings.register_profile("deep", max_examples=400)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="regenerate the tests/golden/*.json figure fixtures instead of "
        "comparing against them",
    )


@pytest.fixture(scope="session", autouse=True)
def _isolated_sweep_cache(tmp_path_factory):
    """Point the persistent sweep cache at a throwaway directory.

    Anything in the suite that falls back to the default cache location
    (CLI commands under test, runners built without an explicit dir) must
    not read from or write to the developer's real ~/.cache/repro-sweeps.
    """
    cache_dir = tmp_path_factory.mktemp("repro-sweep-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def tiny_options() -> SimOptions:
    return SimOptions(scale=TINY_SCALE, seed=7)


@pytest.fixture
def discrete():
    return discrete_gpu_system()


@pytest.fixture
def heterogeneous():
    return heterogeneous_processor()


def build_offload_pipeline(
    name: str = "test/offload",
    data_mb: int = 8,
    result_mb: int = 2,
    iterations: int = 2,
) -> "Pipeline":
    """A miniature kmeans-shaped pipeline: h2d, loop(kernel, d2h, cpu), out."""
    b = PipelineBuilder(name, metadata={"outputs": ("result",)})
    b.buffer("data", data_mb * MB)
    b.buffer("result", result_mb * MB)
    b.copy_h2d("data", chunkable=True)
    b.mirror("result")
    for i in range(iterations):
        b.gpu_kernel(
            f"map_{i}",
            flops=5e7,
            reads=[BufferAccess("data_dev", AccessPattern.STREAMING)],
            writes=[BufferAccess("result_dev", AccessPattern.STREAMING)],
            efficiency=0.5,
            chunkable=True,
        )
        b.copy_d2h("result_dev", "result", name=f"d2h_{i}", chunkable=True)
        b.cpu_stage(
            f"reduce_{i}",
            flops=1e6,
            reads=[BufferAccess("result", AccessPattern.STREAMING)],
            occupancy=0.25,
            chunkable=True,
            migratable=True,
        )
    return b.build()


@pytest.fixture
def offload_pipeline():
    return build_offload_pipeline()
