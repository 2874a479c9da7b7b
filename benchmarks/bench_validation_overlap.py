"""Section V-A validation: chunked transforms vs the Eq. 1 estimate."""

import pytest

from repro.experiments import validation


@pytest.fixture(scope="module")
def rows(runner):
    return validation.validate_overlap(runner)


def test_validation_overlap(runner, rows, save_result):
    assert len(rows) == 6  # three benchmarks x two versions
    save_result("validation_overlap", validation.render(runner))


def test_limited_copy_transforms_track_estimate_closely(rows):
    # Paper: transformed run times land within ~3.1% of the estimate; our
    # limited-copy (in-memory signalling) transforms match that regime.
    for row in rows:
        if row.version == "limited-copy":
            assert row.error < 0.10, (row.benchmark, row.error)


def test_copy_transforms_improve_but_keep_dependencies(rows):
    # Discrete-side stream chunking improves on the measured baseline but
    # stays above the (optimistic) estimate: data dependencies limit
    # overlap, as the paper cautions.
    for row in rows:
        if row.version == "copy":
            assert row.transformed_runtime_s < row.measured_runtime_s
            assert row.transformed_runtime_s >= row.estimated_runtime_s * 0.97
