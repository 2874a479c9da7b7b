"""Section V-B validation: compute migration on kmeans and strmclstr."""

import pytest

from repro.experiments import validation


@pytest.fixture(scope="module")
def rows(runner):
    return validation.validate_migration(runner)


def test_validation_migrate(rows, save_result):
    assert {r.benchmark for r in rows} == {"rodinia/kmeans", "rodinia/strmclstr"}
    save_result(
        "validation_migrate",
        "\n".join(
            f"{r.benchmark}: baseline={r.baseline_runtime_s:.6f}s "
            f"migrated={r.migrated_runtime_s:.6f}s speedup={r.speedup:.2f}x"
            for r in rows
        ),
    )


def test_migration_beats_two_and_a_half_x(rows):
    # Paper: the rewritten benchmarks improved run time by more than 2.5x.
    for row in rows:
        assert row.speedup > 2.0, (row.benchmark, row.speedup)
    assert max(r.speedup for r in rows) > 2.5
