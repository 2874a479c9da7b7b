#!/usr/bin/env python
"""CI acceptance check for fault-tolerant sweep execution.

Scenario (see docs/SWEEPS.md): with three permanently-faulted tasks, the
full copy/limited-copy sweep must still complete — returning every other
result, caching every fresh success, and reporting exactly three
structured failures — and the CLI must exit 3 (partial) under the faults
but 0 once they clear, replaying the healthy results from cache.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.cli import main
from repro.experiments import parallel
from repro.experiments.parallel import COPY, LIMITED, FaultPolicy
from repro.experiments.runner import SweepRunner
from repro.sim.engine import SimOptions
from repro.testing.faults import FaultRule, injected_faults
from repro.workloads.registry import simulatable_specs

SCALE = 1 / 64  # keeps the 46x2 sweep to a couple of minutes in CI
FAULTED = {
    "rodinia/kmeans:copy": FaultRule("raise"),
    "lonestar/bfs:limited-copy": FaultRule("raise"),
    "pannotia/mis:copy": FaultRule("raise"),
}


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  {status}: {label}")
    if not condition:
        sys.exit(1)


def main_check() -> None:
    parallel.BACKOFF_BASE_S = 0.0  # retry at once: this checks outcomes
    specs = sorted(simulatable_specs(), key=lambda s: s.full_name)
    total = 2 * len(specs)
    cache_dir = Path(tempfile.mkdtemp(prefix="fault-sweep-"))

    print(f"faulted sweep: {len(specs)} benchmarks x 2, 3 permanent faults")
    runner = SweepRunner(
        options=SimOptions(scale=SCALE, seed=0),
        parallel=4,
        cache_dir=cache_dir,
        fault_policy=FaultPolicy(max_retries=1),
    )
    with injected_faults(FAULTED):
        runs = runner.sweep(specs)

    metrics = runner.last_metrics
    produced = sum(
        1
        for spec in specs
        for version in (COPY, LIMITED)
        if runner.try_result(spec, version) is not None
    )
    failed_pairs = {f"{f.benchmark}:{f.version}" for f in metrics.failures}
    check(len(metrics.failures) == 3, f"exactly 3 TaskFailures ({failed_pairs})")
    check(failed_pairs == set(FAULTED), "failures are exactly the faulted tasks")
    check(produced == total - 3, f"{produced}/{total} results produced")
    check(metrics.launched == total - 3, "every successful task simulated once")
    check(len(runner.cache) == total - 3, "every fresh success cached")
    check(len(runs) == len(specs) - 3, "incomplete pairs omitted from sweep()")
    check(
        all(f.attempts == 2 for f in metrics.failures),
        "each failure charged initial attempt + 1 retry",
    )

    # The CLI replays the 89 cached successes, re-attempts only the three
    # faulted tasks, and distinguishes partial (3) from clean (0).
    argv = [
        "run",
        "--scale",
        str(SCALE),
        "--jobs",
        "4",
        "--cache-dir",
        str(cache_dir),
        "--max-retries",
        "0",
    ]
    with injected_faults(FAULTED):
        code = main(argv)
    check(code == 3, f"CLI exits 3 on partial sweep (got {code})")
    code = main(argv)
    check(code == 0, f"CLI exits 0 once the faults clear (got {code})")
    check(len(runner.cache) == total, "recovered tasks landed in the cache")
    print("fault_sweep_check: all assertions passed")


if __name__ == "__main__":
    main_check()
