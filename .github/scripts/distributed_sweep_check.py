#!/usr/bin/env python
"""CI acceptance check for the distributed executor backends.

Scenario (see docs/SWEEPS.md): the full 46x2 sweep fanned out through
``--backend subprocess`` — one worker child per task — with one task
killed permanently must still complete every other result, report exactly
one structured ``WorkerCrash`` failure, and exit 3 (partial) from the
CLI.  The coordinator must have cached every fresh result the workers
returned, so a second, fault-free pass is answered almost entirely from
its cache.  Spot-checked results must be byte-identical to the local pool
backend's, both from that cached sweep and from a cache-less subprocess
run.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.cli import main
from repro.experiments.parallel import COPY, LIMITED, FaultPolicy
from repro.experiments.runner import SweepRunner
from repro.sim.engine import SimOptions
from repro.sim.serialize import results_identical
from repro.testing.faults import FaultRule, injected_faults
from repro.workloads.registry import get, simulatable_specs

SCALE = 1 / 64  # keeps the 46x2 sweep to a couple of minutes in CI
KILLED = "rodinia/kmeans:copy"
#: Benchmarks whose results are recomputed through the local pool and
#: compared byte-for-byte against the subprocess backend's.
IDENTITY_SPOT_CHECK = ("lonestar/bfs", "rodinia/srad")


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  {status}: {label}")
    if not condition:
        sys.exit(1)


def main_check() -> None:
    specs = sorted(simulatable_specs(), key=lambda s: s.full_name)
    total = 2 * len(specs)
    cache_dir = Path(tempfile.mkdtemp(prefix="distributed-sweep-"))
    counter_dir = Path(tempfile.mkdtemp(prefix="distributed-faults-"))

    print(
        f"distributed sweep: {len(specs)} benchmarks x 2 via --backend "
        f"subprocess, one injected worker kill"
    )
    runner = SweepRunner(
        options=SimOptions(scale=SCALE, seed=0),
        parallel=4,
        cache_dir=cache_dir,
        fault_policy=FaultPolicy(max_retries=1, backoff_base_s=0.0),
        backend="subprocess",
    )
    with injected_faults(
        {KILLED: FaultRule("kill")}, counter_dir=counter_dir
    ):
        runner.sweep(specs)

    metrics = runner.last_metrics
    produced = sum(
        1
        for spec in specs
        for version in (COPY, LIMITED)
        if runner.try_result(spec, version) is not None
    )
    check(len(metrics.failures) == 1, "exactly 1 TaskFailure")
    failure = metrics.failures[0]
    check(
        f"{failure.benchmark}:{failure.version}" == KILLED,
        "the failure is the killed task",
    )
    check(failure.error_type == "WorkerCrash", "failure typed WorkerCrash")
    check(produced == total - 1, f"{produced}/{total} results produced")
    check(
        metrics.pool_rebuilds == 0,
        "isolated child crash needed no backend recycle",
    )
    check(
        len(runner.cache) == total - 1,
        "coordinator cached every fresh result",
    )

    # CLI: partial (3) under the fault, then a clean warm pass (0) that
    # barely simulates — the coordinator cached the workers' results.
    argv = [
        "run",
        "--scale",
        str(SCALE),
        "--jobs",
        "4",
        "--backend",
        "subprocess",
        "--cache-dir",
        str(cache_dir),
        "--max-retries",
        "0",
    ]
    with injected_faults({KILLED: FaultRule("kill")}, counter_dir=counter_dir):
        code = main(argv)
    check(code == 3, f"CLI exits 3 on partial distributed sweep (got {code})")

    warm = SweepRunner(
        options=SimOptions(scale=SCALE, seed=0),
        parallel=4,
        cache_dir=cache_dir,
        backend="subprocess",
    )
    warm.sweep(specs)
    warm_metrics = warm.last_metrics
    warm_fraction = warm_metrics.cache_hits / total
    check(
        not warm_metrics.failures, "fault-free second pass has no failures"
    )
    check(
        warm_fraction >= 0.9,
        f"second pass >=90% warm from the coordinator cache "
        f"({warm_metrics.cache_hits}/{total})",
    )

    # Result identity: the subprocess results — from the cached sweep and
    # from a cache-less run — must be byte-identical to the local pool's
    # for the spot-check benchmarks.
    local = SweepRunner(
        options=SimOptions(scale=SCALE, seed=0), parallel=4, backend="local"
    )
    cacheless = SweepRunner(
        options=SimOptions(scale=SCALE, seed=0), parallel=4, backend="subprocess"
    )
    spot = [get(name) for name in IDENTITY_SPOT_CHECK]
    cacheless.sweep(spot)
    check(
        cacheless.last_metrics.launched == 2 * len(spot)
        and not cacheless.last_metrics.failures,
        "cache-less subprocess run simulated every spot-check task",
    )
    for spec in spot:
        pair = local.pair(spec)
        for version, reference in ((COPY, pair.copy), (LIMITED, pair.limited)):
            for label, runner in (("cached", warm), ("cache-less", cacheless)):
                distributed = runner.try_result(spec, version)
                check(
                    distributed is not None
                    and results_identical(distributed, reference),
                    f"{spec.full_name}:{version} identical across backends "
                    f"({label} subprocess)",
                )
    print("distributed_sweep_check: all assertions passed")


if __name__ == "__main__":
    main_check()
