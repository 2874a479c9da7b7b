#!/usr/bin/env python
"""CI gate on the simulator's memory at a paper-scale step.

Simulates the ``lonestar/mst`` copy and limited-copy pair, the registry's
largest off-chip logs, at scale 1/4 (seed 0) in this fresh interpreter
and fails when the process's peak RSS (``ru_maxrss``) exceeds
``CEILING_MB``.  A change that widens what the simulator holds per access
(64-bit block ids, say) or keeps what it cannot use shows here long
before a scale-1 sweep runs out of memory.

On a 2-vCPU x86-64 VM with CPython 3.11 and numpy 2.4 the pair peaks at
535-541 MB in 8.7-10.5 s (five runs), against 771-777 MB with int64 block
ids and a trace memo that stored RNG-seeded parts; the ceiling leaves 18%
headroom over the former and sits below the latter.

Usage: ``python .github/scripts/paper_scale_memory_check.py`` (exit 0
within the ceiling, 1 above it).
"""

from __future__ import annotations

import resource
import sys
import time

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.pipeline.transforms import remove_copies
from repro.sim.engine import SimOptions, simulate
from repro.workloads.registry import get

BENCHMARK = "lonestar/mst"
SCALE = 1 / 4
CEILING_MB = 640


def peak_rss_mb() -> float:
    """This process's peak RSS; Linux reports ``ru_maxrss`` in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    options = SimOptions(scale=SCALE, seed=0)
    copy = get(BENCHMARK).pipeline()
    start = time.perf_counter()
    for version, pipeline, system in (
        ("copy", copy, discrete_gpu_system()),
        ("limited-copy", remove_copies(copy), heterogeneous_processor()),
    ):
        result = simulate(pipeline, system, options)
        print(f"{BENCHMARK}:{version} at 1/{1 / SCALE:g}: "
              f"{len(result.log_blocks)} off-chip accesses")
    peak = peak_rss_mb()
    print(f"peak RSS {peak:.0f} MB (ceiling {CEILING_MB} MB), "
          f"{time.perf_counter() - start:.1f} s")
    if peak > CEILING_MB:
        print(f"FAIL: peak RSS {peak:.0f} MB exceeds {CEILING_MB} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
