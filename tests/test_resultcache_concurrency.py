"""Concurrency guarantee of the ResultCache, exercised with real threads.

**No torn entries** — stores are atomic (temp file + ``os.replace``), so
a reader hammering a key that writers are replacing sees either a miss or
a complete, valid entry; never garbage.
"""

from __future__ import annotations

import threading
import time

from repro.config.system import discrete_gpu_system
from repro.sim.engine import SimOptions, simulate
from repro.sim.resultcache import ResultCache
from repro.sim.serialize import results_identical

from .conftest import build_offload_pipeline


def _result():
    """One real (tiny) simulation result to store under test keys."""
    return simulate(
        build_offload_pipeline(),
        discrete_gpu_system(),
        SimOptions(scale=1 / 512, seed=3),
    )


def test_concurrent_store_and_load_never_tear(tmp_path):
    """Readers racing writers on the same keys see misses or full
    entries — a torn/partial file would fail deserialization loudly."""
    cache = ResultCache(tmp_path)
    result = _result()
    keys = [f"{i:x}" * 16 for i in range(4)]
    stop = threading.Event()
    problems: list = []

    def writer(key: str) -> None:
        while not stop.is_set():
            cache.store(key, result, sim_wall_s=0.5)

    def reader(key: str) -> None:
        seen = 0
        while not stop.is_set() or seen == 0:
            entry = cache.load(key)
            if entry is None:
                continue
            seen += 1
            if not results_identical(entry.result, result):
                problems.append(f"torn entry under {key}")
                return

    threads = [
        threading.Thread(target=fn, args=(key,))
        for key in keys
        for fn in (writer, reader)
    ]
    for thread in threads:
        thread.start()
    time.sleep(1.0)
    stop.set()
    for thread in threads:
        thread.join(30.0)
    assert not problems
    for key in keys:
        entry = cache.load(key)
        assert entry is not None
        assert results_identical(entry.result, result)
