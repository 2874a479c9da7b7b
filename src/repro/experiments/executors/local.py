"""The in-process pool backend: the original ProcessPoolExecutor, boxed.

Behavior-identical to the supervisor owning the pool itself (PR 5): same
worker body, same hard-terminate teardown of hung workers, same
``BrokenExecutor`` surfacing.  The only change is shape — tasks go in as
:class:`WorkerTask` and come out as :class:`WorkerOutcome`.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Optional

from repro.experiments.executors.base import (
    ExecutorBackend,
    WorkerOutcome,
    WorkerTask,
)


class LocalPoolBackend(ExecutorBackend):
    """``--backend local``: a ProcessPoolExecutor on this machine."""

    name = "local"

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 1

    def start(self, workers: int) -> None:
        self._workers = max(1, workers)
        self._pool = ProcessPoolExecutor(max_workers=self._workers)

    def submit(self, task: WorkerTask) -> "Future[WorkerOutcome]":
        # Imported here: the supervisor module imports this package.
        from repro.experiments.parallel import run_worker_task

        if self._pool is None:
            raise RuntimeError("backend not started")
        return self._pool.submit(run_worker_task, task)

    def _terminate(self) -> None:
        # Hung or crashed workers cannot be joined; kill what's left.
        if self._pool is None:
            return
        processes = getattr(self._pool, "_processes", None) or {}
        for process in list(processes.values()):
            if process.is_alive():
                process.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def recycle(self) -> None:
        self._terminate()
        self._pool = ProcessPoolExecutor(max_workers=self._workers)

    def shutdown(self) -> None:
        self._terminate()
