"""Executor backend protocol for the sweep supervisor.

The fault supervisor in :mod:`repro.experiments.parallel` speaks only to
an :class:`ExecutorBackend`, which splits "how a task gets executed" from
"how failures are retried".  Every backend receives the same
:class:`WorkerTask` record, unchanged: the local pool and the subprocess
backend pickle it onto a multiprocessing pipe (the pool's long-lived
workers, or one spawned child per task), and the in-parent backend runs
it where it is.  A backend turns the task into a
:class:`concurrent.futures.Future` resolving to a :class:`WorkerOutcome`
— or raising one of the structured executor exceptions below, which the
supervisor maps onto its retry / recycle / degrade ladder:

* :class:`TaskCrash` — the worker process died.  The task is requeued and
  charged an attempt (``worker_fate`` *crashed*), but because the crash
  was isolated to one child, no pool recycle happens.
* :class:`RemoteTaskError` — the task ran in a worker child and raised;
  carries the child's exception type/message so the failure report looks
  the same as a pool worker's (``worker_fate`` *alive*).

``BrokenExecutor`` keeps its existing meaning — the backend as a whole is
unusable — and still drives the bounded recycle → degrade-to-serial path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Optional

from repro.config.system import SystemConfig
from repro.sim.engine import SimOptions
from repro.sim.results import SimResult
from repro.workloads.spec import BenchmarkSpec


@dataclass(frozen=True)
class WorkerTask:
    """Everything a worker needs to run one simulation.

    ``spec`` is ``None`` for registry benchmarks (the worker resolves
    ``benchmark`` by name, since most registry builders are closures that
    cannot be pickled) or the spec itself otherwise.  ``cache_key`` names
    the run: the coordinator stores the task's fresh result under it.
    """

    benchmark: str
    version: str
    spec: Optional[BenchmarkSpec]
    system: SystemConfig
    options: SimOptions
    cache_key: str


@dataclass(frozen=True)
class WorkerOutcome:
    """One finished task, as every backend reports it: the fresh result,
    its simulation wall time, and the stage-memo traffic of the process
    that ran it."""

    wall_s: float
    result: SimResult
    memo_hits: int = 0
    memo_misses: int = 0


class TaskCrash(RuntimeError):
    """The worker process running one task died (isolated to that task)."""


class RemoteTaskError(RuntimeError):
    """The task ran in a worker child and raised; the child's post-mortem."""

    def __init__(self, error_type: str, message: str):
        super().__init__(message)
        self.error_type = error_type
        self.message = message


class ExecutorBackend(ABC):
    """What the sweep supervisor needs from an execution substrate.

    Lifecycle: ``start(workers)`` once, then any number of ``submit`` /
    ``kill_task`` / ``recycle`` rounds, then ``shutdown()`` (idempotent,
    always called).  ``submit`` may raise ``BrokenExecutor`` when the
    backend as a whole is unusable — the supervisor then salvages
    finished futures and calls :meth:`recycle`, bounded by
    ``repro.experiments.parallel.MAX_POOL_REBUILDS``.
    """

    #: Short identifier (``local`` / ``subprocess``).
    name = "abstract"

    @abstractmethod
    def start(self, workers: int) -> None:
        """Provision capacity for ``workers`` concurrent tasks."""

    @abstractmethod
    def submit(self, task: WorkerTask) -> "Future[WorkerOutcome]":
        """Dispatch one task; the future resolves to a WorkerOutcome or
        raises one of the executor exceptions above."""

    def kill_task(self, future: "Future[WorkerOutcome]") -> bool:
        """Kill just the worker behind ``future`` (task timeout).

        Returns True when the kill was surgical — other in-flight tasks
        were untouched, so the supervisor need not recycle the backend.
        The base implementation cannot kill anything and returns False,
        which makes the supervisor fall back to a full recycle.
        """
        return False

    @abstractmethod
    def recycle(self) -> None:
        """Tear down and re-provision after a break (keeps ``workers``)."""

    @abstractmethod
    def shutdown(self) -> None:
        """Release everything; safe to call twice."""
