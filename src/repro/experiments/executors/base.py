"""Executor backend protocol for the sweep supervisor.

The fault supervisor in :mod:`repro.experiments.parallel` used to own a
``ProcessPoolExecutor`` outright.  This package splits "how a task gets
executed" from "how failures are retried": the supervisor speaks only to
an :class:`ExecutorBackend`, and a backend turns one :class:`WorkerTask`
into a :class:`concurrent.futures.Future` resolving to a
:class:`WorkerOutcome` — or raising one of the structured executor
exceptions below, which the supervisor maps onto its existing retry /
recycle / degrade ladder:

* :class:`TaskCrash` — the worker process died.  The task is requeued and
  charged an attempt (``worker_fate`` *crashed*), but because the crash
  was isolated to one child, no pool recycle happens.
* :class:`RemoteTaskError` — the task ran in a worker child and raised;
  carries the child's exception type/message so the failure report looks
  the same as a pool worker's (``worker_fate`` *alive*).
* :class:`WireProtocolError` — the worker's reply could not be decoded,
  or its result entry is damaged or keyed to another task; surfaces as a
  structured retryable failure, never a coordinator crash.

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


@dataclass(frozen=True)
class WorkerTask:
    """Everything a worker needs to run one simulation.

    ``spec_blob`` is ``None`` for registry benchmarks (the worker
    re-resolves ``benchmark`` by name) or a pickled spec otherwise.
    ``cache_key`` names the run: a worker child keys the result it sends
    back with it, and the coordinator refuses a reply keyed otherwise.
    """

    benchmark: str
    version: str
    spec_blob: Optional[bytes]
    system: SystemConfig
    options: SimOptions
    cache_key: str


@dataclass(frozen=True)
class WorkerOutcome:
    """One finished task, as every backend reports it: the fresh result,
    its simulation wall time, and the stage-memo traffic of the process
    that ran it."""

    benchmark: str
    version: str
    wall_s: float
    result: SimResult
    memo_hits: int = 0
    memo_misses: int = 0


class ExecutorError(RuntimeError):
    """Base of the structured executor failures."""


class TaskCrash(ExecutorError):
    """The worker process running one task died (isolated to that task)."""


class WireProtocolError(ExecutorError):
    """A worker's reply (or a task payload) could not be decoded."""


class RemoteTaskError(ExecutorError):
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
    ``FaultPolicy.max_pool_rebuilds``.
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
