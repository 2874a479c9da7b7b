"""Pluggable executor backends for the sweep supervisor.

``local`` is a shared ``ProcessPoolExecutor``; ``subprocess`` spawns one
``multiprocessing`` child per task for crash isolation.  Both carry the
same pickled :class:`WorkerTask` and :class:`WorkerOutcome` over
multiprocessing pipes.  See :mod:`repro.experiments.executors.base` for
the protocol and docs/SWEEPS.md for the user-facing story
(``--backend``).
"""

from __future__ import annotations

from typing import Union

from repro.experiments.executors.base import (
    ExecutorBackend,
    RemoteTaskError,
    TaskCrash,
    WorkerOutcome,
    WorkerTask,
)
from repro.experiments.executors.local import LocalPoolBackend
from repro.experiments.executors.subproc import SubprocessBackend

#: ``--backend`` choices, in documentation order.
BACKENDS = ("local", "subprocess")


def create_backend(backend: Union[None, str, ExecutorBackend]) -> ExecutorBackend:
    """Resolve a ``--backend`` selection (or pass a live instance through)."""
    if isinstance(backend, ExecutorBackend):
        return backend
    if backend is None or backend == "local":
        return LocalPoolBackend()
    if backend == "subprocess":
        return SubprocessBackend()
    raise ValueError(f"unknown executor backend {backend!r}; choose from {BACKENDS}")


__all__ = [
    "BACKENDS",
    "ExecutorBackend",
    "LocalPoolBackend",
    "RemoteTaskError",
    "SubprocessBackend",
    "TaskCrash",
    "WorkerOutcome",
    "WorkerTask",
    "create_backend",
]
