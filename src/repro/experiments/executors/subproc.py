"""Per-task child-process backend.

Each submitted task starts one child from
``multiprocessing.get_context("spawn")``: a fresh interpreter, holding
none of the coordinator's threads or memo state, that receives the
:class:`WorkerTask` pickled — the record and encoding the local pool's
pipe carries — runs :func:`~repro.experiments.parallel.run_worker_task`
on it and sends one reply back over a one-way pipe.  A task that raises
comes back as :class:`RemoteTaskError`; a child that dies before it
replies (a crash, an injected kill, a supervisor task-timeout kill)
surfaces as :class:`TaskCrash` naming its exit status.  Children are
fully isolated: a crash takes down exactly one task, so — unlike the
shared process pool — no backend recycle is needed and other in-flight
tasks keep running.

Spawn re-imports the coordinator's ``__main__`` module in every child,
so a script that drives this backend needs an
``if __name__ == "__main__":`` guard.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from multiprocessing.connection import Connection
from typing import Dict, Optional

from repro.experiments.executors.base import (
    ExecutorBackend,
    RemoteTaskError,
    TaskCrash,
    WorkerOutcome,
    WorkerTask,
)

_SPAWN = multiprocessing.get_context("spawn")


def _child_main(task: WorkerTask, reply: Connection) -> None:
    """A worker child's body: run ``task`` and send ``(True, outcome)``,
    or ``(False, (error type, message))`` when the task raises."""
    # Imported here: the supervisor module imports this package.
    from repro.experiments.parallel import run_worker_task

    try:
        message = (True, run_worker_task(task))
    except Exception as exc:  # a typed failure reply, never a dead worker
        message = (False, (type(exc).__name__, str(exc) or repr(exc)))
    reply.send(message)


class _ChildHandle:
    """Mutable rendezvous between submit/kill (supervisor thread) and the
    launcher thread: which process backs a future, and whether the
    supervisor asked for its death before/after launch."""

    __slots__ = ("proc", "killed")

    def __init__(self) -> None:
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.killed = False

    def kill(self) -> None:
        self.killed = True
        if self.proc is not None:
            self.proc.kill()


class SubprocessBackend(ExecutorBackend):
    """``--backend subprocess``: one spawned worker child per task."""

    name = "subprocess"

    def __init__(self) -> None:
        self._threads: Optional[ThreadPoolExecutor] = None
        self._workers = 1
        self._guard = threading.Lock()
        self._handles: Dict["Future[WorkerOutcome]", _ChildHandle] = {}

    # -- ExecutorBackend ----------------------------------------------------

    def start(self, workers: int) -> None:
        self._workers = max(1, workers)
        self._threads = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix=f"repro-{self.name}"
        )

    def submit(self, task: WorkerTask) -> "Future[WorkerOutcome]":
        if self._threads is None:
            raise RuntimeError("backend not started")
        handle = _ChildHandle()
        future = self._threads.submit(self._run_child, task, handle)
        with self._guard:
            # The supervisor keeps in-flight <= workers, so pruning done
            # futures on each submit bounds the table at pool width.
            for done in [f for f in self._handles if f.done()]:
                del self._handles[done]
            self._handles[future] = handle
        return future

    def kill_task(self, future: "Future[WorkerOutcome]") -> bool:
        with self._guard:
            handle = self._handles.get(future)
        if handle is None:
            return False
        handle.kill()
        return True  # surgical: only this task's child dies

    def recycle(self) -> None:
        self.shutdown()
        self.start(self._workers)

    def shutdown(self) -> None:
        with self._guard:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.kill()
        if self._threads is not None:
            self._threads.shutdown(wait=True, cancel_futures=True)
            self._threads = None

    # -- the launcher thread body -------------------------------------------

    @staticmethod
    def _run_child(task: WorkerTask, handle: _ChildHandle) -> WorkerOutcome:
        receiver, sender = _SPAWN.Pipe(duplex=False)
        proc = _SPAWN.Process(target=_child_main, args=(task, sender), daemon=True)
        try:
            proc.start()
        except OSError as exc:
            receiver.close()
            raise TaskCrash(f"cannot launch worker: {exc}") from exc
        finally:
            # The child holds its own copy: once it exits, recv() sees EOF.
            sender.close()
        handle.proc = proc
        if handle.killed:  # a kill arrived before the child existed
            proc.kill()
        try:
            reply = receiver.recv()
        except (EOFError, OSError):
            reply = None  # the child died before it replied
        finally:
            receiver.close()
            proc.join()
        if reply is None:
            raise TaskCrash(f"worker exited {proc.exitcode}")
        ok, payload = reply
        if ok:
            return payload
        raise RemoteTaskError(*payload)
