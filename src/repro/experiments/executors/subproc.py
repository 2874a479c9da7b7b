"""Per-task child-process backend.

Each submitted task launches one ``python -m repro.experiments.remote_worker``
child, writes the pickled :class:`WorkerTask` to its stdin — the record
and encoding the local pool's pipe carries — and decodes the single reply
from its stdout in the launcher thread: the result's cache entry, checked
against the task's cache key (the reply format of
:mod:`~repro.experiments.executors.wire`).  Children are fully isolated:
a crash (or a supervisor task-timeout kill) takes down exactly one task,
so — unlike the shared process pool — no backend recycle is needed and
other in-flight tasks keep running.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.experiments.executors.base import (
    ExecutorBackend,
    TaskCrash,
    WorkerOutcome,
    WorkerTask,
)
from repro.experiments.executors.wire import decode_result

#: The worker module each child runs (`python -m ...`).
WORKER_MODULE = "repro.experiments.remote_worker"


def _stderr_tail(err: bytes, limit: int = 400) -> str:
    text = err.decode("utf-8", errors="replace").strip()
    return text[-limit:] if text else "(no stderr)"


class _ChildHandle:
    """Mutable rendezvous between submit/kill (supervisor thread) and the
    launcher thread: which Popen backs a future, and whether the
    supervisor asked for its death before/after launch."""

    __slots__ = ("proc", "killed")

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = None
        self.killed = False


class SubprocessBackend(ExecutorBackend):
    """``--backend subprocess``: one local worker child per task.

    ``worker_cmd`` replaces the child's command line (default: this
    interpreter running :data:`WORKER_MODULE`).
    """

    name = "subprocess"

    def __init__(self, worker_cmd: Optional[Sequence[str]] = None) -> None:
        self._worker_cmd = list(worker_cmd) if worker_cmd else [
            sys.executable, "-m", WORKER_MODULE
        ]
        self._threads: Optional[ThreadPoolExecutor] = None
        self._workers = 1
        self._guard = threading.Lock()
        self._handles: Dict["Future[WorkerOutcome]", _ChildHandle] = {}

    def _child_env(self) -> Dict[str, str]:
        # A source checkout run with PYTHONPATH=src must spawn workers that
        # can import repro too, wherever the coordinator found it.
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[3])
        existing = env.get("PYTHONPATH")
        if package_root not in (existing or "").split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        return env

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
        handle.killed = True
        if handle.proc is not None:
            try:
                handle.proc.kill()
            except OSError:
                pass
        return True  # surgical: only this task's child dies

    def recycle(self) -> None:
        self.shutdown()
        self._threads = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix=f"repro-{self.name}"
        )

    def shutdown(self) -> None:
        with self._guard:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.killed = True
            if handle.proc is not None:
                try:
                    handle.proc.kill()
                except OSError:
                    pass
        if self._threads is not None:
            self._threads.shutdown(wait=True, cancel_futures=True)
            self._threads = None

    # -- the launcher thread body -------------------------------------------

    def _run_child(self, task: WorkerTask, handle: _ChildHandle) -> WorkerOutcome:
        if handle.killed:
            raise TaskCrash("killed before launch")
        payload = pickle.dumps(task)
        try:
            proc = subprocess.Popen(
                self._worker_cmd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=self._child_env(),
            )
        except OSError as exc:
            raise TaskCrash(f"cannot launch worker: {exc}") from exc
        handle.proc = proc
        if handle.killed:  # kill raced the launch
            proc.kill()
        try:
            out, err = proc.communicate(payload)
        except (OSError, ValueError) as exc:
            proc.kill()
            proc.wait()
            raise TaskCrash(f"worker pipe failed: {exc}") from exc
        if handle.killed:
            raise TaskCrash("worker killed by supervisor")
        rc = proc.returncode
        if rc != 0:
            raise TaskCrash(f"worker exited {rc}: {_stderr_tail(err)}")
        return decode_result(out, task.cache_key)
