"""One-task worker child of the subprocess executor backend.

``python -m repro.experiments.remote_worker`` reads a single
``repro.executor.task/v1`` JSON document from stdin, runs (or answers from
its local result cache) the one simulation it describes, and writes a
single ``repro.executor.result/v1`` document to stdout.  stderr is free
for diagnostics — the coordinator only shows it when the worker dies.

Exit status contract (see ``SubprocessBackend._run_child``):

* 0 — a reply was written, ``ok`` true or false; simulation errors travel
  *inside* the payload so the coordinator can report a typed failure.
* non-zero — the worker died (crash, injected kill, unreadable stdin);
  the coordinator charges a ``WorkerCrash``.

With a cache directory in the task, the worker stores its fresh result
there *and* ships the stored entry bytes back (``sync_cache``), which is
how a sweep leaves the worker cache and the coordinator's both warm for
the next run.
"""

from __future__ import annotations

import os
import socket
import sys
from dataclasses import replace

from repro.experiments.executors.base import (
    WireProtocolError,
    WorkerOutcome,
    WorkerTask,
)
from repro.experiments.executors.wire import (
    decode_task,
    encode_error,
    encode_outcome,
)
from repro.testing.faults import EXECUTOR_WORKER_ENV

#: Exit status when the task document itself cannot be decoded — a
#: coordinator/worker version skew, not a task failure.
EXIT_BAD_TASK = 65  # EX_DATAERR


def run_task(task: WorkerTask, host: str) -> bytes:
    """Execute one decoded task; returns the encoded reply document."""
    from repro.experiments.parallel import run_worker_task
    from repro.sim.resultcache import ResultCache

    try:
        cache = ResultCache(task.cache_dir) if task.cache_dir else None
        if cache is not None:
            entry = cache.load(task.cache_key)
            if entry is not None:
                sync_bytes = None
                if task.sync_cache:
                    try:
                        sync_bytes = cache.path_for(task.cache_key).read_bytes()
                    except OSError:
                        pass  # entry vanished underneath us; ship the result
                return encode_outcome(
                    WorkerOutcome(
                        benchmark=task.benchmark,
                        version=task.version,
                        wall_s=entry.sim_wall_s,
                        host=host,
                        cache_hit=True,
                        entry_bytes=sync_bytes,
                        result=None if sync_bytes is not None else entry.result,
                    )
                )
        outcome = run_worker_task(task, host)
        if cache is not None:
            path = cache.store(
                task.cache_key, outcome.result, sim_wall_s=outcome.wall_s
            )
            if task.sync_cache:
                outcome = replace(
                    outcome, result=None, entry_bytes=path.read_bytes()
                )
        return encode_outcome(outcome)
    except Exception as exc:  # a typed failure reply, never a dead worker
        return encode_error(
            task.benchmark,
            task.version,
            type(exc).__name__,
            str(exc) or repr(exc),
            host=host,
        )


def main() -> int:
    # Mark this process as an executor worker so the kill fault mode
    # (repro.testing.faults) is allowed to actually kill it.
    os.environ[EXECUTOR_WORKER_ENV] = "1"
    host = socket.gethostname() or "worker"
    data = sys.stdin.buffer.read()
    try:
        task = decode_task(data)
    except WireProtocolError as exc:
        print(f"remote_worker: bad task document: {exc}", file=sys.stderr)
        return EXIT_BAD_TASK
    reply = run_task(task, host)
    sys.stdout.buffer.write(reply)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
