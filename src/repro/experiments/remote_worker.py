"""One-task worker child of the subprocess executor backend.

``python -m repro.experiments.remote_worker`` reads a single
``repro.executor.task/v2`` JSON document from stdin, simulates the one run
it describes, and writes a single ``repro.executor.result/v2`` reply to
stdout: a length-prefixed JSON header, then the result's cache entry
under the task's cache key (see :mod:`repro.experiments.executors.wire`).
The child opens no result cache; the coordinator stores what it returns.
stderr is free for diagnostics — the coordinator only shows it when the
worker dies.

Exit status contract (see ``SubprocessBackend._run_child``):

* 0 — a reply was written, ``ok`` true or false; simulation errors travel
  *inside* the reply so the coordinator can report a typed failure.
* non-zero — the worker died (crash, injected kill, unreadable stdin);
  the coordinator charges a ``WorkerCrash``.
"""

from __future__ import annotations

import os
import sys

from repro.experiments.executors.base import WireProtocolError, WorkerTask
from repro.experiments.executors.wire import (
    decode_task,
    encode_error,
    encode_outcome,
)
from repro.testing.faults import EXECUTOR_WORKER_ENV

#: Exit status when the task document itself cannot be decoded — a
#: coordinator/worker version skew, not a task failure.
EXIT_BAD_TASK = 65  # EX_DATAERR


def run_task(task: WorkerTask) -> bytes:
    """Execute one decoded task; returns the encoded reply."""
    from repro.experiments.parallel import run_worker_task

    try:
        return encode_outcome(run_worker_task(task), task.cache_key)
    except Exception as exc:  # a typed failure reply, never a dead worker
        return encode_error(
            task.benchmark, task.version, type(exc).__name__, str(exc) or repr(exc)
        )


def main() -> int:
    # Mark this process as an executor worker so the kill fault mode
    # (repro.testing.faults) is allowed to actually kill it.
    os.environ[EXECUTOR_WORKER_ENV] = "1"
    data = sys.stdin.buffer.read()
    try:
        task = decode_task(data)
    except WireProtocolError as exc:
        print(f"remote_worker: bad task document: {exc}", file=sys.stderr)
        return EXIT_BAD_TASK
    reply = run_task(task)
    sys.stdout.buffer.write(reply)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
