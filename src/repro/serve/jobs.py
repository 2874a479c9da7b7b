"""In-memory job store with content-hash single-flight dedup.

Every submitted job is keyed by its :meth:`JobSpec.content_hash`; while a
job for a hash is still queued or running, further submissions of the
same hash *coalesce* onto it — one computation, many waiters — mirroring
how CrystalGPU transparently shares identical in-flight GPU work.  Once a
job reaches a terminal state its hash is released: a later identical
submission creates a fresh job, which the content-addressed
:class:`~repro.sim.resultcache.ResultCache` then answers warm without
re-simulating.

Request threads submit and read while executor threads run jobs, so the
store guards its index with one lock, and each job guards its status and
events with its own :class:`threading.Condition`, on which progress
consumers (SSE streams) wait.  ``finish`` holds both while it sets a
job's terminal status, appends its ``finished`` event and releases its
hash, so no reader sees one of the three without the others.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.schemas import JOB_SCHEMA, JobSpec

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"  # every run completed
PARTIAL = "partial"  # some runs completed, some failed (PR 5 contract)
FAILED = "failed"  # nothing completed
TERMINAL_STATES = frozenset({DONE, PARTIAL, FAILED})


@dataclass
class Job:
    """One accepted job and everything observable about it."""

    id: str
    spec: JobSpec
    content_hash: str
    status: str = QUEUED
    #: How many submissions this job absorbed (1 = no duplicates).
    submissions: int = 1
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Monotonic progress events ({"seq": n, "event": ..., ...}).
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Terminal payload: per-run results plus structured failures.
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Live waiters (SSE streams) — a nonzero count shields the job from
    #: store eviction so their terminal replay cannot 404.
    waiters: int = 0
    #: Held while the status, timestamps, events, result or waiters
    #: change; notified on every published event.
    changed: threading.Condition = field(
        default_factory=threading.Condition, repr=False, compare=False
    )

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def describe(self, *, include_result: bool = True) -> Dict[str, Any]:
        with self.changed:
            body: Dict[str, Any] = {
                "schema": JOB_SCHEMA,
                "id": self.id,
                "content_hash": self.content_hash,
                "status": self.status,
                "submissions": self.submissions,
                "job": self.spec.describe(),
                "runs": self.spec.runs,
                "events": len(self.events),
                "created_unix": self.created_s,
            }
            if self.started_s is not None:
                body["started_unix"] = self.started_s
            if self.finished_s is not None:
                body["finished_unix"] = self.finished_s
                body["wall_s"] = self.finished_s - (self.started_s or self.created_s)
            if self.error is not None:
                body["error"] = self.error
            if include_result and self.result is not None:
                body["result"] = self.result
            return body

    def publish(self, event: str, **data: Any) -> None:
        """Append one progress event and wake every waiter."""
        with self.changed:
            self.events.append({"seq": len(self.events), "event": event, **data})
            self.changed.notify_all()

    def wait_events(
        self, after_seq: int, timeout: Optional[float] = None
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Events past ``after_seq``; blocks until there are any, the job
        is terminal, or ``timeout`` elapses.  Returns ``(events, terminal)``."""
        with self.changed:
            self.waiters += 1
            try:
                self.changed.wait_for(
                    lambda: len(self.events) > after_seq or self.terminal, timeout
                )
            finally:
                self.waiters -= 1
            return list(self.events[after_seq:]), self.terminal


class JobStore:
    """All jobs of one server process, with in-flight dedup by hash."""

    def __init__(
        self, max_jobs: int = 10_000, evict_grace_s: float = 60.0
    ) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, str] = {}  # content hash -> job id
        self._ids = itertools.count(1)
        self._max_jobs = max_jobs
        #: Terminal jobs younger than this are never evicted — a client
        #: that just watched a job finish gets a window to fetch the
        #: terminal payload without racing eviction into a 404.
        self._evict_grace_s = evict_grace_s

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def submit(self, spec: JobSpec) -> Tuple[Job, bool]:
        """Register a submission; returns ``(job, coalesced)``.

        ``coalesced`` is True when an in-flight job for the same content
        hash absorbed this submission instead of creating a new job.
        """
        content_hash = spec.content_hash()
        with self._lock:
            existing_id = self._inflight.get(content_hash)
            if existing_id is not None:
                job = self._jobs[existing_id]
                job.submissions += 1
                return job, True
            job = Job(
                id=f"job-{next(self._ids):06d}",
                spec=spec,
                content_hash=content_hash,
            )
            self._jobs[job.id] = job
            self._inflight[content_hash] = job.id
            self._evict_finished()
            return job, False

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.jobs():
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    def mark_running(self, job: Job) -> None:
        with job.changed:
            job.status = RUNNING
            job.started_s = time.time()
            job.publish("started")

    def finish(
        self,
        job: Job,
        status: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Move a job to a terminal state and release its dedup slot."""
        if status not in TERMINAL_STATES:
            raise ValueError(f"not a terminal state: {status!r}")
        with self._lock, job.changed:
            job.result = result
            job.error = error
            job.finished_s = time.time()
            job.status = status
            job.publish("finished", status=status)
            if self._inflight.get(job.content_hash) == job.id:
                del self._inflight[job.content_hash]

    def _evict_finished(self) -> None:
        """Drop the oldest terminal jobs once the store exceeds its cap.

        In-flight jobs are never evicted — the cap only bounds how much
        history a long-running server retains for status polls.  Two more
        shields keep eviction from racing live readers into a 404:

        * jobs with registered ``waiters`` (an SSE stream about to replay
          the terminal event) are skipped, and
        * jobs inside the ``evict_grace_s`` window after finishing are
          skipped, covering the client that saw "finished" and is about
          to GET the result.

        Both shields may leave the store over its cap temporarily; the
        next submission re-runs eviction once the shields lapse.
        """
        excess = len(self._jobs) - self._max_jobs
        if excess <= 0:
            return
        now = time.time()
        finished = sorted(
            (
                job
                for job in self._jobs.values()
                if job.terminal
                and job.waiters == 0
                and now - (job.finished_s or job.created_s)
                >= self._evict_grace_s
            ),
            key=lambda job: job.finished_s or job.created_s,
        )
        for job in finished[:excess]:
            del self._jobs[job.id]
