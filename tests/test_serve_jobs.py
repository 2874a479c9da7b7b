"""Job store eviction safety and waiter wakeup semantics.

Eviction could drop a terminal job an SSE client was about to replay (its
GET then 404ed).  Now jobs with live waiters — and jobs inside a grace
window after finishing — are never evicted.  Waiters park on the job's
:class:`threading.Condition`, so these cases run them on threads.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.serve.jobs import DONE, QUEUED, RUNNING, Job, JobStore
from repro.serve.schemas import JobSpec


def _spec(seed: int = 0) -> JobSpec:
    return JobSpec(
        kind="sweep",
        benchmarks=("lonestar/bfs",),
        versions=("copy", "limited-copy"),
        scale=1 / 128,
        seed=seed,
    )


def _await_waiters(job: Job, count: int, timeout_s: float = 5.0) -> None:
    """Block until ``count`` threads are parked on ``job``."""
    deadline = time.monotonic() + timeout_s
    while job.waiters != count:
        assert time.monotonic() < deadline, f"{job.waiters} waiters, not {count}"
        time.sleep(0.001)


class TestEvictionSafety:
    def test_grace_window_shields_fresh_terminal_jobs(self):
        store = JobStore(max_jobs=1, evict_grace_s=60.0)
        first, _ = store.submit(_spec(seed=1))
        store.finish(first, DONE, result={})
        store.submit(_spec(seed=2))
        assert store.get(first.id) is not None

    def test_old_terminal_jobs_are_evicted_after_grace(self):
        store = JobStore(max_jobs=1, evict_grace_s=0.0)
        first, _ = store.submit(_spec(seed=1))
        store.finish(first, DONE, result={})
        store.submit(_spec(seed=2))
        assert store.get(first.id) is None

    def test_live_waiter_shields_a_finishing_job(self):
        """The 404 race: an SSE stream is parked on a running job; the job
        finishes and — before the waiter resumes — a submission triggers
        eviction.  The registered waiter must shield the job so its
        terminal replay still finds it.  Holding the job's condition
        across ``finish`` and the next ``submit`` keeps the woken waiter
        from resuming before eviction runs."""
        store = JobStore(max_jobs=1, evict_grace_s=0.0)
        first, _ = store.submit(_spec(seed=1))
        store.mark_running(first)
        with ThreadPoolExecutor(max_workers=1) as pool:
            waiter = pool.submit(first.wait_events, len(first.events), 5.0)
            _await_waiters(first, 1)
            with first.changed:
                store.finish(first, DONE, result={})
                store.submit(_spec(seed=2))
                survived = store.get(first.id) is not None
            events, terminal = waiter.result(timeout=5.0)
        assert survived
        assert terminal is True
        assert [e["event"] for e in events] == ["finished"]
        assert first.waiters == 0  # the finished waiter deregistered itself

    def test_running_jobs_are_never_evicted(self):
        store = JobStore(max_jobs=1, evict_grace_s=0.0)
        first, _ = store.submit(_spec(seed=1))
        store.mark_running(first)
        store.submit(_spec(seed=2))
        job = store.get(first.id)
        assert job is not None and job.status == RUNNING


class TestWaiterWakeups:
    def test_publish_wakes_every_parked_waiter(self):
        job = Job(id="j", spec=_spec(), content_hash="h")
        with ThreadPoolExecutor(max_workers=4) as pool:
            waiters = [pool.submit(job.wait_events, 0, 5.0) for _ in range(4)]
            _await_waiters(job, 4)
            job.publish("progress", completed=1)
            replies = [waiter.result(timeout=5.0) for waiter in waiters]
        for events, terminal in replies:
            assert [e["event"] for e in events] == ["progress"]
            assert terminal is False

    def test_waiters_across_epochs_see_their_events(self):
        job = Job(id="j", spec=_spec(), content_hash="h")
        with ThreadPoolExecutor(max_workers=1) as pool:
            early = pool.submit(job.wait_events, 0, 5.0)
            _await_waiters(job, 1)
            job.publish("one")
            early.result(timeout=5.0)
            # A waiter arriving after the first publish parks again and
            # still wakes on the next one.
            late = pool.submit(job.wait_events, 1, 5.0)
            _await_waiters(job, 1)
            job.publish("two")
            events, _ = late.result(timeout=5.0)
        assert [e["event"] for e in events] == ["two"]

    def test_wait_events_times_out_without_events(self):
        job = Job(id="j", spec=_spec(), content_hash="h")
        events, terminal = job.wait_events(0, timeout=0.01)
        assert events == [] and terminal is False

    def test_no_timeout_wait_blocks_until_publish(self):
        job = Job(id="j", spec=_spec(), content_hash="h")
        with ThreadPoolExecutor(max_workers=1) as pool:
            waiter = pool.submit(job.wait_events, 0, None)
            _await_waiters(job, 1)
            assert not waiter.done()
            job.publish("event")
            events, _ = waiter.result(timeout=5.0)
        assert len(events) == 1

    def test_job_starts_queued(self):
        job = Job(id="j", spec=_spec(), content_hash="h")
        assert job.status == QUEUED and not job.terminal


class TestConcurrentSubmissions:
    def test_racing_duplicates_coalesce_onto_one_job(self):
        """More submitting threads than cores, released together for each
        content hash and switching every microsecond: a lost update would
        create a second job for a hash or drop a submission from its
        count."""
        store = JobStore()
        threads, rounds = 8, 50
        barrier = threading.Barrier(threads)

        def submit_every_round(_):
            replies = []
            for seed in range(rounds):
                barrier.wait(timeout=10.0)
                replies.append(store.submit(_spec(seed=seed)))
            return replies

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                per_thread = list(
                    pool.map(submit_every_round, range(threads), timeout=60.0)
                )
        finally:
            sys.setswitchinterval(interval)
        for seed in range(rounds):
            replies = [thread_replies[seed] for thread_replies in per_thread]
            assert len({job.id for job, _ in replies}) == 1, seed
            assert [coalesced for _, coalesced in replies].count(False) == 1
            assert replies[0][0].submissions == threads
        assert len(store) == rounds
