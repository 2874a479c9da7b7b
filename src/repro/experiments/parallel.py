"""Parallel, cache-backed, fault-tolerant execution of the 46x2 sweep.

The sweep is embarrassingly parallel: each (benchmark, version) simulation
is independent, so this module fans tasks out through a pluggable
:class:`~repro.experiments.executors.ExecutorBackend` — the default
``local`` backend is a ``concurrent.futures.ProcessPoolExecutor``;
``subprocess`` spawns one ``multiprocessing`` child per task
(``--backend``) — and funnels finished results through the persistent
:class:`~repro.sim.resultcache.ResultCache`.  The coordinator resolves
cache hits before dispatch; every backend hands back a
:class:`~repro.sim.results.SimResult`, and the coordinator stores each
fresh one as it completes — workers never touch the cache.

Every backend receives the same :class:`WorkerTask`, built once per task
that missed the cache.  Most benchmark specs hold closure-based pipeline
builders that cannot be pickled, so a registry benchmark's task carries
no spec and its worker resolves ``suite/name`` from the registry.
Unregistered specs (e.g. user-defined benchmarks) travel inside the task
when they pickle and run in the parent process otherwise — the sweep
always completes.

Tasks also *fail* independently.  One supervisor loop (see
:func:`run_tasks`) catches per-future exceptions instead of letting one
bad task abort the fleet, retries failures with capped exponential
backoff, enforces an optional per-task wall-clock timeout (hung workers
are killed and the pool recycled), and recovers from ``BrokenProcessPool``
by rebuilding the pool.  After repeated breaks it hands the leftover tasks
to the same loop over an in-parent backend of width 1 — which is also how
``jobs=1`` runs.  Whatever cannot be completed is reported as a structured
:class:`TaskFailure` on the returned :class:`SweepMetrics`; everything
that did finish is returned and cached.  The policy knobs live on
:class:`FaultPolicy` and surface on every CLI sweep command as
``--max-retries`` / ``--task-timeout`` / ``--fail-fast`` (see
docs/SWEEPS.md).
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    wait,
)
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config.system import SystemConfig
from repro.experiments.executors import (
    ExecutorBackend,
    RemoteTaskError,
    TaskCrash,
    WorkerOutcome,
    WorkerTask,
    create_backend,
)
from repro.pipeline.transforms import remove_copies
from repro.sim.engine import SimOptions, simulate
from repro.sim.memo import stage_memo_snapshot
from repro.sim.resultcache import ResultCache, cache_key
from repro.sim.results import SimResult
from repro.testing.faults import maybe_inject
from repro.workloads import registry
from repro.workloads.spec import BenchmarkSpec

#: Patchable sleep seam (tests fake it to observe honored backoffs
#: without actually waiting).
_sleep = time.sleep

COPY = "copy"
LIMITED = "limited-copy"
VERSIONS = (COPY, LIMITED)

#: ``TaskFailure.worker_fate`` values — what happened to the process that
#: was running the task when it finally failed.
FATE_ALIVE = "alive"  # worker survived and returned the exception
FATE_CRASHED = "crashed"  # worker process died (pool broken)
FATE_TIMED_OUT = "timed-out"  # killed by the supervisor's task timeout
FATE_IN_PARENT = "in-parent"  # ran serially in the parent process
FATE_CANCELLED = "cancelled"  # never ran: abandoned by --fail-fast


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a jobs request: None -> 1 (serial), <=0 -> every CPU this
    process may run on (its affinity mask, where the platform has one)."""
    if jobs is None:
        return 1
    if jobs <= 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class FaultPolicy:
    """How a sweep reacts to failing, hanging, or crashing tasks.

    Args:
        max_retries: additional attempts a failing task gets before it is
            reported as a :class:`TaskFailure` (0 = one attempt, no retry).
        task_timeout_s: wall-clock budget for a single pooled simulation;
            a task exceeding it has its worker killed, the pool recycled,
            and the task retried (``None`` disables the timeout; in-parent
            serial execution cannot be interrupted, so the timeout only
            applies to pool workers).
        fail_fast: stop dispatching new work as soon as any task exhausts
            its retries.  Results already finished (and those of tasks
            still in flight) are kept; undispatched tasks are reported as
            ``cancelled`` failures.
        backoff_base_s: first retry delay; doubles per failed attempt.
        backoff_cap_s: ceiling on the exponential backoff delay.
        max_pool_rebuilds: ``BrokenProcessPool`` recoveries tolerated
            before the sweep degrades to in-parent serial execution.
    """

    max_retries: int = 2
    task_timeout_s: Optional[float] = None
    fail_fast: bool = False
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 8.0
    max_pool_rebuilds: int = 2

    def backoff_s(self, failed_attempts: int) -> float:
        """Capped exponential delay before retry number ``failed_attempts``."""
        if self.backoff_base_s <= 0:
            return 0.0
        return min(
            self.backoff_base_s * (2 ** max(0, failed_attempts - 1)),
            self.backoff_cap_s,
        )


@dataclass(frozen=True)
class TaskFailure:
    """One task that could not be completed, with its post-mortem."""

    benchmark: str
    version: str
    error_type: str
    message: str
    attempts: int
    worker_fate: str  # one of the FATE_* constants above

    def describe(self) -> str:
        return (
            f"{self.benchmark}:{self.version} failed after "
            f"{self.attempts} attempt(s) [{self.worker_fate}] "
            f"{self.error_type}: {self.message}"
        )


class SweepError(RuntimeError):
    """A requested simulation failed after exhausting its retries.

    Raised by :class:`~repro.experiments.runner.SweepRunner` accessors that
    must return a result; carries the structured failures behind it.
    """

    def __init__(self, message: str, failures: Sequence[TaskFailure] = ()):
        super().__init__(message)
        self.failures = list(failures)


@dataclass(frozen=True)
class SweepTask:
    """One (benchmark, version) simulation to perform."""

    spec: BenchmarkSpec
    version: str

    @property
    def full_name(self) -> str:
        return self.spec.full_name


@dataclass
class SweepMetrics:
    """What one sweep invocation did, for the per-sweep progress line."""

    total: int = 0
    launched: int = 0
    cache_hits: int = 0
    memo_hits: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    #: Sum of per-simulation wall times (fresh runs measured, cache hits
    #: restored from their stored time) — what a serial, uncached sweep of
    #: the same tasks would have cost.
    serial_estimate_s: float = 0.0
    #: Attempts beyond the first that the fault supervisor scheduled.
    retries: int = 0
    #: Times the process pool was torn down and rebuilt (worker crash or
    #: task timeout).
    pool_rebuilds: int = 0
    #: Stage-level memoization traffic (repro.sim.memo) of the fresh
    #: simulations this sweep launched: per-stage memory steps replayed
    #: instead of recomputed, and steps computed and recorded.  Pool
    #: workers count their own (per-process) memos; in-parent runs count
    #: the parent's shared memo.
    stage_memo_hits: int = 0
    stage_memo_misses: int = 0
    #: Fresh results the result cache failed to store (an ``OSError``:
    #: disk full, read-only or missing directory); they are still
    #: returned, only not persisted.
    not_cached: int = 0
    failures: List[TaskFailure] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def cancelled(self) -> int:
        return sum(1 for f in self.failures if f.worker_fate == FATE_CANCELLED)

    @property
    def speedup_estimate(self) -> float:
        return self.serial_estimate_s / self.wall_s if self.wall_s > 0 else 0.0

    def format_line(self) -> str:
        parts = [
            f"{self.total} runs",
            f"{self.launched} simulated",
            f"{self.cache_hits} cache hits",
        ]
        if self.memo_hits:
            parts.append(f"{self.memo_hits} memo hits")
        if self.stage_memo_hits:
            parts.append(f"{self.stage_memo_hits} stage-memo hits")
        if self.not_cached:
            parts.append(f"{self.not_cached} not cached")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.failures:
            parts.append(f"{self.failed} failed")
        line = (
            f"sweep: {', '.join(parts)} in {self.wall_s:.1f}s "
            f"[jobs={self.jobs}]"
        )
        if self.serial_estimate_s > 0:
            line += f"; serial estimate {self.serial_estimate_s:.1f}s"
            if self.wall_s > 0:
                line += f" ({self.speedup_estimate:.1f}x)"
        return line


def _system_for(
    version: str, discrete: SystemConfig, heterogeneous: SystemConfig
) -> SystemConfig:
    if version not in VERSIONS:
        raise ValueError(f"unknown version {version!r}; choose from {VERSIONS}")
    return discrete if version == COPY else heterogeneous


def _simulate_version(
    spec: BenchmarkSpec,
    version: str,
    system: SystemConfig,
    options: SimOptions,
) -> Tuple[SimResult, float]:
    start = time.perf_counter()
    # Deterministic fault-injection hook (no-op unless $REPRO_FAULTS is
    # set): the only seam the robustness tests need, wherever a task runs.
    maybe_inject(spec.full_name, version)
    pipeline = spec.pipeline()
    if version == LIMITED:
        pipeline = remove_copies(pipeline)
    result = simulate(pipeline, system, options)
    return result, time.perf_counter() - start


def run_worker_task(task: WorkerTask) -> WorkerOutcome:
    """Simulate one task: the body every executor backend runs.

    The spec is ``task.spec``, or the registry entry named
    ``task.benchmark`` when that is ``None``.  The outcome carries the
    run's stage-memo (hits, misses) delta of *this* process's memo.
    """
    spec = task.spec if task.spec is not None else registry.get(task.benchmark)
    before = stage_memo_snapshot()
    result, wall_s = _simulate_version(spec, task.version, task.system, task.options)
    after = stage_memo_snapshot()
    return WorkerOutcome(
        wall_s=wall_s,
        result=result,
        memo_hits=after[0] - before[0],
        memo_misses=after[1] - before[1],
    )


class _InParentBackend(ExecutorBackend):
    """Width-1 backend that runs each task in this process.

    ``submit`` simulates before it returns, so every future it hands out
    is already resolved: task timeouts cannot interrupt it, and a failure
    surfaces as the future's exception (``worker_fate="in-parent"``).
    Tasks never leave this process, so specs that cannot be pickled run
    here too.
    """

    name = "in-parent"

    def start(self, workers: int) -> None:
        pass

    def submit(self, task: WorkerTask) -> "Future[WorkerOutcome]":
        future: "Future[WorkerOutcome]" = Future()
        try:
            future.set_result(run_worker_task(task))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def recycle(self) -> None:
        pass

    def shutdown(self) -> None:
        pass


def _task_spec(spec: BenchmarkSpec) -> Optional[BenchmarkSpec]:
    """``WorkerTask.spec`` for ``spec``: None for a registry benchmark,
    which its worker resolves by name, else the spec itself."""
    try:
        registered = registry.get(spec.full_name) is spec
    except KeyError:
        registered = False
    return None if registered else spec


def _poolable(task: WorkerTask) -> bool:
    """Whether a worker process can receive ``task``: a spec it carries
    must pickle.  Only genuine can't-pickle errors keep a task in the
    parent; anything else (a broken ``__reduce__``) must surface instead
    of silently degrading."""
    if task.spec is None:
        return True
    try:
        pickle.dumps(task.spec)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True


def _attempt_failure(exc: Exception, in_parent: bool) -> Tuple[str, str, str]:
    """``(error_type, message, worker_fate)`` of one failed attempt.

    In-parent, every exception is the task's own: no worker can crash or
    break a pool there, whatever the exception type.
    """
    if in_parent:
        return type(exc).__name__, str(exc) or repr(exc), FATE_IN_PARENT
    if isinstance(exc, (BrokenExecutor, TaskCrash)):
        return "WorkerCrash", str(exc) or "worker process died", FATE_CRASHED
    if isinstance(exc, RemoteTaskError):
        return exc.error_type, exc.message, FATE_ALIVE
    return type(exc).__name__, str(exc) or repr(exc), FATE_ALIVE


@dataclass
class _TaskState:
    """Supervisor bookkeeping for one task that missed the cache."""

    task: WorkerTask
    attempts: int = 0
    ready_at: float = 0.0  # monotonic time when eligible to (re)submit
    started_at: float = 0.0  # monotonic submit time of the current attempt


def run_tasks(
    tasks: Sequence[SweepTask],
    *,
    discrete: SystemConfig,
    heterogeneous: SystemConfig,
    options: SimOptions,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    policy: Optional[FaultPolicy] = None,
    backend: Union[None, str, ExecutorBackend] = None,
    progress: Optional[Callable[[SweepMetrics], None]] = None,
) -> Tuple[Dict[Tuple[str, str], SimResult], SweepMetrics]:
    """Execute a batch of sweep tasks, parallel, cache-aware, fault-tolerant.

    Returns results keyed by ``(full_name, version)`` plus the metrics of
    this invocation.  With ``jobs`` resolving to 1 (or a single task to
    run) the batch runs in the parent process, through the same supervisor
    loop and bit-identical to the pooled path — simulations are
    deterministic and every backend runs :func:`run_worker_task`.

    ``progress``, when given, is called with the batch's metrics so far
    after the cache pass (if it resolved any task) and after every task
    that completes or fails for good; ``launched + cache_hits + failed``
    of ``total`` tasks are then done.  It runs on the calling thread and
    delays the sweep for as long as it takes.

    ``backend`` selects the execution substrate when the batch pools
    (``local`` process pool by default; ``subprocess`` for one spawned
    worker child per task — or pass a live
    :class:`~repro.experiments.executors.ExecutorBackend`).  Fault
    semantics are backend-independent; ``jobs`` always bounds total
    in-flight tasks.

    A failing task never aborts the batch: it is retried per ``policy``
    (default :class:`FaultPolicy`) and, once its retries are exhausted,
    reported as a :class:`TaskFailure` on ``metrics.failures`` while the
    rest of the sweep completes.  The returned dict then holds exactly the
    successful subset, every fresh success already persisted to ``cache``
    (a failed store only counts on ``metrics.not_cached``).
    """
    jobs = resolve_jobs(jobs)
    policy = policy if policy is not None else FaultPolicy()
    metrics = SweepMetrics(total=len(tasks), jobs=jobs)
    results: Dict[Tuple[str, str], SimResult] = {}
    start = time.perf_counter()
    stop = False  # set once fail-fast trips; no further dispatch

    def report() -> None:
        if progress is not None:
            progress(metrics)

    pending: List[_TaskState] = []
    for task in tasks:
        system = _system_for(task.version, discrete, heterogeneous)
        key = cache_key(task.spec, task.version, system, options)
        entry = cache.load(key) if cache is not None else None
        if entry is not None:
            results[(task.full_name, task.version)] = entry.result
            metrics.cache_hits += 1
            metrics.serial_estimate_s += entry.sim_wall_s
        else:
            pending.append(
                _TaskState(
                    WorkerTask(
                        benchmark=task.full_name,
                        version=task.version,
                        spec=_task_spec(task.spec),
                        system=system,
                        options=options,
                        cache_key=key,
                    )
                )
            )
    if metrics.cache_hits:
        report()

    def complete(state: _TaskState, outcome: WorkerOutcome) -> None:
        """Record one successful :class:`WorkerOutcome`: the one place a
        fresh result enters the result cache.  A failed store (disk full,
        read-only or missing directory) costs persistence, not the
        result: it is still returned, and counted as not cached."""
        task = state.task
        results[(task.benchmark, task.version)] = outcome.result
        metrics.launched += 1
        metrics.serial_estimate_s += outcome.wall_s
        metrics.stage_memo_hits += outcome.memo_hits
        metrics.stage_memo_misses += outcome.memo_misses
        if cache is not None:
            try:
                cache.store(task.cache_key, outcome.result, sim_wall_s=outcome.wall_s)
            except OSError:
                metrics.not_cached += 1
        report()

    def final_failure(
        state: _TaskState, error_type: str, message: str, fate: str
    ) -> None:
        nonlocal stop
        failure = TaskFailure(
            benchmark=state.task.benchmark,
            version=state.task.version,
            error_type=error_type,
            message=message,
            attempts=state.attempts,
            worker_fate=fate,
        )
        metrics.failures.append(failure)
        if policy.fail_fast and fate != FATE_CANCELLED:
            stop = True
        report()

    def supervise(
        states: List[_TaskState], backend: ExecutorBackend
    ) -> List[_TaskState]:
        """Drive ``states`` through ``backend`` until each one finishes or
        fails; returns the tasks still unfinished when the backend had to
        be abandoned (degrade-to-serial)."""
        in_parent = isinstance(backend, _InParentBackend)
        workers = min(1 if in_parent else jobs, len(states))
        # Every task starts out waiting for its ready_at: fresh ones are
        # due at once, leftovers of a degraded pool keep their backoff.
        ready: List[_TaskState] = []
        waiting: List[_TaskState] = list(states)
        inflight: Dict[Future, _TaskState] = {}
        try:
            backend.start(workers)
        except Exception:
            return states  # nothing provisioned; run everything in-parent
        # Pool breaks *and* timeout teardowns share one bounded recycle
        # budget: a workload that crashes or hangs every attempt must
        # degrade to serial, not recycle executors forever.
        recycles = 0
        # The latest backoff deadline slept through: once the sleep returns
        # that task is due, even if the clock disagrees (no re-sleeping).
        slept_until = 0.0

        def requeue(
            state: _TaskState, error_type: str, message: str, fate: str
        ) -> None:
            """Charge a failed attempt: retry after backoff, or give up."""
            if state.attempts > policy.max_retries:
                final_failure(state, error_type, message, fate)
                return
            metrics.retries += 1
            state.ready_at = time.monotonic() + policy.backoff_s(state.attempts)
            waiting.append(state)

        def requeue_free(state: _TaskState) -> None:
            """Requeue an innocent victim of a backend recycle, uncharged."""
            state.attempts -= 1
            state.ready_at = 0.0
            waiting.append(state)

        def drain_finished(future: Future, state: _TaskState) -> bool:
            """Resolve one completed future; True when the backend broke."""
            try:
                outcome = future.result()
            except CancelledError:
                requeue_free(state)
                return False
            except Exception as exc:
                requeue(state, *_attempt_failure(exc, in_parent))
                return isinstance(exc, BrokenExecutor) and not in_parent
            complete(state, outcome)
            return False

        def salvage_and_recycle(charge_unfinished: bool) -> bool:
            """Drain finished in-flight futures, refund (or charge) the
            rest, and recycle the backend.  Returns False once the
            recycle budget is spent (the caller degrades to serial)."""
            nonlocal recycles
            recycles += 1
            for future, state in list(inflight.items()):
                if future.done():
                    drain_finished(future, state)
                elif charge_unfinished:
                    requeue(
                        state,
                        "WorkerCrash",
                        "worker process died (pool broken)",
                        FATE_CRASHED,
                    )
                else:
                    requeue_free(state)
            inflight.clear()
            if recycles > policy.max_pool_rebuilds:
                return False
            metrics.pool_rebuilds += 1
            backend.recycle()
            return True

        try:
            while ready or waiting or inflight:
                if stop:
                    for state in ready + waiting:
                        final_failure(
                            state,
                            "Cancelled",
                            "sweep stopped early (fail-fast)",
                            FATE_CANCELLED,
                        )
                    ready, waiting = [], []
                    if not inflight:
                        break
                else:
                    now = max(time.monotonic(), slept_until)
                    ready += [s for s in waiting if s.ready_at <= now]
                    waiting = [s for s in waiting if s.ready_at > now]

                # Keep in-flight == running: submitting at most ``workers``
                # tasks makes started_at the true start time (exact timeout
                # accounting) and leaves queued work supervisor-side where
                # fail-fast can actually cancel it.
                broken = False
                while ready and len(inflight) < workers and not stop:
                    state = ready.pop(0)
                    state.attempts += 1
                    state.started_at = time.monotonic()
                    try:
                        future = backend.submit(state.task)
                    except (BrokenExecutor, RuntimeError):
                        state.attempts -= 1  # this attempt never ran
                        ready.insert(0, state)
                        broken = True
                        break
                    inflight[future] = state

                if inflight and not broken:
                    now = time.monotonic()
                    timeout: Optional[float] = None
                    if policy.task_timeout_s is not None:
                        earliest = min(s.started_at for s in inflight.values())
                        timeout = (
                            max(0.0, earliest + policy.task_timeout_s - now)
                            + 0.05
                        )
                    if waiting:
                        wake = max(
                            0.0, min(s.ready_at for s in waiting) - now
                        ) + 0.01
                        timeout = wake if timeout is None else min(timeout, wake)
                    done, _ = wait(
                        set(inflight),
                        timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    # Drain every finished future before reacting to any
                    # failure: results that are already computed must be
                    # recorded and cached no matter what their batch-mates
                    # did (the pre-supervisor code lost them).  Submission
                    # order, not set order, keeps the retry order and the
                    # results' order the same from run to run.
                    for future in [f for f in inflight if f in done]:
                        state = inflight.pop(future)
                        if drain_finished(future, state):
                            broken = True
                elif not inflight and waiting and not stop and not broken:
                    # Nothing runs until the earliest backoff expires — a
                    # task that degraded out of the pool mid-retry included.
                    slept_until = min(s.ready_at for s in waiting)
                    delay = slept_until - time.monotonic()
                    if delay > 0:
                        _sleep(delay)
                    continue

                if broken:
                    # The backend is gone: salvage any future that
                    # completed with a real result, charge the rest one
                    # attempt each (the crashing task cannot be identified,
                    # and charging everyone bounds a repeat-killer), then
                    # recycle — or degrade to in-parent serial after
                    # repeated breaks.
                    if not salvage_and_recycle(charge_unfinished=True):
                        return ready + waiting
                    continue

                # In-parent futures are resolved on submit, so only pool
                # workers can still be in flight here: the timeout applies
                # to them alone.
                if policy.task_timeout_s is not None and inflight:
                    now = time.monotonic()
                    expired = [
                        (future, state)
                        for future, state in inflight.items()
                        if now - state.started_at >= policy.task_timeout_s
                    ]
                    if expired:
                        surgical = True
                        for future, state in expired:
                            del inflight[future]
                            if not backend.kill_task(future):
                                surgical = False
                            requeue(
                                state,
                                "TaskTimeout",
                                f"exceeded task timeout "
                                f"({policy.task_timeout_s:g}s)",
                                FATE_TIMED_OUT,
                            )
                        # Backends with per-task children kill just the
                        # hung worker; a shared pool cannot, so the whole
                        # backend recycles — in-flight tasks that had not
                        # expired are innocent and requeue uncharged.  The
                        # teardown draws on the same bounded budget as a
                        # break: a hang-every-attempt workload degrades to
                        # serial instead of recycling pools forever.
                        if not surgical:
                            if not salvage_and_recycle(charge_unfinished=False):
                                return ready + waiting
            return []
        finally:
            backend.shutdown()

    serial = pending
    if jobs > 1 and len(pending) > 1:
        pool = create_backend(backend)
        pooled: List[_TaskState] = []
        serial = []
        for state in pending:
            (pooled if _poolable(state.task) else serial).append(state)
        if pooled:
            serial = supervise(pooled, pool) + serial
    # Leftovers keep their attempts and ready_at: a pending backoff holds.
    supervise(serial, _InParentBackend())

    metrics.wall_s = time.perf_counter() - start
    return results, metrics

