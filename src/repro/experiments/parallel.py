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

import math
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

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

#: Retry backoff: after its k-th failed attempt a task waits
#: ``min(BACKOFF_BASE_S * 2**(k-1), BACKOFF_CAP_S)`` seconds before the
#: next.  Fixed for the program; tests patch them as they patch ``_sleep``.
BACKOFF_BASE_S = 0.25
BACKOFF_CAP_S = 8.0
#: Backend recycles (pool breaks and task-timeout teardowns share the one
#: budget) a sweep tolerates before it degrades to in-parent execution.
MAX_POOL_REBUILDS = 2

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
    """How a sweep reacts to failing, hanging, or crashing tasks: the
    ``--max-retries`` / ``--task-timeout`` / ``--fail-fast`` flags.

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

    The retry backoff and the recycle budget are the module constants
    ``BACKOFF_BASE_S``, ``BACKOFF_CAP_S`` and ``MAX_POOL_REBUILDS``.
    """

    max_retries: int = 2
    task_timeout_s: Optional[float] = None
    fail_fast: bool = False


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


#: ``(error_type, message, worker_fate)`` of the two failures the
#: supervisor itself declares.
_POOL_BROKEN = ("WorkerCrash", "worker process died (pool broken)", FATE_CRASHED)
_CANCELLED = ("Cancelled", "sweep stopped early (fail-fast)", FATE_CANCELLED)


@dataclass(eq=False)
class _TaskState:
    """One task that missed the cache, as the supervisor tracks it."""

    task: WorkerTask
    attempts: int = 0  # failed attempts charged so far
    #: Monotonic time the supervisor next acts on the task: while queued,
    #: the earliest it may start; while running, its timeout deadline.
    due: float = 0.0


@dataclass
class _Supervisor:
    """The fault supervisor of one :func:`run_tasks` call, as plain data.

    ``queue`` holds the tasks not running, in the order they joined it;
    ``running`` maps each in-flight future to its task.  ``recycles``
    counts backend teardowns against ``MAX_POOL_REBUILDS`` and ``stopped``
    is set once fail-fast trips.  Three transitions act on that state —
    :meth:`complete`, :meth:`charge` and :meth:`fail` — and :meth:`drive`
    is the loop that applies them.
    """

    policy: FaultPolicy
    metrics: SweepMetrics
    cache: Optional[ResultCache]
    results: Dict[Tuple[str, str], SimResult] = field(default_factory=dict)
    queue: List[_TaskState] = field(default_factory=list)
    running: Dict[Future, _TaskState] = field(default_factory=dict)
    recycles: int = 0
    stopped: bool = False

    def complete(self, state: _TaskState, outcome: WorkerOutcome) -> None:
        """Record one successful :class:`WorkerOutcome`: the one place a
        fresh result enters the result cache.  A failed store (disk full,
        read-only or missing directory) costs persistence, not the
        result: it is still returned, and counted as not cached."""
        task, metrics = state.task, self.metrics
        self.results[(task.benchmark, task.version)] = outcome.result
        metrics.launched += 1
        metrics.serial_estimate_s += outcome.wall_s
        metrics.stage_memo_hits += outcome.memo_hits
        metrics.stage_memo_misses += outcome.memo_misses
        if self.cache is not None:
            try:
                self.cache.store(
                    task.cache_key, outcome.result, sim_wall_s=outcome.wall_s
                )
            except OSError:
                metrics.not_cached += 1

    def charge(
        self, state: _TaskState, now: float, error_type: str, message: str, fate: str
    ) -> None:
        """Charge one failed attempt: requeue after backoff, or fail."""
        state.attempts += 1
        if state.attempts > self.policy.max_retries:
            self.fail(state, error_type, message, fate)
            return
        self.metrics.retries += 1
        state.due = now + min(BACKOFF_BASE_S * 2 ** (state.attempts - 1), BACKOFF_CAP_S)
        self.queue.append(state)

    def fail(self, state: _TaskState, error_type: str, message: str, fate: str) -> None:
        """Report ``state`` as a :class:`TaskFailure`; a failure that is
        not itself a cancellation trips fail-fast."""
        self.metrics.failures.append(
            TaskFailure(
                benchmark=state.task.benchmark,
                version=state.task.version,
                error_type=error_type,
                message=message,
                attempts=state.attempts,
                worker_fate=fate,
            )
        )
        if self.policy.fail_fast and fate != FATE_CANCELLED:
            self.stopped = True

    def _settle(
        self, future: Future, state: _TaskState, now: float, in_parent: bool
    ) -> bool:
        """Apply a finished future's transition; True when it reports
        that the backend broke."""
        try:
            outcome = future.result()
        except CancelledError:  # a teardown dropped it: requeue uncharged
            state.due = now
            self.queue.append(state)
            return False
        except Exception as exc:
            self.charge(state, now, *_attempt_failure(exc, in_parent))
            return isinstance(exc, BrokenExecutor) and not in_parent
        self.complete(state, outcome)
        return False

    def _recycle(
        self, backend: ExecutorBackend, now: float, charge_running: bool
    ) -> bool:
        """Empty ``running`` and recycle the backend.  Finished futures
        are salvaged; unfinished ones are charged (a pool break: the
        culprit is unknowable, and charging all bounds a repeat-killer) or
        rejoin the queue uncharged (innocent victims of a timeout
        teardown).  Returns False, without recycling, once the budget is
        spent: the caller degrades to in-parent execution."""
        self.recycles += 1
        for future, state in self.running.items():
            if future.done():
                self._settle(future, state, now, in_parent=False)
            elif charge_running:
                self.charge(state, now, *_POOL_BROKEN)
            else:
                state.due = now
                self.queue.append(state)
        self.running.clear()
        if self.recycles > MAX_POOL_REBUILDS:
            return False
        self.metrics.pool_rebuilds += 1
        backend.recycle()
        return True

    def drive(
        self, states: List[_TaskState], backend: ExecutorBackend
    ) -> List[_TaskState]:
        """Run ``states`` through ``backend`` until each one completes or
        fails; returns the queue left when the backend had to be abandoned
        (degrade-to-serial), due times included."""
        in_parent = isinstance(backend, _InParentBackend)
        workers = min(1 if in_parent else self.metrics.jobs, len(states))
        timeout_s = self.policy.task_timeout_s
        if timeout_s is None:
            timeout_s = math.inf  # a running task is then never due
        try:
            backend.start(workers)
        except Exception:
            return states  # nothing provisioned; run everything in-parent
        self.queue = list(states)
        try:
            now = time.monotonic()
            while self.queue or self.running:
                if self.stopped:
                    for state in self.queue:
                        self.fail(state, *_CANCELLED)
                    self.queue = []
                # At most ``workers`` in flight: a task's deadline counts
                # from its real start (its submit), and queued work stays
                # here, where fail-fast can cancel it.
                broken = False
                while len(self.running) < workers and not self.stopped:
                    state = next((s for s in self.queue if s.due <= now), None)
                    if state is None:
                        break
                    try:
                        future = backend.submit(state.task)
                    except (BrokenExecutor, RuntimeError):
                        broken = True
                        break
                    self.queue.remove(state)
                    state.due = time.monotonic() + timeout_s
                    self.running[future] = state
                if self.running and not broken:
                    # One wake time: the next deadline or backoff expiry.
                    wake = min(
                        [s.due for s in self.queue if s.due > now]
                        + [s.due for s in self.running.values()]
                    )
                    timeout = None if wake == math.inf else max(0.0, wake - now) + 0.01
                    done, _ = wait(
                        set(self.running), timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    now = time.monotonic()
                    # Drain every finished future before reacting to any
                    # failure: computed results are kept whatever their
                    # batch-mates did.  Submission order, not set order,
                    # keeps retries and results in one order run to run.
                    for future in [f for f in self.running if f in done]:
                        state = self.running.pop(future)
                        broken = self._settle(future, state, now, in_parent) or broken
                elif self.queue and not broken:
                    # Nothing runs until the earliest backoff expires; the
                    # task slept for is then due without another clock read.
                    wake = min(s.due for s in self.queue)
                    _sleep(max(0.0, wake - time.monotonic()))
                    now = wake
                if broken:
                    if not self._recycle(backend, now, charge_running=True):
                        return self.queue
                    continue
                # Only pool workers can still be running here (in-parent
                # futures resolve on submit), so only they time out.
                expired = [f for f, s in self.running.items() if s.due <= now]
                surgical = True
                for future in expired:
                    state = self.running.pop(future)
                    surgical = backend.kill_task(future) and surgical
                    message = f"exceeded task timeout ({timeout_s:g}s)"
                    self.charge(state, now, "TaskTimeout", message, FATE_TIMED_OUT)
                # Per-task backends kill just the hung worker; a shared
                # pool cannot, so the whole backend recycles.
                if not surgical and not self._recycle(
                    backend, now, charge_running=False
                ):
                    return self.queue
            return []
        finally:
            backend.shutdown()


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
) -> Tuple[Dict[Tuple[str, str], SimResult], SweepMetrics]:
    """Execute a batch of sweep tasks, parallel, cache-aware, fault-tolerant.

    Returns results keyed by ``(full_name, version)`` plus the metrics of
    this invocation.  With ``jobs`` resolving to 1 (or a single task to
    run) the batch runs in the parent process, through the same supervisor
    loop and bit-identical to the pooled path — simulations are
    deterministic and every backend runs :func:`run_worker_task`.

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
    metrics = SweepMetrics(total=len(tasks), jobs=jobs)
    supervisor = _Supervisor(
        policy if policy is not None else FaultPolicy(), metrics, cache
    )
    start = time.perf_counter()

    pending: List[_TaskState] = []
    for task in tasks:
        system = _system_for(task.version, discrete, heterogeneous)
        key = cache_key(task.spec, task.version, system, options)
        entry = cache.load(key) if cache is not None else None
        if entry is not None:
            supervisor.results[(task.full_name, task.version)] = entry.result
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

    serial = pending
    if jobs > 1 and len(pending) > 1:
        pool = create_backend(backend)
        pooled: List[_TaskState] = []
        serial = []
        for state in pending:
            (pooled if _poolable(state.task) else serial).append(state)
        if pooled:
            serial = supervisor.drive(pooled, pool) + serial
    # Leftovers keep their attempts and due times: a pending backoff holds.
    supervisor.drive(serial, _InParentBackend())

    metrics.wall_s = time.perf_counter() - start
    return supervisor.results, metrics
