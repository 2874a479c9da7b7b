"""Shared sweep runner with result caching.

Every figure of Section IV/V is computed from the same 46-benchmark sweep:
the copy version on the discrete GPU system and the limited-copy version on
the heterogeneous processor.  The runner memoizes simulation results so the
per-figure harnesses (and the pytest benchmarks) reuse one sweep, fans
misses out over a process pool (``parallel=``), and can persist results
across invocations through the content-addressed cache of
:mod:`repro.sim.resultcache` (``cache_dir=``).

Both the in-memory memo and the persistent cache key on the full
(:class:`BenchmarkSpec`, version, :class:`SystemConfig`,
:class:`SimOptions`, engine tag) content hash, so runners at different
``scale`` (or any other option) never collide — even when they share a
cache directory.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.config.system import (
    SystemConfig,
    discrete_gpu_system,
    heterogeneous_processor,
)
from repro.experiments.parallel import (
    COPY,
    LIMITED,
    VERSIONS,
    FaultPolicy,
    SweepError,
    SweepMetrics,
    SweepTask,
    TaskFailure,
    resolve_jobs,
    run_tasks,
)
from repro.sim.engine import SimOptions
from repro.sim.observe.metrics import MetricsRegistry
from repro.sim.resultcache import ResultCache, cache_key
from repro.sim.results import SimResult
from repro.workloads.registry import simulatable_specs
from repro.workloads.spec import BenchmarkSpec

if TYPE_CHECKING:
    from repro.experiments.executors import ExecutorBackend

__all__ = [
    "BenchmarkRun",
    "COPY",
    "DEFAULT_BENCH_SCALE",
    "FaultPolicy",
    "LIMITED",
    "SweepError",
    "SweepRunner",
    "TaskFailure",
    "VERSIONS",
    "default_runner",
]

#: Default footprint/cache scale for the benchmark harness.  1/32 keeps a
#: full 46x2 sweep around a minute while preserving the footprint-to-cache
#: ratios that drive every figure (see DESIGN.md); pass --scale to the CLI
#: (or a custom SimOptions) for paper-scale runs.
DEFAULT_BENCH_SCALE = 1 / 32


@dataclass(frozen=True)
class BenchmarkRun:
    """The pair of runs every figure compares."""

    spec: BenchmarkSpec
    copy: SimResult
    limited: SimResult


class SweepRunner:
    """Runs and caches the copy / limited-copy sweep.

    Args:
        options: simulation options shared by every run of the sweep.
        discrete / heterogeneous: the two machines; Table I defaults.
        parallel: process-pool width for sweep fan-out.  ``None`` or 1 runs
            serially in-process; 0 means every CPU this process may run
            on (its affinity mask); N > 1 uses N workers.  Results are
            bit-identical either way.
        cache_dir: directory of the persistent result cache; ``None``
            disables persistence (in-memory memoization only).  Pass
            :func:`repro.sim.resultcache.default_cache_dir` for the shared
            ``~/.cache/repro-sweeps`` location.
        verbose: print a one-line progress/metrics summary per sweep to
            stderr.
        preflight: statically lint every pipeline about to be simulated
            (:func:`repro.analysis.assert_lint_clean`) and refuse to run on
            error-level findings by raising
            :class:`repro.analysis.LintError`.  In-memory memo hits skip
            the check — they were vetted when first produced.
        fault_policy: retry/timeout/fail-fast behaviour for failing tasks
            (:class:`~repro.experiments.parallel.FaultPolicy`; default
            policy when ``None``).  Failed tasks never abort a sweep: they
            surface as :class:`TaskFailure` entries on ``last_metrics`` and
            in the ``metrics_registry``, while every completed result is
            kept, cached, and memoized.
        backend: executor backend fanning out the sweep — ``"local"``
            (default process pool), ``"subprocess"``, or a ready
            :class:`~repro.experiments.executors.ExecutorBackend`
            instance.  Results are bit-identical across backends.
    """

    def __init__(
        self,
        options: Optional[SimOptions] = None,
        discrete: Optional[SystemConfig] = None,
        heterogeneous: Optional[SystemConfig] = None,
        parallel: Optional[int] = None,
        cache_dir: Union[None, str, Path] = None,
        verbose: bool = False,
        preflight: bool = False,
        fault_policy: Optional[FaultPolicy] = None,
        backend: Union[None, str, "ExecutorBackend"] = None,
    ):
        self.options = options or SimOptions(scale=DEFAULT_BENCH_SCALE)
        self.discrete = discrete or discrete_gpu_system()
        self.heterogeneous = heterogeneous or heterogeneous_processor()
        self.jobs = resolve_jobs(parallel)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.verbose = verbose
        self.preflight = preflight
        self.fault_policy = fault_policy
        self.backend = backend
        #: Memo keyed by the *content hash* of each run — includes every
        #: SimOptions field (scale, seed, ...), the system, and the engine
        #: tag, so changing ``self.options`` can never serve stale results.
        self._memo: Dict[str, SimResult] = {}
        self.last_metrics: Optional[SweepMetrics] = None
        #: Per-(benchmark, version) trace summaries of everything this
        #: runner has produced (fresh, cache hit, or memo hit) — the
        #: sweep-level aggregation point of repro.sim.observe.metrics.
        self.metrics_registry = MetricsRegistry()

    # -- keys ----------------------------------------------------------------

    def _system_for(self, version: str) -> SystemConfig:
        return self.discrete if version == COPY else self.heterogeneous

    def _key(self, spec: BenchmarkSpec, version: str) -> str:
        if version not in VERSIONS:
            raise ValueError(f"unknown version {version!r}; choose from {VERSIONS}")
        return cache_key(spec, version, self._system_for(version), self.options)

    # -- execution -----------------------------------------------------------

    def _ensure(
        self, pairs: List[Tuple[BenchmarkSpec, str]]
    ) -> Dict[Tuple[str, str], str]:
        """Fill the memo for every (spec, version); returns their keys."""
        keys: Dict[Tuple[str, str], str] = {}
        tasks: List[Tuple[SweepTask, str]] = []
        memo_hits = 0
        for spec, version in pairs:
            key = self._key(spec, version)
            keys[(spec.full_name, version)] = key
            if key in self._memo:
                memo_hits += 1
                self.metrics_registry.record(
                    spec.full_name, version, self._memo[key]
                )
            else:
                tasks.append((SweepTask(spec, version), key))
        if self.preflight:
            self._preflight([task for task, _ in tasks])
        results, metrics = run_tasks(
            [task for task, _ in tasks],
            discrete=self.discrete,
            heterogeneous=self.heterogeneous,
            options=self.options,
            jobs=self.jobs,
            cache=self.cache,
            metrics_registry=self.metrics_registry,
            policy=self.fault_policy,
            backend=self.backend,
        )
        # Failed tasks produce no result; memoize exactly the successes so
        # a later request re-attempts the failures instead of KeyError-ing.
        for task, key in tasks:
            produced = results.get((task.full_name, task.version))
            if produced is not None:
                self._memo[key] = produced
        metrics.total += memo_hits
        metrics.memo_hits = memo_hits
        self.last_metrics = metrics
        if self.verbose:
            if metrics.total > 2:
                print(metrics.format_line(), file=sys.stderr)
            for failure in metrics.failures:
                print(f"sweep: FAILED {failure.describe()}", file=sys.stderr)
        return keys

    def _preflight(self, tasks: List[SweepTask]) -> None:
        """Refuse to simulate pipelines with error-level lint findings.

        Lints are memoized by pipeline content hash, so repeated sweeps
        over the same specs (scale sweeps, ``pair()`` loops, the static
        advisor) analyse each distinct pipeline once per process.
        """
        from repro.analysis import assert_lint_clean
        from repro.pipeline.transforms import remove_copies

        for task in tasks:
            pipeline = task.spec.pipeline()
            if task.version == LIMITED:
                pipeline = remove_copies(pipeline)
            assert_lint_clean(pipeline, task.spec, memoize=True)

    def _failures_for(self, name: str, version: str) -> List[TaskFailure]:
        metrics = self.last_metrics
        failures = metrics.failures if metrics is not None else []
        return [
            f for f in failures if f.benchmark == name and f.version == version
        ]

    def _require(
        self, name: str, version: str, keys: Dict[Tuple[str, str], str]
    ) -> SimResult:
        key = keys[(name, version)]
        result = self._memo.get(key)
        if result is not None:
            return result
        relevant = self._failures_for(name, version)
        detail = "; ".join(f.describe() for f in relevant) or "no result produced"
        raise SweepError(f"{name}:{version} did not complete: {detail}", relevant)

    def run(self, spec: BenchmarkSpec, version: str) -> SimResult:
        """Simulate one benchmark version (memoized + persistently cached).

        Raises :class:`SweepError` (carrying the structured failures) when
        the task exhausted its retries without producing a result.
        """
        keys = self._ensure([(spec, version)])
        return self._require(spec.full_name, version, keys)

    def try_result(
        self, spec: BenchmarkSpec, version: str
    ) -> Optional[SimResult]:
        """The memoized result of (spec, version), if this runner has one.

        Never simulates: use it after a sweep to read out partial results
        without re-attempting the failed tasks.
        """
        return self._memo.get(self._key(spec, version))

    def pair(self, spec: BenchmarkSpec) -> BenchmarkRun:
        keys = self._ensure([(spec, COPY), (spec, LIMITED)])
        return BenchmarkRun(
            spec=spec,
            copy=self._require(spec.full_name, COPY, keys),
            limited=self._require(spec.full_name, LIMITED, keys),
        )

    def sweep(
        self, specs: Optional[Iterable[BenchmarkSpec]] = None
    ) -> Dict[str, BenchmarkRun]:
        """Run the full (or a restricted) sweep; keyed by full benchmark name.

        Misses fan out over the process pool when ``parallel`` allows; a
        repeat invocation against a warm persistent cache simulates nothing.

        Failing tasks never abort the sweep: benchmarks whose pair could
        not be completed are omitted from the returned dict, their
        :class:`TaskFailure` reports land on ``last_metrics.failures`` (and
        ``metrics_registry.failures``), and single-version successes remain
        readable through :meth:`try_result`.
        """
        specs = list(specs) if specs is not None else list(simulatable_specs())
        keys = self._ensure(
            [(spec, version) for spec in specs for version in VERSIONS]
        )
        runs: Dict[str, BenchmarkRun] = {}
        for spec in specs:
            copy = self._memo.get(keys[(spec.full_name, COPY)])
            limited = self._memo.get(keys[(spec.full_name, LIMITED)])
            if copy is not None and limited is not None:
                runs[spec.full_name] = BenchmarkRun(
                    spec=spec, copy=copy, limited=limited
                )
        return runs


_default_runner: Optional[SweepRunner] = None


def default_runner() -> SweepRunner:
    """Process-wide shared runner so harnesses reuse one sweep."""
    global _default_runner
    if _default_runner is None:
        _default_runner = SweepRunner()
    return _default_runner
