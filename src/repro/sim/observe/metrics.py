"""Sweep-wide metrics registry: per-benchmark trace summaries.

Workers of the parallel sweep (:mod:`repro.experiments.parallel`) run in
separate processes, so live trace events cannot cross the pool boundary;
what every run *does* ship back is its full :class:`SimResult`.  The
registry derives a compact :class:`RunTraceSummary` from each result as
it lands — fresh simulation, persistent-cache hit, or memo hit alike —
so a sweep can surface who-was-busy/how-much-moved numbers per benchmark
without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.sim.hierarchy import Component
from repro.sim.results import SimResult

if TYPE_CHECKING:  # typed loosely at runtime: the experiments layer sits
    # above this observability layer and must not be imported from it
    from repro.experiments.parallel import TaskFailure


@dataclass(frozen=True)
class RunTraceSummary:
    """Counters of one (benchmark, version) run."""

    benchmark: str
    version: str
    roi_s: float
    busy_s: Dict[str, float]
    offchip_accesses: int
    offchip_bytes: int
    onchip_transfers: int
    faults: int
    stages: int
    violations: int

    @classmethod
    def from_result(
        cls, benchmark: str, version: str, result: SimResult
    ) -> "RunTraceSummary":
        return cls(
            benchmark=benchmark,
            version=version,
            roi_s=result.roi_s,
            busy_s={
                component.value: result.busy_time(component)
                for component in Component
            },
            offchip_accesses=result.offchip_accesses(),
            offchip_bytes=result.offchip_bytes(),
            onchip_transfers=sum(r.onchip_transfers for r in result.stages),
            faults=sum(r.faults for r in result.stages),
            stages=len(result.stages),
            violations=len(result.violations),
        )


class MetricsRegistry:
    """Aggregates run summaries across one (or many) sweeps.

    Keyed by ``(benchmark, version)``: re-running a pair (memo or cache
    replay) overwrites its summary instead of double counting.
    """

    def __init__(self) -> None:
        self._runs: Dict[Tuple[str, str], RunTraceSummary] = {}
        self._failures: Dict[Tuple[str, str], "TaskFailure"] = {}
        self._stage_memo_hits = 0
        self._stage_memo_misses = 0

    def record(self, benchmark: str, version: str, result: SimResult) -> None:
        self._runs[(benchmark, version)] = RunTraceSummary.from_result(
            benchmark, version, result
        )
        # A pair that eventually produced a result recovered: drop any
        # failure recorded for it by an earlier sweep.
        self._failures.pop((benchmark, version), None)

    def record_stage_memo(self, hits: int, misses: int) -> None:
        """Accumulate one run's stage-memo lookup counts.

        Unlike run summaries these are *cumulative* across re-runs: a pair
        simulated twice genuinely did two sets of lookups, and hit/miss
        totals are throughput telemetry, not per-pair state.
        """
        self._stage_memo_hits += int(hits)
        self._stage_memo_misses += int(misses)

    @property
    def stage_memo_hits(self) -> int:
        return self._stage_memo_hits

    @property
    def stage_memo_misses(self) -> int:
        return self._stage_memo_misses

    def record_failure(self, failure: "TaskFailure") -> None:
        """Remember a task that exhausted its retries (keyed like runs, so
        a later successful re-run clears it)."""
        self._failures[(failure.benchmark, failure.version)] = failure

    @property
    def failures(self) -> List["TaskFailure"]:
        """Outstanding failures, ordered by (benchmark, version)."""
        return [self._failures[key] for key in sorted(self._failures)]

    def __len__(self) -> int:
        return len(self._runs)

    def summaries(self) -> List[RunTraceSummary]:
        return [self._runs[key] for key in sorted(self._runs)]

    def totals(self) -> Dict[str, float]:
        """Sweep-wide counter totals (the numbers behind Figs. 4-6)."""
        totals: Dict[str, float] = {
            "runs": float(len(self._runs)),
            "roi_s": 0.0,
            "offchip_accesses": 0.0,
            "offchip_bytes": 0.0,
            "onchip_transfers": 0.0,
            "faults": 0.0,
            "stages": 0.0,
            "violations": 0.0,
            "failed_runs": float(len(self._failures)),
            "stage_memo_hits": float(self._stage_memo_hits),
            "stage_memo_misses": float(self._stage_memo_misses),
        }
        for component in Component:
            totals[f"busy_{component.value}_s"] = 0.0
        for summary in self._runs.values():
            totals["roi_s"] += summary.roi_s
            totals["offchip_accesses"] += summary.offchip_accesses
            totals["offchip_bytes"] += summary.offchip_bytes
            totals["onchip_transfers"] += summary.onchip_transfers
            totals["faults"] += summary.faults
            totals["stages"] += summary.stages
            totals["violations"] += summary.violations
            for component, busy in summary.busy_s.items():
                totals[f"busy_{component}_s"] += busy
        return totals

    def format_table(self) -> str:
        """Render the per-benchmark trace summaries as an aligned table."""
        header = (
            f"{'benchmark':<24s} {'version':<12s} {'roi(ms)':>9s} "
            f"{'cpu%':>5s} {'gpu%':>5s} {'copy%':>5s} {'offchip':>10s} "
            f"{'viol':>4s}"
        )
        lines = [header, "-" * len(header)]
        for s in self.summaries():
            def share(component: str) -> str:
                return (
                    f"{s.busy_s[component] / s.roi_s:4.0%}" if s.roi_s else "   -"
                )

            lines.append(
                f"{s.benchmark:<24s} {s.version:<12s} {s.roi_s * 1e3:>9.3f} "
                f"{share('cpu'):>5s} {share('gpu'):>5s} {share('copy'):>5s} "
                f"{s.offchip_accesses:>10d} {s.violations:>4d}"
            )
        for failure in self.failures:
            lines.append(
                f"{failure.benchmark:<24s} {failure.version:<12s} "
                f"FAILED [{failure.worker_fate}] {failure.error_type}"
            )
        return "\n".join(lines)

