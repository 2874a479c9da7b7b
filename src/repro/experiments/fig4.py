"""Fig. 4: memory footprint touched, by component set.

For the copy and limited-copy version of each benchmark, partitions the
touched footprint into mutually exclusive subsets per component combination
and normalizes both bars to the copy version's total — showing how
eliminating mirrored data shrinks the footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.footprint import (
    SUBSET_ORDER,
    FootprintBreakdown,
    footprint_breakdown,
    subset_label,
)
from repro.core.metrics import geomean
from repro.experiments.report import format_table
from repro.experiments.runner import SweepRunner, default_runner
from repro.workloads.spec import BenchmarkSpec


@dataclass(frozen=True)
class Fig4Row:
    benchmark: str
    copy_total_bytes: int
    limited_total_bytes: int
    #: per-subset fraction of the copy total, for both versions
    copy_fractions: Dict[str, float]
    limited_fractions: Dict[str, float]

    @property
    def footprint_ratio(self) -> float:
        """Limited-copy footprint as a fraction of the copy footprint."""
        return (
            self.limited_total_bytes / self.copy_total_bytes
            if self.copy_total_bytes
            else 0.0
        )

    def gpu_share_of_limited(self) -> float:
        """Fraction of the limited-copy footprint the GPU touches (the paper:
        usually more than 70%)."""
        gpu = sum(
            frac
            for label, frac in self.limited_fractions.items()
            if "gpu" in label
        )
        total = sum(self.limited_fractions.values())
        return gpu / total if total else 0.0


def _fractions(breakdown: FootprintBreakdown, baseline_total: int) -> Dict[str, float]:
    normalized = breakdown.normalized_to(baseline_total)
    return {subset_label(subset): frac for subset, frac in normalized.items()}


def run(
    runner: Optional[SweepRunner] = None,
    specs: Optional[Iterable[BenchmarkSpec]] = None,
) -> List[Fig4Row]:
    runner = runner or default_runner()
    rows: List[Fig4Row] = []
    for name, pair in runner.sweep(specs).items():
        copy_bd = footprint_breakdown(pair.copy)
        limited_bd = footprint_breakdown(pair.limited)
        baseline_total = copy_bd.total_bytes
        rows.append(
            Fig4Row(
                benchmark=name,
                copy_total_bytes=baseline_total,
                limited_total_bytes=limited_bd.total_bytes,
                copy_fractions=_fractions(copy_bd, baseline_total),
                limited_fractions=_fractions(limited_bd, baseline_total),
            )
        )
    return rows


def render(
    runner: Optional[SweepRunner] = None,
    specs: Optional[Iterable[BenchmarkSpec]] = None,
) -> str:
    rows = run(runner, specs)
    labels = [subset_label(s) for s in SUBSET_ORDER]
    table_rows = []
    for r in rows:
        table_rows.append(
            (
                r.benchmark,
                "copy",
                1.0,
                *[r.copy_fractions.get(label, 0.0) for label in labels],
            )
        )
        table_rows.append(
            (
                r.benchmark,
                "limited",
                r.footprint_ratio,
                *[r.limited_fractions.get(label, 0.0) for label in labels],
            )
        )
    table = format_table(
        ("Benchmark", "Version", "Total (norm.)", *labels),
        table_rows,
        title="Fig. 4: Memory footprint touched by component type "
        "(normalized to copy version)",
    )
    mean_ratio = geomean([max(r.footprint_ratio, 1e-9) for r in rows])
    gpu_shares = [r.gpu_share_of_limited() for r in rows]
    share_70 = sum(1 for s in gpu_shares if s > 0.7) / len(gpu_shares)
    return (
        f"{table}\n\n"
        f"Geomean limited-copy footprint vs copy: {mean_ratio:.2f}\n"
        f"Benchmarks where GPU touches >70% of limited-copy footprint: "
        f"{share_70:.0%} (paper: usually more than 70%)"
    )
