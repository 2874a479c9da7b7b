"""Fig. 3: kmeans run times for various benchmark organizations.

Reproduces the Section II case study: normalized run times and GPU
utilizations for the five organizations, against the paper's reported
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.casestudy import kmeans_case_study
from repro.experiments.report import format_table
from repro.sim.engine import SimOptions

#: Paper-reported values (normalized run time, GPU utilization) per
#: organization; run times are inferred from the quoted improvements
#: (37% async; ~2x no-copy; +40% parallel; +32% caching; <=77% recovered).
PAPER_FIG3: Dict[str, Dict[str, float]] = {
    "Baseline": {"normalized_runtime": 1.00, "gpu_utilization": 0.18},
    "Asynchronous Copy": {"normalized_runtime": 0.63, "gpu_utilization": float("nan")},
    "No Memory Copy": {"normalized_runtime": 0.50, "gpu_utilization": 0.39},
    "Parallel*": {"normalized_runtime": 0.30, "gpu_utilization": 0.65},
    "Parallel + Cache": {"normalized_runtime": 0.23, "gpu_utilization": 0.80},
}


@dataclass(frozen=True)
class Fig3Row:
    organization: str
    runtime_s: float
    normalized_runtime: float
    gpu_utilization: float
    paper_normalized: float
    paper_gpu_utilization: float
    estimated: bool


def run(options: Optional[SimOptions] = None) -> List[Fig3Row]:
    results = kmeans_case_study(options=options)
    baseline = results[0].runtime_s
    rows: List[Fig3Row] = []
    for result in results:
        paper = PAPER_FIG3[result.label]
        rows.append(
            Fig3Row(
                organization=result.label,
                runtime_s=result.runtime_s,
                normalized_runtime=result.runtime_s / baseline,
                gpu_utilization=result.gpu_utilization,
                paper_normalized=paper["normalized_runtime"],
                paper_gpu_utilization=paper["gpu_utilization"],
                estimated=result.estimated,
            )
        )
    return rows


def render(options: Optional[SimOptions] = None) -> str:
    rows = run(options)
    table = format_table(
        (
            "Organization",
            "Runtime (s)",
            "Normalized",
            "Paper",
            "GPU util",
            "Paper util",
        ),
        [
            (
                r.organization + (" (est.)" if r.estimated else ""),
                f"{r.runtime_s:.6f}",
                r.normalized_runtime,
                r.paper_normalized,
                r.gpu_utilization,
                r.paper_gpu_utilization,
            )
            for r in rows
        ],
        title="Fig. 3: Kmeans run times for various benchmark organizations",
    )
    recovered = 1.0 - rows[-1].normalized_runtime
    return f"{table}\n\nRun time recovered vs baseline: {recovered:.0%} (paper: up to 77%)"
