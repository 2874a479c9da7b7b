"""Benchmark specifications: metadata (Table II) plus pipeline builders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.pipeline.graph import Pipeline

PipelineBuilderFn = Callable[[], Pipeline]


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark of the four suites.

    Table II flags:
        pc_comm: has producer-consumer communication between pipeline stages
            (CPU execution, GPU kernels, or copies).
        pipe_parallel: pipeline stages could be parallelized / brought into
            closer temporal proximity.
        regular_pc: has regular producer-consumer constructs.
        irregular: has irregular control flow / memory access behaviour.
        sw_queue: uses software worklists.

    Figure annotations:
        misaligned_limited_copy: suffers allocation misalignment after copy
            removal (the ``*`` benchmarks of Fig. 5).
        bandwidth_limited: bumps against off-chip bandwidth during cache-
            contentious stages (the ``*`` benchmarks of Fig. 9).
        pagefault_heavy: GPU writes to unmapped memory serialize on the CPU
            page-fault handler (srad, heartwall, pr_spmv).

    ``build`` returns the paper-scale *copy* (discrete GPU) version of the
    pipeline; the limited-copy version is derived with
    :func:`repro.pipeline.transforms.remove_copies`.  ``build`` is None for
    the 12 benchmarks the paper lists in its suites but does not simulate.
    """

    name: str
    suite: str
    description: str
    pc_comm: bool
    pipe_parallel: bool
    regular_pc: bool
    irregular: bool
    sw_queue: bool
    build: Optional[PipelineBuilderFn] = None
    misaligned_limited_copy: bool = False
    bandwidth_limited: bool = False
    pagefault_heavy: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.suite:
            raise ValueError("benchmark name and suite must be non-empty")
        if self.pipe_parallel and not self.pc_comm:
            raise ValueError(
                f"{self.full_name}: pipe_parallel requires pc_comm (Table II)"
            )
        if self.sw_queue and not self.pc_comm:
            raise ValueError(f"{self.full_name}: sw_queue requires pc_comm")

    @property
    def full_name(self) -> str:
        return f"{self.suite}/{self.name}"

    @property
    def simulatable(self) -> bool:
        return self.build is not None

    def pipeline(self) -> Pipeline:
        """Build the copy-version pipeline (paper scale)."""
        if self.build is None:
            raise ValueError(f"{self.full_name} has no pipeline model")
        return self.build()
