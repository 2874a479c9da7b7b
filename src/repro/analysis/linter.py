"""Lint entry points: pipelines, benchmarks, and the whole registry.

The linter is pure analysis — it never mutates a pipeline and never
simulates.  Three entry points cover the common shapes:

* :func:`lint_pipeline` — one pipeline, optionally against its spec.
* :func:`lint_benchmark` — one spec: copy form, limited-copy form (as
  :func:`limited_copy_form` builds it), and the Table II
  spec-consistency family.
* :func:`lint_registry` — every simulatable registered benchmark (the CI
  gate).

:func:`assert_lint_clean` is the post-transform assertion hook: transforms
and their tests call it on freshly produced pipelines so a regression in
``remove_copies`` / ``fission_async_streams`` / ``migrate_compute`` that
introduces a hazard fails loudly at the source, and
:class:`repro.experiments.runner.SweepRunner` uses it as a simulation
pre-flight.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analysis.dataflow.rules import check_dataflow_family
from repro.analysis.diagnostics import LintReport, Severity
from repro.analysis.hazards import check_hazards
from repro.analysis.memo import LintMemo, default_memo
from repro.analysis.memspace import check_memspace_family
from repro.analysis.spec_rules import check_spec_consistency
from repro.pipeline.graph import Pipeline
from repro.pipeline.transforms import remove_copies
from repro.workloads.registry import simulatable_specs
from repro.workloads.spec import BenchmarkSpec


class LintError(ValueError):
    """Raised by :func:`assert_lint_clean` when findings reach the threshold."""

    def __init__(self, report: LintReport, threshold: Severity) -> None:
        self.report = report
        self.threshold = threshold
        offending = report.at_least(threshold)
        details = "\n".join(f"  {d.format()}" for d in offending)
        super().__init__(
            f"pipeline lint failed: {len(offending)} finding(s) at or above "
            f"{threshold.value}\n{details}"
        )


def lint_pipeline(
    pipeline: Pipeline,
    spec: Optional[BenchmarkSpec] = None,
    *,
    opportunities: bool = False,
) -> LintReport:
    """Run every applicable rule over one pipeline.

    The hazard, memory-space, and dataflow-defect families always run;
    the Table II family runs only when a ``spec`` is supplied and the
    pipeline is the copy form (the form Table II characterizes).
    ``opportunities`` additionally enables the RPL303-305 opportunity
    rules, which report optimization headroom rather than defects and
    fire on healthy bulk-synchronous pipelines by design.
    """
    report = LintReport(pipelines=[pipeline.name])
    report.extend(check_hazards(pipeline))
    report.extend(check_memspace_family(pipeline, spec))
    if spec is not None:
        report.extend(check_spec_consistency(pipeline, spec))
    report.extend(
        check_dataflow_family(pipeline, spec, opportunities=opportunities)
    )
    return report


def lint_pipeline_memoized(
    pipeline: Pipeline,
    spec: Optional[BenchmarkSpec] = None,
    *,
    opportunities: bool = False,
    memo: Optional[LintMemo] = None,
) -> LintReport:
    """Memoized :func:`lint_pipeline` keyed by pipeline content hash.

    Identical (pipeline, spec, opportunities) triples are analysed once
    per process; see :mod:`repro.analysis.memo`.  Its one program caller
    is :func:`assert_lint_clean`, the sweep preflight.
    """
    active = memo if memo is not None else default_memo()
    return active.get_or_compute(
        pipeline,
        spec,
        opportunities,
        lambda: lint_pipeline(pipeline, spec, opportunities=opportunities),
    )


def limited_copy_form(pipeline: Pipeline) -> Pipeline:
    """The limited-copy port of ``pipeline`` as every lint caller checks
    it: :func:`remove_copies`, renamed ``"<name> [limited-copy]"`` so its
    findings name the form."""
    limited = remove_copies(pipeline)
    return limited.with_stages(
        limited.stages, name=f"{pipeline.name} [limited-copy]"
    )


def lint_benchmark(
    spec: BenchmarkSpec, *, opportunities: bool = False
) -> LintReport:
    """Lint a benchmark's copy and limited-copy forms plus its spec flags."""
    pipeline = spec.pipeline()
    report = lint_pipeline(pipeline, spec, opportunities=opportunities)
    report.merge(
        lint_pipeline(
            limited_copy_form(pipeline), spec, opportunities=opportunities
        )
    )
    return report


def lint_registry(
    specs: Optional[Iterable[BenchmarkSpec]] = None,
    *,
    opportunities: bool = False,
) -> LintReport:
    """Lint every simulatable benchmark (or an explicit subset)."""
    chosen: List[BenchmarkSpec] = (
        list(specs) if specs is not None else list(simulatable_specs())
    )
    report = LintReport()
    for spec in chosen:
        if not spec.simulatable:
            continue
        report.merge(lint_benchmark(spec, opportunities=opportunities))
    return report


def assert_lint_clean(
    pipeline: Pipeline,
    spec: Optional[BenchmarkSpec] = None,
    *,
    threshold: Severity = Severity.ERROR,
) -> LintReport:
    """Lint a pipeline and raise :class:`LintError` on findings at or above
    ``threshold``.  Returns the (clean-enough) report otherwise.

    The lint goes through the process-wide content-hash memo, so the 46x2
    sweep preflight (and repeated ``pair()`` calls) lint each distinct
    pipeline once.
    """
    report = lint_pipeline_memoized(pipeline, spec)
    if not report.clean(threshold):
        raise LintError(report, threshold)
    return report
