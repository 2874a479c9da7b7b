"""Command-line interface: ``repro <command>``.

Commands::

    repro show-config                 # Table I system parameters
    repro list [--suite SUITE]        # all benchmarks + Table II flags
    repro run [BENCHMARK] [--scale S] # one benchmark (or the full sweep)
    repro table2                      # regenerate Table II
    repro fig3 ... fig9               # regenerate a figure
    repro validate                    # Section V-A/V-B validations
    repro ablations                   # ablation studies
    repro cache [--clear]             # inspect the persistent result cache
    repro lint [BENCHMARK...] [--fix] # static pipeline verification
    repro advise [BENCHMARK] [--static]  # rank optimization opportunities
    repro trace BENCHMARK             # run with the tracing layer attached
    repro all [--scale S]             # everything above

Every command exits 2 on a usage error: a malformed flag value, an
unknown, ambiguous or unmodelled benchmark name, or an unreadable
workload file.

``repro lint`` exits 0 when no finding reaches the ``--fail-on``
threshold and 1 when one does — see docs/LINTING.md.

``repro trace`` simulates one benchmark with the event-tracing layer and
invariant monitor attached (docs/TRACING.md): ``--system discrete`` runs
the copy version on the discrete-GPU machine, ``--system hsa`` the
limited-copy version on the heterogeneous processor.  ``-o out.json``
writes a Chrome ``trace_event`` file (open in https://ui.perfetto.dev);
``--format jsonl`` writes the compact JSONL stream instead.  Exits 1 if
any conservation invariant was violated, 2 on usage errors.

Every command that runs a sweep (``run``, ``advise``, ``timeline``,
``export``, ``fig4``-``fig9``, ``validate``, ``all``) takes ``--jobs N``
(0 = every CPU this process may run on, 1 = serial in-parent) to fan the
sweep out over an executor backend (``--backend local`` process pool or
``subprocess`` worker children), and ``--cache-dir``/``--no-cache`` to
control the persistent result cache (default ``~/.cache/repro-sweeps``,
or ``$REPRO_CACHE_DIR``).  A repeated invocation with a warm cache
simulates nothing and reproduces identical output.  A command accepts
only the flags it reads: ``trace``, ``run-spec``, ``fig3`` and
``ablations`` simulate without a sweep and take ``--scale``/``--seed``
alone, and ``cache`` takes ``--cache-dir`` alone.

Sweeps are fault-tolerant (docs/SWEEPS.md): a failing simulation is
retried (``--max-retries``, capped exponential backoff), a hung worker is
killed after ``--task-timeout`` seconds, and a crashed process pool is
rebuilt.  Tasks that still fail never abort the sweep — every completed
result is printed and cached, the failures are reported to stderr, and the
command exits with status 3 (partial) instead of 0 (clean).
``--fail-fast`` stops dispatching new work after the first exhausted task.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Dict, List, Optional

from repro.config.system import TABLE_I
from repro.experiments import (
    ablations,
    advisor,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    table2,
    validation,
)
from repro.experiments.executors import BACKENDS as EXECUTOR_BACKENDS
from repro.experiments.report import format_mapping, format_table
from repro.experiments.runner import (
    COPY,
    DEFAULT_BENCH_SCALE,
    LIMITED,
    FaultPolicy,
    SweepError,
    SweepRunner,
)
from repro.sim.engine import SimOptions
from repro.sim.hierarchy import Component
from repro.sim.resultcache import ResultCache, default_cache_dir
from repro.config.system import discrete_gpu_system
from repro.workloads.registry import (
    SUITES,
    all_specs,
    get,
    simulatable_specs,
    suite_specs,
)
from repro.workloads.spec import BenchmarkSpec

#: Exit status of a sweep that completed with task failures: the results
#: that did finish were printed/cached, but the run is not clean.
EXIT_PARTIAL = 3

FIGURES = {
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
}


def _options(args: argparse.Namespace) -> SimOptions:
    return SimOptions(scale=args.scale, seed=args.seed)


def _cache_dir(args: argparse.Namespace):
    if args.no_cache:
        return None
    return args.cache_dir or default_cache_dir()


def _fault_policy(args: argparse.Namespace) -> FaultPolicy:
    return FaultPolicy(
        max_retries=args.max_retries,
        task_timeout_s=args.task_timeout,
        fail_fast=args.fail_fast,
    )


def _runner(args: argparse.Namespace) -> SweepRunner:
    return SweepRunner(
        options=_options(args),
        parallel=args.jobs,
        cache_dir=_cache_dir(args),
        verbose=True,
        preflight=args.preflight,
        fault_policy=_fault_policy(args),
        backend=args.backend,
    )


def _lookup(command: str, name: str) -> Optional[BenchmarkSpec]:
    """The simulatable benchmark registered as ``name``, or None after
    printing ``repro <command>:`` and why not (callers then exit 2)."""
    try:
        spec = get(name)
    except KeyError as exc:
        print(f"repro {command}: {exc.args[0]}", file=sys.stderr)
        return None
    if not spec.simulatable:
        print(f"repro {command}: {spec.full_name} has no pipeline model",
              file=sys.stderr)
        return None
    return spec


def _report_failures(runner: SweepRunner) -> int:
    """Print outstanding task failures; exit status for the command."""
    failures = runner.failures
    if not failures:
        return 0
    print(f"sweep: {len(failures)} task(s) failed:", file=sys.stderr)
    for failure in failures:
        print(f"  {failure.describe()}", file=sys.stderr)
    return EXIT_PARTIAL


def _render_with_failures(runner: SweepRunner, render) -> int:
    """Run a figure/validation renderer against a fault-tolerant runner."""
    try:
        print(render())
    except SweepError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        _report_failures(runner)
        return EXIT_PARTIAL
    return _report_failures(runner)


def cmd_show_config(args: argparse.Namespace) -> int:
    print(format_mapping("Table I: Heterogeneous system parameters", TABLE_I))
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    specs = suite_specs(args.suite) if args.suite else all_specs()
    rows = [
        (
            s.full_name,
            s.simulatable,
            s.pc_comm,
            s.pipe_parallel,
            s.regular_pc,
            s.irregular,
            s.sw_queue,
            s.description,
        )
        for s in specs
    ]
    print(
        format_table(
            (
                "Benchmark",
                "Sim",
                "P-C",
                "Paral",
                "Reg",
                "Irreg",
                "SWQ",
                "Description",
            ),
            rows,
            title=f"Benchmarks ({len(rows)})",
        )
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    runner = _runner(args)
    if args.benchmark is None:
        # Full 46x2 sweep: the workload every figure shares.  With --jobs
        # this is the headline parallel path; a warm cache replays it
        # without simulating anything.  Failed tasks don't abort the
        # sweep: completed results are printed, failures are reported to
        # stderr, and the exit status distinguishes partial from clean.
        specs = sorted(simulatable_specs(), key=lambda s: s.full_name)
        runner.sweep(specs)
        rows = []
        for spec in specs:
            copy_result = runner.try_result(spec, COPY)
            limited_result = runner.try_result(spec, LIMITED)
            ratio = "-"
            if copy_result and limited_result and copy_result.roi_s:
                ratio = f"{limited_result.roi_s / copy_result.roi_s:.3f}"
            rows.append(
                (
                    spec.full_name,
                    f"{copy_result.roi_s:.6g}" if copy_result else "FAILED",
                    f"{limited_result.roi_s:.6g}" if limited_result else "FAILED",
                    ratio,
                )
            )
        print(
            format_table(
                ("Benchmark", "copy roi_s", "limited roi_s", "lc/copy"),
                rows,
                title=f"Sweep ({len(rows)} benchmarks x 2 versions)",
            )
        )
        # The sweep metrics line goes to stderr (verbose runner) so stdout
        # stays byte-identical between cold and warm-cache invocations.
        return _report_failures(runner)
    spec = _lookup("run", args.benchmark)
    if spec is None:
        return 2
    try:
        runner.pair(spec)
    except SweepError:
        pass  # failures reported below; print whichever version completed
    for label, version in (("copy", COPY), ("limited-copy", LIMITED)):
        result = runner.try_result(spec, version)
        if result is None:
            continue
        print(f"\n{spec.full_name} [{label}] on {result.system_kind}")
        summary = result.summary()
        summary["copy_exclusive_share"] = (
            result.exclusive_time(Component.COPY) / result.roi_s if result.roi_s else 0
        )
        print(format_mapping("summary", {k: f"{v:.6g}" for k, v in summary.items()}))
    return _report_failures(runner)


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached results from {cache.root}")
        return 0
    entries = len(cache)
    size_mb = cache.size_bytes() / (1024 * 1024)
    legacy, legacy_bytes = cache.legacy()
    partial, partial_bytes = cache.partial()
    print(format_mapping(
        "Persistent sweep cache",
        {
            "directory": str(cache.root),
            "entries": str(entries),
            "size": f"{size_mb:.1f} MB",
            "legacy v1 entries": f"{legacy} ({legacy_bytes / 2**20:.1f} MB, unread)",
            "partial writes": (
                f"{partial} ({partial_bytes / 2**20:.1f} MB, interrupted stores)"
            ),
        },
    ))
    return 0


def _lint_targets(args: argparse.Namespace):
    """The (pipeline, spec) pairs a lint invocation covers, in report
    order: copy form then renamed limited-copy form for each benchmark —
    the same shapes :func:`repro.analysis.lint_benchmark` lints."""
    from repro.analysis import limited_copy_form
    from repro.workloads.loader import pipeline_from_file

    if args.spec:
        pipeline = pipeline_from_file(args.spec)
        return [(pipeline, None), (limited_copy_form(pipeline), None)]
    specs = (
        [get(name) for name in args.benchmark]
        if args.benchmark
        else [s for s in simulatable_specs()]
    )
    pairs = []
    for spec in specs:
        pipeline = spec.pipeline()
        pairs.append((pipeline, spec))
        pairs.append((limited_copy_form(pipeline), spec))
    return pairs


def cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis import (
        LintReport,
        Severity,
        lint_pipeline,
        render_text,
        report_to_dict,
    )
    from repro.analysis.dataflow import apply_fixes
    from repro.analysis.dataflow.fixes import fix_summary

    try:
        fail_on = Severity.parse(args.fail_on)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    try:
        pairs = _lint_targets(args)
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    fix_records = []
    if args.fix:
        fixed_pairs = []
        for pipeline, spec in pairs:
            result = apply_fixes(pipeline, spec)
            fix_records.append((pipeline.name, result))
            fixed_pairs.append((result.pipeline, spec))
        pairs = fixed_pairs

    report = LintReport()
    for pipeline, spec in pairs:
        report.merge(
            lint_pipeline(pipeline, spec, opportunities=args.opportunities)
        )

    if args.format == "json":
        payload = report_to_dict(report, fail_on=fail_on)
        if args.fix:
            payload["fixes"] = [
                {
                    "pipeline": name,
                    "applied": [
                        {
                            "rule": f.rule,
                            "kind": f.kind,
                            "stages": list(f.stages),
                            "description": f.description,
                        }
                        for f in result.applied
                    ],
                    "skipped": [
                        {
                            "rule": f.rule,
                            "kind": f.kind,
                            "stages": list(f.stages),
                            "description": f.description,
                        }
                        for f in result.skipped
                    ],
                }
                for name, result in fix_records
                if result.applied or result.skipped
            ]
        print(_json.dumps(payload, indent=2))
    else:
        if args.fix:
            applied_total = 0
            for name, result in fix_records:
                if result.applied or result.skipped:
                    print(f"fix: {name}:")
                    for line in fix_summary(result).splitlines():
                        print(f"  {line}")
                applied_total += len(result.applied)
            print(
                f"fix: applied {applied_total} fix(es) across "
                f"{len(fix_records)} pipeline(s)"
            )
        print(render_text(report, fail_on=fail_on))
    return 0 if report.clean(fail_on) else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.config.system import heterogeneous_processor
    from repro.pipeline.transforms import remove_copies
    from repro.sim.engine import simulate
    from repro.sim.observe import (
        InvariantMonitor,
        JsonlSink,
        TraceRecorder,
        write_chrome_trace,
    )
    from repro.sim.timeline import render_trace_timeline

    try:
        spec = get(args.benchmark)
    except KeyError as exc:
        # A bare name shared by several suites is fine for a quick trace:
        # take the first match (suite order) rather than erroring out.
        matches = sorted(
            s.full_name
            for s in all_specs()
            if s.name == args.benchmark and s.simulatable
        )
        if not matches:
            print(f"repro trace: {exc.args[0]}", file=sys.stderr)
            return 2
        spec = get(matches[0])
        if len(matches) > 1:
            print(
                f"repro trace: {args.benchmark!r} is ambiguous "
                f"({', '.join(matches)}); tracing {matches[0]}",
                file=sys.stderr,
            )
    if not spec.simulatable:
        print(
            f"repro trace: {spec.full_name} has no pipeline model",
            file=sys.stderr,
        )
        return 2
    pipeline = spec.pipeline()
    if args.system == "hsa":
        pipeline = remove_copies(pipeline)
        system = heterogeneous_processor()
    else:
        system = discrete_gpu_system()

    recorder = TraceRecorder()
    sinks = [recorder]
    if args.output and args.format == "jsonl":
        sinks.append(JsonlSink(args.output))
    monitor = None
    if not args.no_check:
        monitor = InvariantMonitor(mode="record")
        sinks.append(monitor)
    # The cache/runner path is bypassed on purpose: replayed results carry
    # no events, and tracing must watch a live engine.
    result = simulate(pipeline, system, _options(args), sinks=sinks)

    label = f"{spec.full_name} [{args.system}]"
    if args.output:
        if args.format == "chrome":
            write_chrome_trace(
                args.output,
                recorder.events,
                name=label,
                other_data={
                    "system": result.system_kind,
                    "roi_s": result.roi_s,
                },
            )
        print(f"wrote {len(recorder.events)} events to {args.output}")
    else:
        print(render_trace_timeline(recorder.events, title=label))
        print(f"\n{len(recorder.events)} events traced")
    if monitor is not None:
        if result.violations:
            print(
                f"INVARIANT VIOLATIONS ({len(result.violations)}):",
                file=sys.stderr,
            )
            for violation in result.violations:
                print(
                    f"  [{violation.rule}] {violation.message}", file=sys.stderr
                )
            return 1
        print("invariants: all clean", file=sys.stderr)
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    print(table2.render())
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    spec = None
    if args.benchmark is not None:
        spec = _lookup("advise", args.benchmark)
        if spec is None:
            return 2
    if args.static:
        from repro.analysis.dataflow import render_static_table, static_advice

        ignored = [
            flag
            for flag in _RUNNER_FLAGS
            if getattr(args, flag[2:].replace("-", "_"))
            != _FLAGS[flag].get("default", False)
        ]
        if ignored:
            print(
                f"repro advise: --static runs no sweep, so it takes none of "
                f"{', '.join(ignored)}",
                file=sys.stderr,
            )
            return 2
        if spec is not None:
            print(static_advice(spec).render())
        else:
            specs = sorted(simulatable_specs(), key=lambda s: s.full_name)
            print(render_static_table([static_advice(s) for s in specs]))
        return 0
    if spec is None:
        print(
            "repro advise: a benchmark name is required unless --static "
            "is given (the static advisor can sweep the whole registry; "
            "the simulation-backed advisor runs one benchmark)",
            file=sys.stderr,
        )
        return 2
    runner = _runner(args)
    return _render_with_failures(
        runner, lambda: advisor.advise(spec, runner).render()
    )


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.sim.timeline import render_stage_table, render_timeline

    spec = _lookup("timeline", args.benchmark)
    if spec is None:
        return 2
    runner = _runner(args)
    version = "limited-copy" if args.limited else "copy"
    try:
        result = runner.run(spec, version)
    except SweepError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        _report_failures(runner)
        return EXIT_PARTIAL
    print(render_timeline(result))
    print()
    print(render_stage_table(result))
    return 0


def cmd_run_spec(args: argparse.Namespace) -> int:
    from repro.config.system import heterogeneous_processor
    from repro.pipeline.transforms import remove_copies
    from repro.sim.engine import simulate
    from repro.sim.timeline import render_timeline
    from repro.workloads.loader import pipeline_from_file

    try:
        pipeline = pipeline_from_file(args.spec)
    except (OSError, ValueError) as exc:
        print(f"repro run-spec: {exc}", file=sys.stderr)
        return 2
    options = _options(args)
    baseline = simulate(pipeline, discrete_gpu_system(), options)
    ported = simulate(
        remove_copies(pipeline), heterogeneous_processor(), options
    )
    print(render_timeline(baseline))
    print()
    print(render_timeline(ported))
    print(
        f"\nporting changes run time by "
        f"{ported.roi_s / baseline.roi_s - 1.0:+.1%}"
    )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.sim.serialize import result_to_json

    spec = _lookup("export", args.benchmark)
    if spec is None:
        return 2
    runner = _runner(args)
    version = "limited-copy" if args.limited else "copy"
    try:
        result = runner.run(spec, version)
    except SweepError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        _report_failures(runner)
        return EXIT_PARTIAL
    text = result_to_json(result, include_log=args.include_log)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    print(fig3.render(_options(args)))
    return 0


def cmd_figure(module):
    def handler(args: argparse.Namespace) -> int:
        runner = _runner(args)
        return _render_with_failures(runner, lambda: module.render(runner))

    return handler


def cmd_validate(args: argparse.Namespace) -> int:
    runner = _runner(args)
    return _render_with_failures(runner, lambda: validation.render(runner))


def cmd_ablations(args: argparse.Namespace) -> int:
    print(ablations.render(_options(args)))
    return 0


def cmd_all(args: argparse.Namespace) -> int:
    runner = _runner(args)
    try:
        print(format_mapping("Table I", TABLE_I))
        print()
        print(table2.render())
        print()
        print(fig3.render(_options(args)))
        for name, module in FIGURES.items():
            print()
            print(module.render(runner))
        print()
        print(validation.render(runner))
        print()
        print(ablations.render(_options(args)))
    except SweepError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        _report_failures(runner)
        return EXIT_PARTIAL
    return _report_failures(runner)


def _positive(text: str) -> float:
    """``--scale`` / ``--task-timeout``: a finite, positive number (any
    other scale fails every simulation it reaches; any other timeout
    kills every task, or none)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite, positive number, got {text!r}"
        )
    return value


def _count(text: str) -> int:
    """``--jobs`` / ``--max-retries``: a whole number, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return value


#: Every flag that more than one command takes, defined once:
#: ``add_argument`` keywords by flag.
_FLAGS: Dict[str, Dict[str, Any]] = {
    "--scale": dict(
        type=_positive,
        default=DEFAULT_BENCH_SCALE,
        help="footprint/cache scale factor (1.0 = paper scale)",
    ),
    "--seed": dict(type=int, default=0, help="trace seed"),
    "--jobs": dict(
        type=_count,
        default=0,
        help="parallel sweep workers (0 = every CPU this process may run "
        "on, 1 = serial)",
    ),
    "--cache-dir": dict(
        default=None,
        help="persistent result-cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-sweeps)",
    ),
    "--no-cache": dict(
        action="store_true", help="disable the persistent result cache"
    ),
    "--preflight": dict(
        action="store_true",
        help="statically lint every pipeline before simulating and refuse "
        "to run on error-level findings",
    ),
    "--max-retries": dict(
        type=_count,
        default=2,
        metavar="N",
        help="retry each failing simulation up to N times with capped "
        "exponential backoff (default: 2; 0 disables retries)",
    ),
    "--task-timeout": dict(
        type=_positive,
        default=None,
        metavar="SECONDS",
        help="kill and retry any single simulation exceeding this "
        "wall-clock budget (parallel workers only; default: none)",
    ),
    "--fail-fast": dict(
        action="store_true",
        help="stop dispatching new work once a task exhausts its retries; "
        "results finished before the failure are kept",
    ),
    "--backend": dict(
        choices=EXECUTOR_BACKENDS,
        default="local",
        help="executor backend for parallel sweeps: 'local' shares a "
        "process pool, 'subprocess' isolates each task in its own worker "
        "child (docs/SWEEPS.md); results are bit-identical across backends",
    ),
}
#: Commands that simulate without a sweep runner read only these.
_SIM_FLAGS = ("--scale", "--seed")
#: Commands that build a sweep runner read every flag.
_RUNNER_FLAGS = tuple(_FLAGS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'GPU Computing Pipeline "
        "Inefficiencies and Optimization Opportunities in Heterogeneous "
        "CPU-GPU Processors' (IISWC 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, flags=()):
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
        return p

    add("show-config", cmd_show_config, "print Table I")
    list_p = add("list", cmd_list, "list benchmarks and Table II flags")
    list_p.add_argument("--suite", choices=SUITES, default=None)
    run_p = add("run", cmd_run,
                "simulate one benchmark (or, with no argument, the full "
                "46x2 sweep), both versions", _RUNNER_FLAGS)
    run_p.add_argument("benchmark", nargs="?", default=None,
                       help="benchmark name, e.g. rodinia/kmeans; omit to "
                       "run the whole sweep")
    add("table2", cmd_table2, "regenerate Table II")
    lint_p = add(
        "lint",
        cmd_lint,
        "statically verify pipelines (hazards, memory spaces, Table II)",
    )
    lint_p.add_argument(
        "benchmark", nargs="*", default=None,
        help="benchmark names to lint; omit to lint the full registry")
    lint_p.add_argument(
        "--spec", default=None,
        help="lint a declarative JSON workload file instead of registered "
        "benchmarks")
    lint_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)")
    lint_p.add_argument(
        "--fail-on", default="error", metavar="SEVERITY",
        help="exit 1 when a finding at or above this severity exists "
        "(error, warn, info; default: error)")
    lint_p.add_argument(
        "--fix", action="store_true",
        help="apply safe autofixes (drop dead copies, fuse copy chains) "
        "before linting; the report reflects the fixed pipelines")
    lint_p.add_argument(
        "--opportunities", action="store_true",
        help="also run the RPL303-305 opportunity rules (overlap-blocking "
        "serialization, migration candidates, cache-coordination "
        "conflicts) — info-level headroom reports, not defects")
    trace_p = add(
        "trace",
        cmd_trace,
        "simulate one benchmark with event tracing + invariant monitoring",
        _SIM_FLAGS,
    )
    trace_p.add_argument("benchmark", help="benchmark name, e.g. lonestar/bfs")
    trace_p.add_argument(
        "--system", choices=("discrete", "hsa"), default="discrete",
        help="discrete: copy version on the discrete-GPU machine; hsa: "
        "limited-copy version on the heterogeneous processor")
    trace_p.add_argument(
        "-o", "--output", default=None,
        help="output file; omit to print an ASCII timeline instead")
    trace_p.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="chrome: trace_event JSON for Perfetto/chrome://tracing "
        "(default); jsonl: one event per line")
    trace_p.add_argument(
        "--no-check", action="store_true",
        help="skip the conservation-invariant monitor")
    cache_p = add("cache", cmd_cache, "inspect the persistent result cache",
                  ("--cache-dir",))
    cache_p.add_argument("--clear", action="store_true",
                         help="delete every cached result, legacy v1 "
                         "entries and partial writes included")
    advise_p = add("advise", cmd_advise,
                   "rank optimization opportunities for one benchmark",
                   _RUNNER_FLAGS)
    advise_p.add_argument("benchmark", nargs="?", default=None,
                          help="benchmark name; optional with --static "
                          "(omit to advise the whole registry)")
    advise_p.add_argument(
        "--static", action="store_true",
        help="simulation-free advisor: derive the verdicts from the "
        "dataflow engine's static roofline model instead of simulating")
    timeline_p = add("timeline", cmd_timeline,
                     "render a run's component activity as ASCII Gantt",
                     _RUNNER_FLAGS)
    timeline_p.add_argument("benchmark", help="benchmark name")
    timeline_p.add_argument("--limited", action="store_true",
                            help="show the limited-copy version")
    export_p = add("export", cmd_export, "dump one run as JSON",
                   _RUNNER_FLAGS)
    export_p.add_argument("benchmark", help="benchmark name")
    export_p.add_argument("--limited", action="store_true")
    export_p.add_argument("--include-log", action="store_true",
                          help="include the raw off-chip access log")
    export_p.add_argument("--output", default=None, help="output file path")
    spec_p = add("run-spec", cmd_run_spec,
                 "simulate a declarative JSON workload, both systems",
                 _SIM_FLAGS)
    spec_p.add_argument("spec", help="path to a workload JSON file")
    add("fig3", cmd_fig3, "regenerate Fig. 3 (kmeans case study)",
        _SIM_FLAGS)
    for name, module in FIGURES.items():
        add(name, cmd_figure(module), f"regenerate {name}", _RUNNER_FLAGS)
    add("validate", cmd_validate, "Section V-A/V-B model validations",
        _RUNNER_FLAGS)
    add("ablations", cmd_ablations, "ablation studies", _SIM_FLAGS)
    add("all", cmd_all, "regenerate every table and figure", _RUNNER_FLAGS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
