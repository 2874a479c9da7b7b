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
    repro serve [--port P --jobs N]   # async HTTP/JSON sweep service
    repro lint [BENCHMARK...] [--fix] # static pipeline verification
    repro advise [BENCHMARK] [--static]  # rank optimization opportunities
    repro trace BENCHMARK             # run with the tracing layer attached
    repro all [--scale S]             # everything above

``repro lint`` exits 0 when no finding reaches the ``--fail-on``
threshold, 1 when one does, and 2 on usage errors (unknown benchmark or
unreadable spec file) — see docs/LINTING.md.

``repro trace`` simulates one benchmark with the event-tracing layer and
invariant monitor attached (docs/TRACING.md): ``--system discrete`` runs
the copy version on the discrete-GPU machine, ``--system hsa`` the
limited-copy version on the heterogeneous processor.  ``-o out.json``
writes a Chrome ``trace_event`` file (open in https://ui.perfetto.dev);
``--format jsonl`` writes the compact JSONL stream instead.  Exits 1 if
any conservation invariant was violated, 2 on usage errors.

Every simulating command takes ``--jobs N`` (0 = every CPU this process
may run on, 1 = serial in-parent) to fan the sweep out over an executor
backend (``--backend local`` process pool or ``subprocess`` worker
children), and ``--cache-dir``/``--no-cache`` to control the persistent
result cache (default ``~/.cache/repro-sweeps``, or ``$REPRO_CACHE_DIR``).
A repeated invocation with a warm cache simulates nothing and reproduces
identical output.

``repro serve`` turns the sweep runner into a long-running service
(docs/SERVING.md): an asyncio HTTP/JSON API accepting simulation, sweep,
and advisor jobs — validated with the lint preflight, deduplicated by
content hash against in-flight work, dispatched through the fault
supervisor, and answered from the shared result cache when warm.

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
import sys
from typing import List, Optional

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
    return SimOptions(
        scale=args.scale,
        seed=args.seed,
        engine_impl=getattr(args, "engine", "fast"),
        stage_memo=getattr(args, "stage_memo", "auto"),
    )


def _cache_dir(args: argparse.Namespace):
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None) or default_cache_dir()


def _fault_policy(args: argparse.Namespace) -> FaultPolicy:
    return FaultPolicy(
        max_retries=getattr(args, "max_retries", 2),
        task_timeout_s=getattr(args, "task_timeout", None),
        fail_fast=getattr(args, "fail_fast", False),
    )


def _runner(args: argparse.Namespace) -> SweepRunner:
    return SweepRunner(
        options=_options(args),
        parallel=getattr(args, "jobs", 1),
        cache_dir=_cache_dir(args),
        verbose=True,
        preflight=getattr(args, "preflight", False),
        fault_policy=_fault_policy(args),
        backend=getattr(args, "backend", "local"),
    )


def _lookup(command: str, name: str) -> Optional[BenchmarkSpec]:
    """The benchmark registered as ``name``, or None after printing
    ``repro <command>: no benchmark named ...`` (callers then exit 2)."""
    try:
        return get(name)
    except KeyError as exc:
        print(f"repro {command}: {exc.args[0]}", file=sys.stderr)
        return None


def _report_failures(runner: SweepRunner) -> int:
    """Print outstanding task failures; exit status for the command."""
    failures = runner.metrics_registry.failures
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
    cache = ResultCache(getattr(args, "cache_dir", None) or default_cache_dir())
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


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeApp, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        concurrency=args.concurrency,
        cache_dir=getattr(args, "cache_dir", None),
        no_cache=getattr(args, "no_cache", False),
        default_scale=args.default_scale,
        max_retries=args.max_retries,
        task_timeout_s=args.task_timeout,
        lint=not args.no_lint,
        backend=args.backend,
    )
    app = ServeApp(config)

    def announce(ready: ServeApp) -> None:
        print(
            f"repro serve: listening on http://{config.host}:{ready.port} "
            f"(workers={max(1, config.concurrency)}, "
            f"pool jobs={ready._health()['pool_jobs']}, "
            f"cache={'off' if app.cache is None else app.cache.root})",
            file=sys.stderr,
        )

    try:
        asyncio.run(app.run_until_shutdown(on_ready=announce))
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", file=sys.stderr)
    return 0


def _lint_targets(args: argparse.Namespace):
    """The (pipeline, spec) pairs a lint invocation covers, in report
    order: copy form then renamed limited-copy form for each benchmark —
    the same shapes :func:`repro.analysis.lint_benchmark` lints."""
    from repro.pipeline.transforms import remove_copies
    from repro.workloads.loader import pipeline_from_file

    pairs = []
    if args.spec:
        pipeline = pipeline_from_file(args.spec)
        limited = remove_copies(pipeline)
        pairs.append((pipeline, None))
        pairs.append((
            limited.with_stages(
                limited.stages, name=f"{pipeline.name} [limited-copy]"
            ),
            None,
        ))
        return pairs
    specs = (
        [get(name) for name in args.benchmark]
        if args.benchmark
        else [s for s in simulatable_specs()]
    )
    for spec in specs:
        if not spec.simulatable:
            continue
        pipeline = spec.pipeline()
        limited = remove_copies(pipeline)
        pairs.append((pipeline, spec))
        pairs.append((
            limited.with_stages(
                limited.stages, name=f"{pipeline.name} [limited-copy]"
            ),
            spec,
        ))
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
        TraceRecorder,
        event_to_dict,
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
    monitor = None
    if not args.no_check:
        monitor = InvariantMonitor(mode="record")
        sinks.append(monitor)
    # The cache/runner path is bypassed on purpose: replayed results carry
    # no events, and tracing must watch a live engine.
    result = simulate(pipeline, system, _options(args), sinks=sinks)

    label = f"{spec.full_name} [{args.system}]"
    if args.output:
        if args.format == "jsonl":
            import json as _json

            with open(args.output, "w", encoding="utf-8") as handle:
                for event in recorder.events:
                    _json.dump(event_to_dict(event), handle, separators=(",", ":"))
                    handle.write("\n")
        else:
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

    pipeline = pipeline_from_file(args.spec)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'GPU Computing Pipeline "
        "Inefficiencies and Optimization Opportunities in Heterogeneous "
        "CPU-GPU Processors' (IISWC 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--scale",
            type=float,
            default=DEFAULT_BENCH_SCALE,
            help="footprint/cache scale factor (1.0 = paper scale)",
        )
        p.add_argument("--seed", type=int, default=0, help="trace seed")
        p.add_argument(
            "--engine",
            choices=("reference", "fast"),
            default="fast",
            help="cache-simulation implementation (default: fast, the "
            "vectorized engine; 'reference' opts back into the "
            "bit-identical readable baseline — see docs/BENCHMARKING.md)",
        )
        p.add_argument(
            "--stage-memo",
            choices=("auto", "on", "off"),
            default="auto",
            help="stage-level memoization: replay repeated memory steps "
            "(page-fault touch, each cache level, peer probe, copy) instead "
            "of re-simulating them; 'auto' "
            "enables it with the fast engine (default), results are "
            "bit-identical either way (docs/MODELING.md)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=0,
            help="parallel sweep workers (0 = every CPU this process may "
            "run on, 1 = serial)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            help="persistent result-cache directory "
            "(default: $REPRO_CACHE_DIR or ~/.cache/repro-sweeps)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the persistent result cache",
        )
        p.add_argument(
            "--preflight",
            action="store_true",
            help="statically lint every pipeline before simulating and "
            "refuse to run on error-level findings",
        )
        p.add_argument(
            "--max-retries",
            type=int,
            default=2,
            metavar="N",
            help="retry each failing simulation up to N times with capped "
            "exponential backoff (default: 2; 0 disables retries)",
        )
        p.add_argument(
            "--task-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="kill and retry any single simulation exceeding this "
            "wall-clock budget (parallel workers only; default: none)",
        )
        p.add_argument(
            "--fail-fast",
            action="store_true",
            help="stop dispatching new work once a task exhausts its "
            "retries; results finished before the failure are kept",
        )
        p.add_argument(
            "--backend",
            choices=EXECUTOR_BACKENDS,
            default="local",
            help="executor backend for parallel sweeps: 'local' shares a "
            "process pool, 'subprocess' isolates each task in its own "
            "worker child (docs/SWEEPS.md); results are bit-identical "
            "across backends",
        )
        p.set_defaults(handler=handler)
        return p

    add("show-config", cmd_show_config, "print Table I")
    list_p = add("list", cmd_list, "list benchmarks and Table II flags")
    list_p.add_argument("--suite", choices=SUITES, default=None)
    run_p = add("run", cmd_run,
                "simulate one benchmark (or, with no argument, the full "
                "46x2 sweep), both versions")
    run_p.add_argument("benchmark", nargs="?", default=None,
                       help="benchmark name, e.g. rodinia/kmeans; omit to "
                       "run the whole sweep")
    add("table2", cmd_table2, "regenerate Table II")
    lint_p = sub.add_parser(
        "lint",
        help="statically verify pipelines (hazards, memory spaces, Table II)",
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
    lint_p.set_defaults(handler=cmd_lint)
    trace_p = add(
        "trace",
        cmd_trace,
        "simulate one benchmark with event tracing + invariant monitoring",
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
    cache_p = add("cache", cmd_cache, "inspect the persistent result cache")
    cache_p.add_argument("--clear", action="store_true",
                         help="delete every cached result, legacy v1 "
                         "entries and partial writes included")
    serve_p = sub.add_parser(
        "serve",
        help="run the async HTTP/JSON sweep service (docs/SERVING.md)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8372,
        help="listen port (0 = pick a free port; default: 8372)")
    serve_p.add_argument(
        "--jobs", type=int, default=0,
        help="process-pool width each job's sweep fans out over "
        "(0 = every CPU this process may run on, 1 = serial in-parent)")
    serve_p.add_argument(
        "--concurrency", type=int, default=2,
        help="jobs executing at once, each with its own sweep pool "
        "(default: 2)")
    serve_p.add_argument(
        "--cache-dir", default=None,
        help="persistent result-cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-sweeps)")
    serve_p.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache (dedup of in-flight "
        "duplicates still applies; warm repeats re-simulate)")
    serve_p.add_argument(
        "--default-scale", type=float, default=DEFAULT_BENCH_SCALE,
        help="scale used by jobs that do not specify one")
    serve_p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="fault-supervisor retries per failing simulation (default: 2)")
    serve_p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry any single simulation exceeding this budget")
    serve_p.add_argument(
        "--no-lint", action="store_true",
        help="skip the lint preflight on submitted jobs")
    serve_p.add_argument(
        "--backend", choices=EXECUTOR_BACKENDS, default="local",
        help="executor backend job sweeps fan out through "
        "(docs/SWEEPS.md)")
    serve_p.set_defaults(handler=cmd_serve)
    advise_p = add("advise", cmd_advise,
                   "rank optimization opportunities for one benchmark")
    advise_p.add_argument("benchmark", nargs="?", default=None,
                          help="benchmark name; optional with --static "
                          "(omit to advise the whole registry)")
    advise_p.add_argument(
        "--static", action="store_true",
        help="simulation-free advisor: derive the verdicts from the "
        "dataflow engine's static roofline model instead of simulating")
    timeline_p = add("timeline", cmd_timeline,
                     "render a run's component activity as ASCII Gantt")
    timeline_p.add_argument("benchmark", help="benchmark name")
    timeline_p.add_argument("--limited", action="store_true",
                            help="show the limited-copy version")
    export_p = add("export", cmd_export, "dump one run as JSON")
    export_p.add_argument("benchmark", help="benchmark name")
    export_p.add_argument("--limited", action="store_true")
    export_p.add_argument("--include-log", action="store_true",
                          help="include the raw off-chip access log")
    export_p.add_argument("--output", default=None, help="output file path")
    spec_p = add("run-spec", cmd_run_spec,
                 "simulate a declarative JSON workload, both systems")
    spec_p.add_argument("spec", help="path to a workload JSON file")
    add("fig3", cmd_fig3, "regenerate Fig. 3 (kmeans case study)")
    for name, module in FIGURES.items():
        add(name, cmd_figure(module), f"regenerate {name}")
    add("validate", cmd_validate, "Section V-A/V-B model validations")
    add("ablations", cmd_ablations, "ablation studies")
    add("all", cmd_all, "regenerate every table and figure")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
