"""One phase of a perfbench workload, run in a fresh interpreter.

    python perfbench/phase.py KIND --seed N --report OUT.json \\
        [--cache-dir DIR] [--verify DIR ...] [--trace PREFIX]

KIND is one of

``cold``    sweep the subset serially with lint preflight into an empty
            result cache (``cold_sweep``);
``fill``    sweep the subset with the CLI's default pooled sweep, one
            worker per usable CPU, into an empty result cache (the
            ``warm_figures`` set-up);
``render``  render Figs. 4-9 for the subset from one runner over a warm
            cache (``warm_figures``);
``design``  run the five ablation studies on kmeans, srad and bfs without
            a result cache (``design_space``);
``verify``  digest every cached result of the subset through the public
            cache API; untimed, it checks what ``cold`` and ``fill`` wrote.

The report holds the phase's outputs as digests (checked by ``run.py``
against ``expected.json``), failures, and work counters read from public
APIs.  With ``--trace`` the layer entry points are wrapped (``tracer.py``)
and the spans are written to ``PREFIX.spans.json`` and
``PREFIX.chrome.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import repro.cli  # noqa: F401  (every CLI run pays this import)
import tracer as tracing
from repro.analysis.memo import default_memo
from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments import ablations
from repro.experiments.parallel import COPY, LIMITED, VERSIONS
from repro.experiments.runner import SweepRunner
from repro.sim.engine import SimOptions
from repro.sim.memo import shared_stage_memo
from repro.sim.resultcache import ResultCache, cache_key
from repro.sim.serialize import result_to_full_dict
from repro.workloads.registry import get

#: Footprint scale of every workload: the ROADMAP baseline's 1/32.
SCALE = 1 / 32

#: Graph benchmarks with large off-chip logs (bfs and mst: 1.3 and 3.9 MB
#: gzip entries) beside small regular ones (histo, kmeans, srad: 0.1-0.5
#: MB).  This is QUICK_SWEEP_BENCHMARKS trimmed to fit the run budget: with
#: these five a warm_figures run already takes 40-60 s on a 2-vCPU VM.
SUBSET = (
    "lonestar/bfs",
    "lonestar/mst",
    "parboil/histo",
    "rodinia/kmeans",
    "rodinia/srad",
)

#: Benchmarks of ``design_space``: one cache-contended, one fault-heavy,
#: one graph benchmark; every study runs on each.
DESIGN = ("rodinia/kmeans", "rodinia/srad", "lonestar/bfs")

STUDIES = (
    "cache_size_sweep",
    "pagefault_sweep",
    "pcie_sweep",
    "alignment_ablation",
    "dynamic_parallelism_sweep",
)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result: Any) -> str:
    """SHA-256 of the sorted-key JSON of ``result_to_full_dict``."""
    return digest_text(json.dumps(result_to_full_dict(result), sort_keys=True))


def rows_digest(rows: Any) -> str:
    rows = rows if isinstance(rows, list) else [rows]
    return digest_text(json.dumps([dataclasses.asdict(row) for row in rows]))


def _entry_sizes(cache: ResultCache) -> Dict[str, int]:
    return {path.name: path.stat().st_size for path in cache.entries()}


def _memo_counters() -> Dict[str, int]:
    stats = shared_stage_memo().stats
    lint = default_memo()
    return {
        "memo_hits": stats.hits,
        "memo_lookups": stats.lookups,
        "memo_clears": stats.clears,
        "lint_calls": lint.hits + lint.misses,
    }


def _sweep(cache: ResultCache, sweeps: List[Any], cache_before: Dict[str, int],
           accesses: int) -> Dict[str, Any]:
    """Outputs and counters shared by the phases that sweep."""
    after = _entry_sizes(cache)
    failures = [f.describe() for m in sweeps for f in m.failures]
    counters = {
        "simulations": sum(m.launched for m in sweeps),
        "cache_hits": sum(m.cache_hits for m in sweeps),
        "cache_misses": sum(m.total - m.cache_hits - m.memo_hits for m in sweeps),
        "runner_memo_hits": sum(m.memo_hits for m in sweeps),
        # Every key a phase requests is loaded once (the runner memo serves
        # repeats), so the entries present at the start are the bytes read.
        "bytes_read": sum(cache_before.values()),
        "bytes_written": sum(
            size for name, size in after.items() if cache_before.get(name) != size
        ),
        "simulated_accesses": accesses,
        "cache_entries": len(after),
        **_memo_counters(),
    }
    return {"failures": failures, "counters": counters}


def _accesses(runs: Dict[str, Any]) -> int:
    return sum(
        stage.requests
        for pair in runs.values()
        for result in (pair.copy, pair.limited)
        for stage in result.stages
    )


def _sweep_phase(args: argparse.Namespace, jobs: int, preflight: bool) -> Dict[str, Any]:
    runner = SweepRunner(
        options=SimOptions(scale=SCALE, seed=args.seed),
        parallel=jobs,
        cache_dir=args.cache_dir,
        preflight=preflight,
    )
    assert runner.cache is not None
    before = _entry_sizes(runner.cache)
    runs = runner.sweep([get(name) for name in SUBSET])
    assert runner.last_metrics is not None
    return _sweep(runner.cache, [runner.last_metrics], before, _accesses(runs))


def phase_cold(args: argparse.Namespace) -> Dict[str, Any]:
    return _sweep_phase(args, jobs=1, preflight=True)


def phase_fill(args: argparse.Namespace) -> Dict[str, Any]:
    return _sweep_phase(args, jobs=len(os.sched_getaffinity(0)), preflight=False)


def phase_render(args: argparse.Namespace) -> Dict[str, Any]:
    runner = SweepRunner(
        options=SimOptions(scale=SCALE, seed=args.seed),
        parallel=len(os.sched_getaffinity(0)),
        cache_dir=args.cache_dir,
    )
    assert runner.cache is not None
    before = _entry_sizes(runner.cache)
    specs = [get(name) for name in SUBSET]
    ops: Dict[str, str] = {}
    sweeps = []
    for fig in tracing.FIGURES:
        module = importlib.import_module(f"repro.experiments.{fig}")
        try:
            ops[fig] = digest_text(module.render(runner, specs))
        except Exception as exc:  # one failed operation, the rest still run
            ops[fig] = f"error: {type(exc).__name__}: {exc}"
        if runner.last_metrics is not None:
            sweeps.append(runner.last_metrics)
    report = _sweep(runner.cache, sweeps, before, 0)
    report["ops"] = ops
    return report


def phase_design(args: argparse.Namespace) -> Dict[str, Any]:
    options = SimOptions(scale=SCALE, seed=args.seed)
    ops: Dict[str, str] = {}
    for name in DESIGN:
        for study in STUDIES:
            try:
                rows = getattr(ablations, study)(benchmark=name, options=options)
                ops[f"{name}:{study}"] = rows_digest(rows)
            except Exception as exc:  # one failed operation, the rest still run
                ops[f"{name}:{study}"] = f"error: {type(exc).__name__}: {exc}"
    return {"ops": ops, "counters": _memo_counters()}


def phase_verify(args: argparse.Namespace) -> Dict[str, Any]:
    """Digest each cache's results through the public cache API."""
    options = SimOptions(scale=SCALE, seed=args.seed)
    systems = {COPY: discrete_gpu_system(), LIMITED: heterogeneous_processor()}
    caches: Dict[str, Dict[str, str]] = {}
    for directory in args.verify:
        cache = ResultCache(directory)
        ops: Dict[str, str] = {}
        for name in SUBSET:
            spec = get(name)
            for version in VERSIONS:
                entry = cache.load(cache_key(spec, version, systems[version], options))
                ops[f"{name}:{version}"] = (
                    "error: no cache entry" if entry is None
                    else result_digest(entry.result)
                )
        caches[directory] = ops
    return {"caches": caches}


PHASES = {
    "cold": phase_cold,
    "fill": phase_fill,
    "render": phase_render,
    "design": phase_design,
    "verify": phase_verify,
}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=sorted(PHASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--verify", action="append", default=[])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        recorder = tracing.Tracer()
        tracing.install(recorder)
    report = PHASES[args.kind](args)
    if recorder is not None:
        recorder.unpatch()
        report["layers"] = tracing.layer_metrics(recorder.spans)
        memo = shared_stage_memo()
        report["layers"]["sim.memo.clears"] = memo.stats.clears
        report["layers"]["sim.memo.retained_mb"] = memo.retained_bytes / 1e6
        report["covered_s"] = tracing.covered_ns(recorder.spans) / 1e9
        report["spans"] = len(recorder.spans)
        _write_trace(args.trace, args.kind, recorder.spans)
    report["kind"] = args.kind
    report["finished_unix"] = time.time()
    Path(args.report).write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0


def _write_trace(prefix: str, kind: str, spans: List[Any]) -> None:
    from repro.sim.observe.chrome import validate_chrome_trace

    chrome = tracing.chrome_trace(spans, kind)
    problems = validate_chrome_trace(chrome)
    if problems:
        raise ValueError("malformed Chrome trace: " + "; ".join(problems[:5]))
    Path(f"{prefix}.spans.json").write_text(json.dumps(tracing.spans_json(spans)))
    Path(f"{prefix}.chrome.json").write_text(json.dumps(chrome))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
