"""The repo benchmark: host time and memory of three workloads, layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from ``src/``.
Every phase is a fresh interpreter (``perfbench/phase.py``, or
``compileall`` for the compile) with ``PYTHONHASHSEED`` fixed, BLAS/OpenMP
threads at 1 and every cache in a throwaway directory of the checkout, so
each starts with empty stage, trace, lint and runner memos.  Timed phases
repeat until ``--seconds`` have passed (at least twice); each metric is
their median.

On a shared host the speed of the same code drifts by up to 2x over
minutes.  So every timed or set-up phase sits between two runs of
:func:`calibrate`, a fixed piece of work that uses nothing of the
program, and its wall time is scaled to the speed at which that work
takes ``CALIBRATION_NOMINAL_S``.  ``wall_s`` and ``setup_s`` are medians
of these scaled times; the unscaled medians are printed beside them.

Workloads (see README.md for why each exists and what it should move):

``cold_sweep``    serial sweep of the subset with lint preflight into an
                  empty result cache;
``warm_figures``  set-up: pooled fill of an empty cache (``setup_s``);
                  timed: Figs. 4-9 rendered from that cache;
``design_space``  the five ablation studies on kmeans, srad and bfs.

Each run starts by byte-compiling ``src/``; that compile is the set-up of
``cold_sweep`` and ``design_space``, which have no other.

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` runs the same untraced phases, then one
traced run of each phase kind with the layer entry points wrapped, and
prints the per-layer metrics, the traced wall, the part of it no span
covers and the tracing overhead.  The last stdout line is one JSON object.

The seed reaches the program only as ``SimOptions.seed``: seed ``n`` runs
``SimOptions(seed=n % K)`` for the K seeds whose outputs ``expected.json``
records, and every output is checked against that record.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
PHASE = HERE / "phase.py"
EXPECTED = HERE / "expected.json"
SPEC = HERE.parent / "BENCHMARK.json"

#: workload -> (set-up phase kind, set-up repetitions, timed phase kind).
#: Every run first byte-compiles the program (``compile``), so no timed
#: phase pays compilation.  cold_sweep and design_space have no other
#: set-up; their ``setup_s`` is that compile.
WORKLOADS: Dict[str, Tuple[str, int, str]] = {
    "cold_sweep": ("compile", 5, "cold"),
    "warm_figures": ("fill", 3, "render"),
    "design_space": ("compile", 5, "design"),
}

#: The set-up every run starts with: the program and the benchmark's own
#: modules compiled to bytecode, afresh, in a fresh interpreter.
COMPILE = ("-m", "compileall", "-q", "-f", "src", "perfbench")

MIN_TIMED = 2
#: No new timed phase starts this long after the run began, so a run on
#: a slow machine still ends well within three minutes.
LAST_START_S = 100.0
#: A phase still running this long after the run began is killed (and
#: its operations fail), so even a hung run prints its result in time.
RUN_DEADLINE_S = 165.0
#: Seconds :func:`calibrate` takes on a quiet 2-vCPU x86-64 VM; scaled
#: times are host seconds at that speed.
CALIBRATION_NOMINAL_S = 0.55


def calibrate() -> float:
    """Host seconds of a fixed mix of the kinds of work the program does:
    numpy sorts and scans, a Python dict loop, JSON and gzip round trips.

    It uses nothing of the program, so no change to the program moves it;
    only the host's speed does.
    """
    import gzip

    import numpy as np

    rng = np.random.default_rng(20150000)
    start = time.perf_counter()
    for _ in range(3):
        keys = rng.integers(0, 1 << 20, size=200_000)
        order = np.argsort(keys, kind="stable")
        np.cumsum(keys[order])
        np.unique(keys)
        table: Dict[int, int] = {}
        for i, key in enumerate(keys[:40_000].tolist()):
            table[key & 4095] = table.get(key & 4095, 0) + i
        text = json.dumps(keys[:60_000].tolist()).encode()
        json.loads(gzip.decompress(gzip.compress(text, 6)))
    return time.perf_counter() - start


def metric_units(section: str) -> Dict[str, str]:
    """Names and units of ``BENCHMARK.json``'s ``end_to_end`` or
    ``per_layer`` metrics, in their order."""
    spec = json.loads(SPEC.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


@dataclass
class Sample:
    """One phase process: its host wall time, peak RSS and report."""

    kind: str
    wall_s: float
    peak_rss_mb: float
    report: Optional[Dict[str, Any]]
    error: Optional[str] = None
    cache_dir: Optional[str] = None
    #: Mean of the calibrations just before and just after the phase.
    calibration_s: float = CALIBRATION_NOMINAL_S

    @property
    def scaled_s(self) -> float:
        """``wall_s`` at the host speed on which :func:`calibrate` takes
        ``CALIBRATION_NOMINAL_S``."""
        return self.wall_s * CALIBRATION_NOMINAL_S / self.calibration_s


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


def _become_subreaper() -> None:
    """Re-parent orphaned grandchildren (pool workers) to this process so
    they can be stopped and reaped after each phase."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _stop_group(pgid: int) -> None:
    """Kill what is left of a phase's process group and reap it."""
    _kill_group(pgid)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


class Bench:
    """One benchmark run: launches phases, checks outputs, keeps samples."""

    def __init__(self, root: Path, workdir: Path, sim_seed: int,
                 expected: Dict[str, Any]) -> None:
        self.root = root
        self.workdir = workdir
        self.sim_seed = sim_seed
        self.expected = expected
        self.started = time.monotonic()
        self.checks = Checks()
        self._count = 0
        (workdir / "tmp").mkdir()
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            NUMEXPR_NUM_THREADS="1",
            VECLIB_MAXIMUM_THREADS="1",
            REPRO_CACHE_DIR=str(workdir / "default-cache"),
            TMPDIR=str(workdir / "tmp"),
        )

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def new_cache(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.workdir)

    def series(self, kind: str, reps: int, seconds: float = 0.0,
               warm_cache: Optional[str] = None) -> List[Sample]:
        """Launch ``kind`` ``reps`` times, then again until ``seconds`` have
        passed, with a calibration before and after every launch.

        Sweeps get an empty cache each; renders read ``warm_cache``.
        """
        samples: List[Sample] = []
        before = calibrate()
        start = time.monotonic()
        while len(samples) < reps or (
            time.monotonic() - start < seconds and self.elapsed() < LAST_START_S
        ):
            cache = self.new_cache() if kind in ("cold", "fill") else warm_cache
            sample = self.launch(kind, cache_dir=cache)
            after = calibrate()
            sample.calibration_s = (before + after) / 2
            samples.append(sample)
            before = after
        return samples

    def launch(self, kind: str, cache_dir: Optional[str] = None,
               trace: Optional[str] = None, verify: Tuple[str, ...] = ()) -> Sample:
        """Run one phase in a fresh interpreter; time it launch to exit."""
        self._count += 1
        report = self.workdir / f"{self._count:03d}-{kind}.json"
        if kind == "compile":
            cmd = [sys.executable, *COMPILE]
            report.write_text("{}")  # compileall reports only by exit code
        else:
            cmd = [sys.executable, str(PHASE), kind, "--seed", str(self.sim_seed),
                   "--report", str(report)]
        if cache_dir is not None:
            cmd += ["--cache-dir", cache_dir]
        if trace is not None:
            cmd += ["--trace", trace]
        for directory in verify:
            cmd += ["--verify", directory]
        log_path = self.workdir / f"{self._count:03d}-{kind}.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timeout = max(5.0, RUN_DEADLINE_S - self.elapsed())
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                wall_s = time.perf_counter() - start
                _stop_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(kind, wall_s, usage.ru_maxrss / 1024.0, None,
                        cache_dir=cache_dir)
        if proc.returncode != 0 or not report.is_file():
            tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
            sample.error = f"exit {proc.returncode}: " + " | ".join(tail)
        else:
            sample.report = json.loads(report.read_text())
        return sample

    # -- output checks ---------------------------------------------------------

    def expected_ops(self, kind: str) -> Dict[str, str]:
        record = self.expected["seeds"][str(self.sim_seed)]
        if kind in ("cold", "fill"):
            return record["results"]
        if kind == "render":
            return record["figures"]
        if kind == "design":
            return record["studies"]
        return {}

    def check(self, sample: Sample, ops: Optional[Dict[str, str]] = None) -> None:
        """Count a phase's operations and the ones that failed.

        ``ops`` are the digests ``verify`` read back from a sweep's cache;
        a sweep without them only has to have cached every result.
        """
        expected = self.expected_ops(sample.kind)
        attempted = max(1, len(expected))
        if sample.error is not None or sample.report is None:
            self.checks.add(attempted, attempted, f"{sample.kind}: {sample.error}")
            return
        report = sample.report
        failures = report.get("failures", [])
        if sample.kind == "render" and report["counters"]["simulations"]:
            self.checks.add(attempted, attempted, "render: the warm phase launched "
                            f"{report['counters']['simulations']} simulations")
            return
        if ops is None and sample.kind in ("cold", "fill"):
            wrong = [f"{attempted - report['counters']['cache_entries']} results "
                     "missing from the cache"] if report["counters"]["cache_entries"] < attempted else []
        else:
            ops = ops if ops is not None else report.get("ops", {})
            wrong = [f"{name} -> {ops.get(name, 'missing')}"
                     for name in sorted(expected) if ops.get(name) != expected[name]]
        failed = max(len(wrong), len(failures))
        problem = ""
        if failed:
            problem = f"{sample.kind}: {failed} failed: " + "; ".join((wrong or failures)[:3])
        self.checks.add(attempted, failed, problem)

    def check_sweeps(self, samples: List[Sample], digested: List[Sample]) -> None:
        """Check the sweeps; read back and digest the caches of ``digested``.

        Reading a cache back costs about half a cold sweep, so a run digests
        the caches its later phases depend on and counts the entries of the
        rest.
        """
        dirs = tuple(s.cache_dir for s in digested if s.cache_dir and s.report)
        verdicts: Dict[str, Dict[str, str]] = {}
        if dirs:
            verify = self.launch("verify", verify=dirs)
            if verify.report is not None:
                verdicts = verify.report["caches"]
            else:
                self.checks.problems.append(f"verify: {verify.error}")
        for sample in samples:
            if any(sample is d for d in digested):
                self.check(sample, verdicts.get(sample.cache_dir or "", {}))
            else:
                self.check(sample)


def _median(values: List[float]) -> float:
    # A run whose every sample failed reports 0 beside ``correct: false``.
    return statistics.median(values) if values else 0.0


def _sum_layers(reports: List[Dict[str, Any]]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for report in reports:
        for name, value in report["layers"].items():
            if name == "sim.memo.retained_mb":
                totals[name] = max(totals.get(name, 0.0), value)
            else:
                totals[name] = totals.get(name, 0) + value
    lookups = totals.get("sim.memo.lookups", 0)
    totals["sim.memo.hit_ratio"] = totals.get("sim.memo.hits", 0) / lookups if lookups else 0.0
    accesses = totals.get("sim.cache.accesses", 0)
    totals["sim.cache.ns_per_access"] = (
        totals.get("sim.cache.self_s", 0.0) * 1e9 / accesses if accesses else 0.0
    )
    return totals


def _source_id(root: Path) -> Dict[str, Optional[str]]:
    sha: Optional[str] = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def _fmt(values: List[float]) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def run(args: argparse.Namespace, root: Path) -> Dict[str, Any]:
    setup_kind, setup_reps, timed_kind = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())
    sim_seed = args.seed % len(expected["seeds"])
    usable_cpus = len(os.sched_getaffinity(0))
    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    (root / ".perfbench_runs").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench_runs"))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "sim_seed": sim_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "python": platform.python_version(),
        "loadavg_before": os.getloadavg(),
        **_source_id(root),
    }
    import numpy

    meta["numpy"] = numpy.__version__
    calibrate()  # the first call pays one-off imports and allocations
    print(f"perfbench {args.workload}: seed {args.seed} -> SimOptions.seed {sim_seed}; "
          f"nproc {meta['nproc']}, pool width {usable_cpus}, python {meta['python']}, "
          f"numpy {meta['numpy']}, git {meta['git_sha']}, "
          f"src {meta['source_sha256'][:12]}, loadavg {meta['loadavg_before'][0]:.2f}",
          flush=True)
    try:
        bench = Bench(root, workdir, sim_seed, expected)
        compiled = [] if setup_kind == "compile" else [bench.launch("compile")]
        setups = bench.series(setup_kind, setup_reps)
        warm_cache = setups[-1].cache_dir
        timed = bench.series(timed_kind, MIN_TIMED, args.seconds, warm_cache)

        traced: List[Sample] = []
        if args.trace:
            prefix = str(outdir / f"{args.workload}-seed{args.seed}")
            if setup_kind == "fill":
                traced.append(bench.launch("fill", cache_dir=bench.new_cache(),
                                           trace=f"{prefix}-fill"))
            cache = warm_cache if timed_kind == "render" else (
                bench.new_cache() if timed_kind == "cold" else None)
            traced.append(bench.launch(timed_kind, cache_dir=cache,
                                       trace=f"{prefix}-{timed_kind}"))

        sweeps = [s for s in setups + timed + traced if s.kind in ("cold", "fill")]
        # The cache the renders read, the last timed cold sweep's cache and
        # the traced sweeps' caches are digested.
        digested = [setups[-1] if setup_kind == "fill" else timed[-1]]
        digested += [s for s in traced if s.kind in ("cold", "fill")]
        bench.check_sweeps(sweeps, digested)
        for sample in compiled + setups + timed + traced:
            if sample.kind not in ("cold", "fill"):
                bench.check(sample)
    finally:
        meta["loadavg_after"] = os.getloadavg()
        shutil.rmtree(workdir, ignore_errors=True)

    ok_setup = [s for s in setups if s.error is None]
    ok_timed = [s for s in timed if s.error is None]
    end_to_end = {
        "wall_s": _median([s.scaled_s for s in ok_timed]),
        "setup_s": _median([s.scaled_s for s in ok_setup]),
        "peak_rss_mb": _median([s.peak_rss_mb for s in ok_timed]),
    }
    raw = {
        "wall_s": _median([s.wall_s for s in ok_timed]),
        "setup_s": _median([s.wall_s for s in ok_setup]),
    }
    print(f"loadavg {_fmt(meta['loadavg_before'])} -> {_fmt(meta['loadavg_after'])}")
    for label, samples in (("set-up", setups), ("timed ", timed)):
        print(f"{label} {samples[0].kind} x{len(samples)}: wall "
              f"{_fmt([s.wall_s for s in samples])} s; calibration "
              f"{_fmt([s.calibration_s for s in samples])} s; peak RSS "
              f"{_fmt([s.peak_rss_mb for s in samples])} MB")
    print(f"unscaled medians: wall_s={raw['wall_s']:.4f} s, setup_s={raw['setup_s']:.4f} s")
    counters = next((s.report["counters"] for s in timed if s.report), {})
    print("work counters (" + timed_kind + "): "
          + ", ".join(f"{k}={v}" for k, v in sorted(counters.items())))
    if setup_kind == "fill":
        fill_counters = next((s.report["counters"] for s in setups if s.report), {})
        print("work counters (fill): "
              + ", ".join(f"{k}={v}" for k, v in sorted(fill_counters.items())))
    print(f"operations: {bench.checks.attempted} attempted, {bench.checks.failed} failed")
    for problem in bench.checks.problems:
        print(f"  FAILED {problem}")
    units = metric_units("end_to_end")
    print("end-to-end: " + ", ".join(
        f"{name}={end_to_end[name]:.4f} {unit}" for name, unit in units.items()))

    record: Dict[str, Any] = {
        "meta": meta,
        "setup": [(s.wall_s, s.calibration_s, s.peak_rss_mb, s.error) for s in setups],
        "timed": [(s.wall_s, s.calibration_s, s.peak_rss_mb, s.error) for s in timed],
        "counters": counters,
        "end_to_end": end_to_end,
        "unscaled": raw,
        "attempted": bench.checks.attempted,
        "failed": bench.checks.failed,
        "problems": bench.checks.problems,
    }
    metrics = {name: {"value": end_to_end[name], "unit": unit}
               for name, unit in units.items()}
    if args.trace:
        reports = [s.report for s in traced if s.report and "layers" in s.report]
        layers = _sum_layers(reports)
        traced_wall = sum(s.wall_s for s in traced)
        untraced = raw["wall_s"] + (raw["setup_s"] if setup_kind == "fill" else 0.0)
        layers["tracing.wall_s"] = traced_wall
        layers["tracing.uncovered_s"] = traced_wall - sum(r["covered_s"] for r in reports)
        layers["tracing.overhead_s"] = traced_wall - untraced
        record["layers"] = layers
        layer_units = metric_units("per_layer")
        print("per-layer (traced " + "+".join(s.kind for s in traced) + "):")
        for name, unit in layer_units.items():
            print(f"  {name:32s} {layers.get(name, 0)!r:>24} {unit}")
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in layer_units.items()}
        if len(reports) != len(traced):
            bench.checks.problems.append("a traced phase produced no layer report")
        elif set(layer_units) - set(layers):
            bench.checks.problems.append(
                "no value for " + ", ".join(sorted(set(layer_units) - set(layers))))
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (outdir / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}-{stamp}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return {
        "correct": bench.checks.failed == 0 and not bench.checks.problems,
        "attempted": bench.checks.attempted,
        "failed": bench.checks.failed,
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout: no src/repro here",
              file=sys.stderr)
        return 2
    _become_subreaper()
    result = run(args, root)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
