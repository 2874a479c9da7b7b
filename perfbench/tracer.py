"""Wall-clock spans around the program's layer entry points.

The traced run wraps each layer's public entry points from the benchmark's
own files; no layer's code changes.  Class methods are patched on the
class.  Functions are patched in every ``repro`` module namespace that
holds them, because modules import them by name (``simulate`` lives in
``repro.sim.engine``, ``repro.experiments.parallel`` and
``repro.experiments.ablations`` alike).

A span records its name, start, end, parent span and a run id: the
pipeline name of the simulation it belongs to.  Spans stay in memory until
the phase ends.  Only the process and thread that installed the tracer
record; forked pool workers run the wrapped code untraced, so the parent's
spans plus ``SweepMetrics`` describe the pooled set-up.

A span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Chrome ``pid`` of benchmark spans; ``repro trace`` exports use pid 1,
#: so both load side by side in Perfetto.
CHROME_PID = 2


class Span:
    __slots__ = ("name", "parent", "run_id", "start_ns", "end_ns", "attrs")

    def __init__(self, name: str, parent: int, run_id: str) -> None:
        self.name = name
        self.parent = parent
        self.run_id = run_id
        self.start_ns = 0
        self.end_ns = 0
        self.attrs: Dict[str, Any] = {}

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


#: Called after a span ends with (span, args, kwargs, return value).
After = Callable[[Span, tuple, dict, Any], None]


class Tracer:
    """In-memory span recorder and the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._restore: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[After] = None,
        run_id_of: Optional[Callable[[tuple, dict], str]] = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack
        pid, thread = self._pid, self._thread

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != pid or threading.get_ident() != thread:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if run_id_of is not None:
                run_id = run_id_of(args, kwargs)
            else:
                run_id = spans[parent].run_id if parent >= 0 else ""
            span = Span(name, parent, run_id)
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def patch_function(self, module: str, attr: str, name: str, **kw: Any) -> None:
        original = getattr(importlib.import_module(module), attr)
        traced = self.wrap(name, original, **kw)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, traced)

    def patch_method(
        self, module: str, cls_name: str, attr: str, name: str, **kw: Any
    ) -> None:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **kw))

    def unpatch(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()


# -- the layer table -----------------------------------------------------------


def _pipeline_name(args: tuple, kwargs: dict) -> str:
    pipeline = args[0] if args else kwargs["pipeline"]
    return str(pipeline.name)


def _count_accesses(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["accesses"] = int(result.requests)


def _memo_hit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["hit"] = result is not None


def _stored_bytes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["bytes"] = os.stat(result).st_size


def _loaded_bytes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["hit"] = result is not None
    if result is not None:
        cache, key = args[0], args[1] if len(args) > 1 else kwargs["key"]
        span.attrs["bytes"] = os.stat(cache.path_for(key)).st_size


def _sweep_metrics(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    metrics = result[1]
    span.attrs.update(
        launched=metrics.launched,
        retries=metrics.retries,
        pool_rebuilds=metrics.pool_rebuilds,
        worker_busy_s=metrics.serial_estimate_s,
    )


def _runner_memo_hits(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    metrics = args[0].last_metrics
    span.attrs["memo_hits"] = metrics.memo_hits if metrics is not None else 0


FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9")

#: (span name, module, attribute, class or None, extra wrap keywords).
LAYERS: Tuple[Tuple[str, str, str, Optional[str], Dict[str, Any]], ...] = (
    ("workloads.build", "repro.workloads.spec", "pipeline", "BenchmarkSpec", {}),
    ("pipeline.remove_copies", "repro.pipeline.transforms", "remove_copies", None, {}),
    ("analysis.lint", "repro.analysis", "assert_lint_clean", None, {}),
    ("trace.stage_trace", "repro.trace.generator", "stage_trace", "TraceGenerator", {}),
    ("sim.cache", "repro.sim.hierarchy", "process_compute", "CacheSystem",
     {"after": _count_accesses}),
    ("sim.cache", "repro.sim.hierarchy", "process_copy", "CacheSystem",
     {"after": _count_accesses}),
    ("sim.memo.lookup", "repro.sim.memo", "lookup", "StageMemo", {"after": _memo_hit}),
    ("sim.memo.store", "repro.sim.memo", "store", "StageMemo", {}),
    ("sim.engine", "repro.sim.engine", "simulate", None, {"run_id_of": _pipeline_name}),
    ("sim.serialize.encode", "repro.sim.serialize", "result_to_full_dict", None, {}),
    ("sim.serialize.decode", "repro.sim.serialize", "result_from_dict", None, {}),
    ("resultcache.key", "repro.sim.resultcache", "cache_key", None, {}),
    ("resultcache.store", "repro.sim.resultcache", "store", "ResultCache",
     {"after": _stored_bytes}),
    ("resultcache.load", "repro.sim.resultcache", "load", "ResultCache",
     {"after": _loaded_bytes}),
    ("runner.sweep", "repro.experiments.runner", "sweep", "SweepRunner",
     {"after": _runner_memo_hits}),
    ("parallel.run_tasks", "repro.experiments.parallel", "run_tasks", None,
     {"after": _sweep_metrics}),
    ("executors.pool_start", "repro.experiments.executors.local", "start",
     "LocalPoolBackend", {}),
    ("executors.submit", "repro.experiments.executors.local", "submit",
     "LocalPoolBackend", {}),
    ("core.classify", "repro.core.classify", "classify_result", None, {}),
    ("core.other", "repro.core.footprint", "footprint_breakdown", None, {}),
    ("core.other", "repro.core.overlap", "component_overlap_runtime", None, {}),
    ("core.other", "repro.core.migrate", "migrated_compute_runtime", None, {}),
) + tuple(
    ("figures.render", f"repro.experiments.{fig}", "render", None, {})
    for fig in FIGURES
)


def install(tracer: Tracer) -> None:
    """Patch every entry point of :data:`LAYERS` to record into ``tracer``."""
    # Import every module that may hold a by-name copy before patching.
    import repro.cli  # noqa: F401
    import repro.experiments.ablations  # noqa: F401

    for name, module, attr, cls_name, kw in LAYERS:
        if cls_name is None:
            tracer.patch_function(module, attr, name, **kw)
        else:
            tracer.patch_method(module, cls_name, attr, name, **kw)


# -- reductions ----------------------------------------------------------------


def self_times_ns(spans: List[Span]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration_ns for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration_ns
    return own


def covered_ns(spans: List[Span]) -> int:
    """Wall time covered by at least one span (the root spans' total)."""
    return sum(span.duration_ns for span in spans if span.parent < 0)


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer calls, self seconds and counts from one phase's spans."""
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    attrs: Dict[str, float] = {}
    for span, own in zip(spans, self_times_ns(spans)):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own / 1e9
        for key, value in span.attrs.items():
            slot = f"{span.name}:{key}"
            attrs[slot] = attrs.get(slot, 0) + value

    def n(name: str) -> int:
        return calls.get(name, 0)

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def a(name: str, key: str) -> float:
        return attrs.get(f"{name}:{key}", 0)

    accesses = int(a("sim.cache", "accesses"))
    lookups = n("sim.memo.lookup")
    hits = int(a("sim.memo.lookup", "hit"))
    return {
        "workloads.build.calls": n("workloads.build"),
        "workloads.build.self_s": s("workloads.build"),
        "pipeline.remove_copies.calls": n("pipeline.remove_copies"),
        "pipeline.remove_copies.self_s": s("pipeline.remove_copies"),
        "analysis.lint.calls": n("analysis.lint"),
        "analysis.lint.self_s": s("analysis.lint"),
        "trace.stage_trace.calls": n("trace.stage_trace"),
        "trace.stage_trace.self_s": s("trace.stage_trace"),
        "sim.cache.calls": n("sim.cache"),
        "sim.cache.accesses": accesses,
        "sim.cache.self_s": s("sim.cache"),
        "sim.cache.ns_per_access": s("sim.cache") * 1e9 / accesses if accesses else 0.0,
        "sim.memo.lookups": lookups,
        "sim.memo.hits": hits,
        "sim.memo.hit_ratio": hits / lookups if lookups else 0.0,
        "sim.memo.self_s": s("sim.memo.lookup") + s("sim.memo.store"),
        "sim.engine.calls": n("sim.engine"),
        "sim.engine.self_s": s("sim.engine"),
        "sim.serialize.encode_s": s("sim.serialize.encode"),
        "sim.serialize.decode_s": s("sim.serialize.decode"),
        "resultcache.key_s": s("resultcache.key"),
        "resultcache.store.calls": n("resultcache.store"),
        "resultcache.store.self_s": s("resultcache.store"),
        "resultcache.store.bytes": int(a("resultcache.store", "bytes")),
        "resultcache.load.calls": n("resultcache.load"),
        "resultcache.load.hits": int(a("resultcache.load", "hit")),
        "resultcache.load.self_s": s("resultcache.load"),
        "resultcache.load.bytes": int(a("resultcache.load", "bytes")),
        "runner.sweep.calls": n("runner.sweep"),
        "runner.memo_hits": int(a("runner.sweep", "memo_hits")),
        "parallel.run_tasks.self_s": s("parallel.run_tasks"),
        "parallel.launched": int(a("parallel.run_tasks", "launched")),
        "parallel.retries": int(a("parallel.run_tasks", "retries")),
        "parallel.pool_rebuilds": int(a("parallel.run_tasks", "pool_rebuilds")),
        "parallel.worker_busy_s": float(a("parallel.run_tasks", "worker_busy_s")),
        "executors.pool_start_s": s("executors.pool_start"),
        "executors.submits": n("executors.submit"),
        "core.classify.calls": n("core.classify"),
        "core.classify.self_s": s("core.classify"),
        "core.other.self_s": s("core.other"),
        "figures.render.self_s": s("figures.render"),
    }


def spans_json(spans: List[Span]) -> List[Dict[str, Any]]:
    """Spans as plain records; times in ns from the first span's start."""
    origin = min((span.start_ns for span in spans), default=0)
    return [
        {
            "id": index,
            "name": span.name,
            "parent": span.parent,
            "run_id": span.run_id,
            "start_ns": span.start_ns - origin,
            "end_ns": span.end_ns - origin,
            "self_ns": own,
            "attrs": span.attrs,
        }
        for index, (span, own) in enumerate(zip(spans, self_times_ns(spans)))
    ]


def chrome_trace(spans: List[Span], name: str) -> Dict[str, Any]:
    """Chrome ``trace_event`` payload: one complete event per span."""
    origin = min((span.start_ns for span in spans), default=0)
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": CHROME_PID, "tid": 0,
         "args": {"name": f"perfbench {name}"}},
    ]
    for index, span in enumerate(spans):
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": CHROME_PID,
                "tid": 1,
                "ts": (span.start_ns - origin) / 1e3,
                "dur": span.duration_ns / 1e3,
                "args": {"id": index, "parent": span.parent,
                         "run_id": span.run_id, **span.attrs},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": "perfbench.spans/chrome/v1", "name": name},
    }
