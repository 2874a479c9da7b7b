"""Event tracing and invariant monitoring for the simulation engine.

``repro.sim.observe`` makes :class:`repro.sim.engine.Engine` observable:
attach sinks via ``simulate(..., sinks=[...])`` and the engine emits
typed span/counter/mark events at its hook points (stage execution,
bandwidth refinement, cache drains).  See docs/TRACING.md for the event
taxonomy, the sink API, and the invariant catalogue.

* :class:`TraceRecorder` buffers events in memory.
* :class:`JsonlSink` streams them as compact JSONL.
* :func:`chrome_trace_dict` / :func:`write_chrome_trace` export a Chrome
  ``trace_event`` JSON loadable in Perfetto or ``chrome://tracing``.
* :class:`InvariantMonitor` checks conservation laws online and records
  (or raises on) violations.
"""

from repro.sim.observe.chrome import (
    CHROME_SCHEMA,
    chrome_trace_dict,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim.observe.events import (
    COUNTER_NAMES,
    CTR_BW_SHARE,
    CTR_DRAM_READS,
    CTR_DRAM_WRITES,
    CTR_LINK_BYTES_IN,
    CTR_LINK_BYTES_OUT,
    CTR_ONCHIP_TRANSFERS,
    DRAM_SOURCES,
    MARK_ROI_END,
    SPAN_CATEGORIES,
    SPAN_FAULT,
    SPAN_LAUNCH,
    SPAN_STAGE,
    CounterEvent,
    MarkEvent,
    SpanEvent,
    TraceEvent,
    event_to_dict,
)
from repro.sim.observe.invariants import (
    INVARIANTS,
    InvariantError,
    InvariantMonitor,
)
from repro.sim.observe.sinks import (
    BaseSink,
    JsonlSink,
    TraceRecorder,
    TraceSink,
    busy_from_spans,
)
from repro.sim.results import InvariantViolation

__all__ = [
    "BaseSink",
    "CHROME_SCHEMA",
    "COUNTER_NAMES",
    "CTR_BW_SHARE",
    "CTR_DRAM_READS",
    "CTR_DRAM_WRITES",
    "CTR_LINK_BYTES_IN",
    "CTR_LINK_BYTES_OUT",
    "CTR_ONCHIP_TRANSFERS",
    "CounterEvent",
    "DRAM_SOURCES",
    "INVARIANTS",
    "InvariantError",
    "InvariantMonitor",
    "InvariantViolation",
    "JsonlSink",
    "MARK_ROI_END",
    "MarkEvent",
    "SPAN_CATEGORIES",
    "SPAN_FAULT",
    "SPAN_LAUNCH",
    "SPAN_STAGE",
    "SpanEvent",
    "TraceEvent",
    "TraceRecorder",
    "TraceSink",
    "busy_from_spans",
    "chrome_trace_dict",
    "event_to_dict",
    "validate_chrome_trace",
    "write_chrome_trace",
]
