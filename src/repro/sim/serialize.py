"""JSON serialization of simulation results.

Lets users archive sweeps, diff runs across library versions, or feed the
numbers into external plotting tools.  The off-chip log is summarized (not
dumped raw) to keep files small; pass ``include_log=True`` to keep it.

Two schemas are emitted:

* ``repro.sim_result/v1`` — the human-oriented summary
  (:func:`result_to_dict`), derived metrics included, not reconstructible.
* ``repro.sim_result/v2-full`` — the lossless form
  (:func:`result_to_full_dict` / :func:`result_from_dict`) that round-trips
  a :class:`SimResult` bit-for-bit.  It splits into a small JSON-able
  header (:func:`result_header`) and the numpy array columns
  (:func:`result_columns`); :func:`join_columns` puts them back together.
  The persistent sweep cache (:mod:`repro.sim.resultcache`) stores the
  columns as raw bytes and rebuilds results from the joined dict, so one
  reconstruction serves the dict oracle, the cache and the executor wire.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

import numpy as np

from repro.sim.hierarchy import Component
from repro.sim.results import (
    Interval,
    InvariantViolation,
    SimResult,
    StageRecord,
)
from repro.sim.timing import StageTiming
from repro.pipeline.stage import StageKind
from repro.trace.stream import fit_ids

SCHEMA_V1 = "repro.sim_result/v1"
SCHEMA_FULL = "repro.sim_result/v2-full"

#: Off-chip log columns: :class:`SimResult` attribute -> key under the
#: ``log`` object of the serialized forms.
LOG_COLUMNS = {
    "log_blocks": "blocks",
    "log_is_write": "is_write",
    "log_stage": "stage",
    "log_component": "component",
    "logical_of_ordinal": "logical_of_ordinal",
}

#: Column-name prefix of the per-component ``touched_blocks`` arrays.
TOUCHED_PREFIX = "touched_blocks/"


def result_to_dict(result: SimResult, include_log: bool = False) -> Dict[str, Any]:
    """Convert a :class:`SimResult` to plain JSON-compatible data."""
    payload: Dict[str, Any] = {
        "schema": SCHEMA_V1,
        "pipeline": result.pipeline_name,
        "system": result.system_kind,
        "roi_s": result.roi_s,
        "line_bytes": result.line_bytes,
        "total_flops": result.total_flops,
        "busy_s": {
            component.value: result.busy_time(component) for component in Component
        },
        "utilization": {
            component.value: result.utilization(component)
            for component in Component
        },
        "offchip_accesses": result.offchip_accesses(),
        "offchip_by_component": {
            component.value: count
            for component, count in result.offchip_by_component().items()
        },
        "footprint_bytes": result.total_footprint_bytes(),
        "footprint_by_component": {
            component.value: size
            for component, size in result.footprint_bytes_by_component().items()
        },
        "serial_launch_s": result.serial_launch_time(),
        "stages": [
            {
                "name": record.name,
                "logical": record.logical,
                "kind": record.kind.value,
                "component": record.component.value,
                "start_s": record.start_s,
                "end_s": record.end_s,
                "compute_s": record.timing.compute_s,
                "memory_s": record.timing.memory_s,
                "latency_s": record.timing.latency_s,
                "fault_s": record.timing.fault_s,
                "requests": record.requests,
                "offchip_reads": record.offchip_reads,
                "offchip_writes": record.offchip_writes,
                "onchip_transfers": record.onchip_transfers,
                "faults": record.faults,
            }
            for record in result.stages
        ],
    }
    if include_log:
        payload["log"] = {
            key: getattr(result, name).tolist() for name, key in LOG_COLUMNS.items()
        }
    return payload


def result_to_json(
    result: SimResult, include_log: bool = False, indent: Optional[int] = 2
) -> str:
    """Serialize a result to a JSON string."""
    return json.dumps(result_to_dict(result, include_log=include_log), indent=indent)


def summary_from_json(text: str) -> Dict[str, Any]:
    """Load a serialized result and return its top-level summary fields.

    Raises ``ValueError`` on schema mismatch so stale archives fail loudly.
    """
    payload = json.loads(text)
    schema = payload.get("schema")
    if schema not in (SCHEMA_V1, SCHEMA_FULL):
        raise ValueError(f"unsupported schema {schema!r}")
    return payload


# -- lossless round trip ------------------------------------------------------


def _interval_pairs(intervals) -> list:
    return [[iv.start, iv.end] for iv in intervals]


def result_header(result: SimResult) -> Dict[str, Any]:
    """The ``v2-full`` dict of a result without its array fields.

    Everything but the off-chip ``log`` and ``touched_blocks``, which
    :func:`result_columns` returns as arrays: the v1 summary plus
    busy/launch intervals, FLOP attribution and per-stage ordinals.
    """
    payload = result_to_dict(result)
    payload["schema"] = SCHEMA_FULL
    for entry, record in zip(payload["stages"], result.stages):
        entry["ordinal"] = record.ordinal
        entry["flops"] = record.flops
    payload["busy"] = {
        component.value: _interval_pairs(intervals)
        for component, intervals in result.busy.items()
    }
    payload["launch_intervals"] = _interval_pairs(result.launch_intervals)
    payload["flops_by_component"] = {
        component.value: flops
        for component, flops in result.flops_by_component.items()
    }
    # Optional (engine >= repro-sim/2): invariant-monitor findings.  Only
    # written when present so clean traces stay byte-compatible with
    # pre-violations archives.
    if result.violations:
        payload["violations"] = [
            {
                "rule": violation.rule,
                "message": violation.message,
                "ordinal": violation.ordinal,
                "component": violation.component,
                "measured": violation.measured,
                "expected": violation.expected,
            }
            for violation in result.violations
        ]
    return payload


def result_columns(result: SimResult) -> Dict[str, np.ndarray]:
    """The array fields of a result by column name, in a stable order.

    The five off-chip log columns (named as the :class:`SimResult`
    attributes of :data:`LOG_COLUMNS`), then one ``touched_blocks/<component>``
    column per component.  The arrays are the result's own, not copies.
    """
    columns = {name: getattr(result, name) for name in LOG_COLUMNS}
    for component, blocks in result.touched_blocks.items():
        columns[TOUCHED_PREFIX + component.value] = blocks
    return columns


def join_columns(header: Dict[str, Any], columns: Dict[str, Any]) -> Dict[str, Any]:
    """Rejoin :func:`result_header` and :func:`result_columns` output.

    The columns may be arrays or lists; :func:`result_from_dict` accepts
    either, and arrays of the result's dtypes pass through without a copy.
    Raises ``KeyError`` when a log column is missing.
    """
    payload = dict(header)
    payload["log"] = {key: columns[name] for name, key in LOG_COLUMNS.items()}
    payload["touched_blocks"] = {
        name[len(TOUCHED_PREFIX):]: column
        for name, column in columns.items()
        if name.startswith(TOUCHED_PREFIX)
    }
    return payload


def result_to_full_dict(result: SimResult) -> Dict[str, Any]:
    """Lossless ``repro.sim_result/v2-full`` form of a result.

    :func:`result_header` joined with :func:`result_columns` as JSON number
    lists: everything :func:`result_from_dict` needs to rebuild the
    :class:`SimResult` exactly.  JSON floats round-trip exactly (``repr``
    encoding), so serialize-then-load yields bit-identical results.
    """
    return join_columns(
        result_header(result),
        {name: column.tolist() for name, column in result_columns(result).items()},
    )


def result_from_dict(payload: Dict[str, Any]) -> SimResult:
    """Rebuild a :class:`SimResult` from its ``v2-full`` dictionary.

    Array fields may be JSON lists or numpy arrays (:func:`join_columns`);
    arrays already of the result's dtypes are kept as they are, and others,
    such as the result cache's narrowed columns, are converted to them.
    Block ids come back at :data:`~repro.trace.stream.BLOCK_DTYPE`, and a
    block column whose ids do not fit it raises ``OverflowError`` instead
    of wrapping.
    """
    schema = payload.get("schema")
    if schema != SCHEMA_FULL:
        raise ValueError(
            f"cannot reconstruct a result from schema {schema!r}; "
            f"only {SCHEMA_FULL!r} archives are lossless"
        )
    stages = tuple(
        StageRecord(
            name=entry["name"],
            logical=entry["logical"],
            kind=StageKind(entry["kind"]),
            component=Component(entry["component"]),
            ordinal=int(entry["ordinal"]),
            start_s=entry["start_s"],
            end_s=entry["end_s"],
            timing=StageTiming(
                compute_s=entry["compute_s"],
                memory_s=entry["memory_s"],
                latency_s=entry["latency_s"],
                fault_s=entry["fault_s"],
            ),
            requests=int(entry["requests"]),
            offchip_reads=int(entry["offchip_reads"]),
            offchip_writes=int(entry["offchip_writes"]),
            onchip_transfers=int(entry["onchip_transfers"]),
            faults=int(entry["faults"]),
            flops=float(entry["flops"]),
        )
        for entry in payload["stages"]
    )
    log = payload.get("log", {})
    return SimResult(
        pipeline_name=payload["pipeline"],
        system_kind=payload["system"],
        roi_s=payload["roi_s"],
        stages=stages,
        busy={
            Component(name): [Interval(start, end) for start, end in pairs]
            for name, pairs in payload["busy"].items()
        },
        launch_intervals=[
            Interval(start, end) for start, end in payload["launch_intervals"]
        ],
        line_bytes=int(payload["line_bytes"]),
        log_blocks=fit_ids(log.get("blocks", [])),
        log_is_write=np.asarray(log.get("is_write", []), dtype=bool),
        log_stage=np.asarray(log.get("stage", []), dtype=np.int32),
        log_component=np.asarray(log.get("component", []), dtype=np.int8),
        logical_of_ordinal=np.asarray(
            log.get("logical_of_ordinal", []), dtype=np.int32
        ),
        touched_blocks={
            Component(name): fit_ids(blocks)
            for name, blocks in payload["touched_blocks"].items()
        },
        total_flops=float(payload["total_flops"]),
        flops_by_component={
            Component(name): float(flops)
            for name, flops in payload["flops_by_component"].items()
        },
        # Absent from archives written before engine repro-sim/2; default
        # to "no violations" so old cache entries keep deserializing.
        violations=tuple(
            InvariantViolation(
                rule=entry["rule"],
                message=entry["message"],
                ordinal=int(entry.get("ordinal", -1)),
                component=entry.get("component", ""),
                measured=float(entry.get("measured", 0.0)),
                expected=float(entry.get("expected", 0.0)),
            )
            for entry in payload.get("violations", [])
        ),
    )


def results_identical(a: SimResult, b: SimResult) -> bool:
    """True when two results are identical in every serialized field.

    The comparison goes through :func:`result_to_full_dict`, so it covers
    schedules, timings, logs, and footprints — the equality the differential
    (serial vs parallel vs cached) tests rely on.
    """
    return result_to_full_dict(a) == result_to_full_dict(b)
