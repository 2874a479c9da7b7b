"""Declarative workload definitions: build pipelines from dicts / JSON.

Lets users describe a benchmark in data rather than code::

    {
      "name": "myapp/pipeline",
      "outputs": ["out"],
      "buffers": [
        {"name": "in", "size": "24MB"},
        {"name": "out", "size": "8MB"}
      ],
      "stages": [
        {"op": "h2d", "buffer": "in", "chunkable": true},
        {"op": "gpu", "name": "kernel", "flops": 2e9,
         "reads": [{"buffer": "in_dev", "pattern": "streaming"}],
         "writes": [{"buffer": "out_dev"}], "chunkable": true},
        {"op": "d2h", "src": "out_dev", "dst": "out", "name": "drain"}
      ]
    }

Mirrors are created implicitly by ``h2d`` (as with the builder) or
explicitly with ``{"op": "mirror", "buffer": ...}``.  Sizes accept either
integers (bytes) or strings with ``KB``/``MB``/``GB`` suffixes.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Mapping, Optional

from repro.pipeline.builder import PipelineBuilder
from repro.pipeline.graph import Pipeline, PipelineError
from repro.pipeline.patterns import AccessPattern
from repro.pipeline.stage import BufferAccess, KernelResources, Region
from repro.units import GB, KB, MB

_SIZE_RE = re.compile(r"^\s*([0-9.]+)\s*(B|KB|MB|GB)\s*$", re.IGNORECASE)
_SUFFIX = {"B": 1, "KB": KB, "MB": MB, "GB": GB}


class WorkloadSpecError(PipelineError):
    """Raised when a declarative workload definition is malformed."""


def parse_size(value: Any) -> int:
    """Accept 4096 or '4KB' / '24MB' / '1.5GB'."""
    if isinstance(value, bool):
        raise WorkloadSpecError(f"invalid size {value!r}")
    if isinstance(value, (int, float)):
        if value <= 0:
            raise WorkloadSpecError(f"size must be positive, got {value}")
        return int(value)
    if isinstance(value, str):
        match = _SIZE_RE.match(value)
        if not match:
            raise WorkloadSpecError(f"cannot parse size {value!r}")
        return int(float(match.group(1)) * _SUFFIX[match.group(2).upper()])
    raise WorkloadSpecError(f"invalid size {value!r}")


def _parse_pattern(value: Optional[str]) -> AccessPattern:
    if value is None:
        return AccessPattern.STREAMING
    try:
        return AccessPattern(value)
    except ValueError:
        options = ", ".join(p.value for p in AccessPattern)
        raise WorkloadSpecError(
            f"unknown access pattern {value!r}; choose from: {options}"
        ) from None


def _parse_access(entry: Mapping[str, Any]) -> BufferAccess:
    if "buffer" not in entry:
        raise WorkloadSpecError(f"access needs a 'buffer': {entry!r}")
    region = Region()
    if "region" in entry:
        lo, hi = entry["region"]
        region = Region(float(lo), float(hi))
    return BufferAccess(
        buffer=entry["buffer"],
        pattern=_parse_pattern(entry.get("pattern")),
        region=region,
        fraction=float(entry.get("fraction", 1.0)),
        passes=float(entry.get("passes", 1.0)),
        broadcast=bool(entry.get("broadcast", False)),
    )


def _parse_resources(entry: Optional[Mapping[str, Any]]) -> Optional[KernelResources]:
    if entry is None:
        return None
    scratch = entry.get("scratch_per_cta", 0)
    return KernelResources(
        threads_per_cta=int(entry.get("threads_per_cta", 256)),
        registers_per_thread=int(entry.get("registers_per_thread", 24)),
        scratch_bytes_per_cta=parse_size(scratch) if scratch else 0,
    )


def pipeline_from_dict(spec: Mapping[str, Any]) -> Pipeline:
    """Build a validated pipeline from a declarative definition."""
    if "name" not in spec:
        raise WorkloadSpecError("workload needs a 'name'")
    metadata: Dict[str, Any] = {"outputs": tuple(spec.get("outputs", ()))}
    if spec.get("pagefault_heavy"):
        metadata["pagefault_heavy"] = True
    builder = PipelineBuilder(spec["name"], metadata=metadata)

    for entry in spec.get("buffers", ()):
        if "name" not in entry or "size" not in entry:
            raise WorkloadSpecError(f"buffer needs 'name' and 'size': {entry!r}")
        builder.buffer(
            entry["name"],
            parse_size(entry["size"]),
            temporary=bool(entry.get("temporary", False)),
            cpu_line_aligned=bool(entry.get("aligned", True)),
        )

    for index, entry in enumerate(spec.get("stages", ())):
        op = entry.get("op")
        after = entry.get("after")
        if op == "mirror":
            builder.mirror(entry["buffer"])
        elif op == "h2d":
            builder.copy_h2d(
                entry["buffer"],
                entry.get("dst"),
                name=entry.get("name"),
                mirror=bool(entry.get("mirror", True)),
                after=after,
                chunkable=bool(entry.get("chunkable", False)),
            )
        elif op == "d2h":
            if "src" not in entry or "dst" not in entry:
                raise WorkloadSpecError(f"d2h needs 'src' and 'dst': {entry!r}")
            builder.copy_d2h(
                entry["src"],
                entry["dst"],
                name=entry.get("name"),
                mirror=bool(entry.get("mirror", True)),
                after=after,
                chunkable=bool(entry.get("chunkable", False)),
            )
        elif op in ("gpu", "cpu"):
            if "name" not in entry:
                raise WorkloadSpecError(f"stage {index} needs a 'name'")
            kwargs = dict(
                flops=float(entry.get("flops", 0.0) or 1e-9),
                reads=[_parse_access(a) for a in entry.get("reads", ())],
                writes=[_parse_access(a) for a in entry.get("writes", ())],
                after=after,
                chunkable=bool(entry.get("chunkable", False)),
                migratable=bool(entry.get("migratable", False)),
            )
            if "efficiency" in entry:
                kwargs["efficiency"] = float(entry["efficiency"])
            if "occupancy" in entry:
                kwargs["occupancy"] = float(entry["occupancy"])
            if op == "gpu":
                kwargs["resources"] = _parse_resources(entry.get("resources"))
                builder.gpu_kernel(entry["name"], **kwargs)
            else:
                builder.cpu_stage(entry["name"], **kwargs)
        else:
            raise WorkloadSpecError(
                f"stage {index}: unknown op {op!r} "
                "(expected mirror/h2d/d2h/gpu/cpu)"
            )

    return builder.build()


def pipeline_from_json(text: str) -> Pipeline:
    """Parse a JSON document and build the pipeline it describes."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise WorkloadSpecError(f"invalid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise WorkloadSpecError("top-level JSON value must be an object")
    return pipeline_from_dict(payload)


def pipeline_from_file(path: str) -> Pipeline:
    """Load a pipeline definition from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return pipeline_from_json(handle.read())
