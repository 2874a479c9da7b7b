"""Memory-space and copy consistency rules: RPL101 — RPL106.

On the discrete GPU system the two memory spaces are physically separate:
a GPU kernel can only touch GPU allocations and CPU code can only touch
CPU allocations, with the copy engine bridging them.  The limited-copy
port (paper Section III-D) erases that boundary — which is exactly when
stale mirrors, dead copies, and misaligned host allocations (the ``*``
benchmarks of Fig. 5) start to matter.  These rules machine-check both
regimes.

``temporary`` buffers are treated as device-resident regardless of their
declared space: they model GPU-only intermediates that are never copied
(see :class:`repro.pipeline.buffers.Buffer`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.analysis.happens import HappensBefore
from repro.pipeline.buffers import Buffer, MemorySpace
from repro.pipeline.graph import Pipeline
from repro.pipeline.stage import StageKind
from repro.workloads.spec import BenchmarkSpec


def _gpu_accessible(buffer: Buffer) -> bool:
    return buffer.temporary or buffer.space is MemorySpace.GPU


def _cpu_accessible(buffer: Buffer) -> bool:
    return buffer.space is MemorySpace.CPU


def check_memory_spaces(pipeline: Pipeline) -> List[Diagnostic]:
    """RPL101: on the discrete system, stages must stay in their space.

    Only meaningful before the limited-copy port; a limited-copy pipeline
    runs on the heterogeneous processor's single shared memory.
    """
    findings: List[Diagnostic] = []
    if pipeline.limited_copy:
        return findings
    for stage in pipeline.stages:
        if stage.kind is StageKind.COPY:
            continue  # the copy engine bridges the two spaces
        for access in stage.accesses:
            buffer = pipeline.buffers[access.buffer]
            if stage.kind is StageKind.GPU_KERNEL and not _gpu_accessible(buffer):
                findings.append(
                    make_diagnostic(
                        "RPL101",
                        pipeline.name,
                        f"GPU kernel {stage.name!r} touches CPU-space buffer "
                        f"{buffer.name!r} without an interposed copy",
                        stage=stage.name,
                        buffer=buffer.name,
                        hint="copy the buffer to a GPU mirror first, or mark "
                        "it temporary if it is a device-only intermediate",
                    )
                )
            elif stage.kind is StageKind.CPU and not _cpu_accessible(buffer):
                findings.append(
                    make_diagnostic(
                        "RPL101",
                        pipeline.name,
                        f"CPU stage {stage.name!r} touches GPU-space buffer "
                        f"{buffer.name!r} without an interposed copy",
                        stage=stage.name,
                        buffer=buffer.name,
                        hint="drain the buffer to its host allocation with a "
                        "d2h copy before CPU code reads it",
                    )
                )
    return findings


def check_copies(pipeline: Pipeline) -> List[Diagnostic]:
    """RPL102: copy endpoints must be distinct, size-consistent, and (for
    mirror copies on the discrete system) actually cross the space boundary."""
    findings: List[Diagnostic] = []
    for stage in pipeline.copy_stages:
        src = pipeline.buffers.get(stage.src or "")
        dst = pipeline.buffers.get(stage.dst or "")
        if src is None or dst is None:
            continue  # referential integrity is Pipeline.validate()'s job
        if src.name == dst.name:
            findings.append(
                make_diagnostic(
                    "RPL102",
                    pipeline.name,
                    f"copy {stage.name!r} copies buffer {src.name!r} onto itself",
                    stage=stage.name,
                    buffer=src.name,
                    hint="remove the copy or point it at the intended mirror",
                )
            )
            continue
        if src.size_bytes != dst.size_bytes:
            findings.append(
                make_diagnostic(
                    "RPL102",
                    pipeline.name,
                    f"copy {stage.name!r} endpoints differ in size: "
                    f"{src.name!r} is {src.size_bytes} B but {dst.name!r} "
                    f"is {dst.size_bytes} B",
                    stage=stage.name,
                    buffer=dst.name,
                    hint="size mirrors identically to the allocation they "
                    "replicate",
                )
            )
        if (
            not pipeline.limited_copy
            and stage.mirror_copy
            and src.space is dst.space
            and not (src.temporary or dst.temporary)
        ):
            findings.append(
                make_diagnostic(
                    "RPL102",
                    pipeline.name,
                    f"mirror copy {stage.name!r} does not cross the memory-"
                    f"space boundary ({src.name!r} and {dst.name!r} are both "
                    f"in {src.space.value} space)",
                    stage=stage.name,
                    buffer=dst.name,
                    hint="a mirror fill/drain must pair a CPU allocation "
                    "with its GPU mirror",
                )
            )
    return findings


def check_dead_mirrors(pipeline: Pipeline) -> List[Diagnostic]:
    """RPL103: after the limited-copy port, surviving mirrors must be pinned.

    :func:`repro.pipeline.transforms.remove_copies` keeps a mirror only when
    a residual (non-removable) copy still fills or drains it.  A mirror in a
    limited-copy pipeline that no copy references is dead weight: accesses to
    it should have been redirected to the allocation it replicates.
    """
    findings: List[Diagnostic] = []
    if not pipeline.limited_copy:
        return findings
    pinned: Set[str] = set()
    for stage in pipeline.copy_stages:
        pinned.update(name for name in (stage.src, stage.dst) if name)
    for buffer in pipeline.buffers.values():
        if buffer.is_mirror and buffer.name not in pinned:
            findings.append(
                make_diagnostic(
                    "RPL103",
                    pipeline.name,
                    f"mirror buffer {buffer.name!r} (of {buffer.mirror_of!r}) "
                    f"survives the limited-copy port but no residual copy "
                    f"references it",
                    buffer=buffer.name,
                    hint="redirect its accesses to the replicated allocation "
                    "and drop the mirror (remove_copies does this when the "
                    "mirror is not pinned by a residual copy)",
                )
            )
    return findings


def check_unused_buffers(pipeline: Pipeline) -> List[Diagnostic]:
    """RPL104: every declared allocation should be touched by some stage."""
    findings: List[Diagnostic] = []
    touched: Set[str] = set()
    for stage in pipeline.stages:
        touched.update(stage.buffers)
        touched.update(name for name in (stage.src, stage.dst) if name)
    for name in pipeline.buffers:
        if name not in touched:
            findings.append(
                make_diagnostic(
                    "RPL104",
                    pipeline.name,
                    f"buffer {name!r} is never accessed by any stage",
                    buffer=name,
                    hint="drop the allocation (it inflates the modelled "
                    "footprint) or wire it into the stage that should use it",
                )
            )
    return findings


def check_redundant_stages(pipeline: Pipeline) -> List[Diagnostic]:
    """RPL105: stages whose effect nothing can observe.

    Two shapes: a copy whose destination is never subsequently read and is
    not a declared output, and a terminal non-copy stage that performs no
    work and writes nothing (a barrier nothing waits on).
    """
    findings: List[Diagnostic] = []
    hb = HappensBefore(pipeline)
    outputs = set(pipeline.metadata.get("outputs", ()) or ())  # type: ignore[call-overload]
    has_dependents = {
        dep for stage in pipeline.stages for dep in stage.depends_on
    }
    readers: Dict[str, List[str]] = {}
    for stage in pipeline.stages:
        for access in stage.reads:
            readers.setdefault(access.buffer, []).append(stage.name)

    for stage in pipeline.stages:
        if stage.kind is StageKind.COPY:
            dst = stage.dst or ""
            if dst in outputs:
                continue
            observed = any(
                stage.name in hb.ancestors(reader)
                for reader in readers.get(dst, ())
            )
            if not observed:
                findings.append(
                    make_diagnostic(
                        "RPL105",
                        pipeline.name,
                        f"copy {stage.name!r} fills buffer {dst!r}, which no "
                        f"later stage reads and which is not a declared output",
                        stage=stage.name,
                        buffer=dst,
                        hint="drop the copy, or declare the destination in "
                        "metadata['outputs'] if it is a benchmark result",
                    )
                )
        elif (
            stage.flops == 0
            and not stage.writes
            and stage.name not in has_dependents
        ):
            findings.append(
                make_diagnostic(
                    "RPL105",
                    pipeline.name,
                    f"stage {stage.name!r} performs no work, writes nothing, "
                    f"and nothing depends on it",
                    stage=stage.name,
                    hint="remove the stage; a synchronization barrier must "
                    "have dependents to order anything",
                )
            )
    return findings


def check_misalignment(
    pipeline: Pipeline, spec: Optional[BenchmarkSpec]
) -> List[Diagnostic]:
    """RPL106: misaligned host allocations need the ``misaligned_limited_copy``
    flag (the ``*`` benchmarks of Fig. 5).

    After copy removal the GPU touches plain CPU allocations directly; when
    such an allocation is not cache-line aligned, GPU cache contention rises
    and the spec must carry the flag so Fig. 5 annotates the benchmark.
    Only checked on limited-copy pipelines with a spec to check against.
    """
    findings: List[Diagnostic] = []
    if spec is None or not pipeline.limited_copy or spec.misaligned_limited_copy:
        return findings
    flagged: Set[str] = set()
    for stage in pipeline.stages:
        if stage.kind is not StageKind.GPU_KERNEL:
            continue
        for access in stage.accesses:
            buffer = pipeline.buffers[access.buffer]
            if (
                buffer.space is MemorySpace.CPU
                and not buffer.cpu_line_aligned
                and buffer.name not in flagged
            ):
                flagged.add(buffer.name)
                findings.append(
                    make_diagnostic(
                        "RPL106",
                        pipeline.name,
                        f"GPU stage {stage.name!r} touches misaligned CPU "
                        f"allocation {buffer.name!r} but the spec does not "
                        f"set misaligned_limited_copy",
                        stage=stage.name,
                        buffer=buffer.name,
                        hint="set misaligned_limited_copy=True on the "
                        "benchmark spec (Fig. 5 '*' annotation) or align "
                        "the allocation",
                    )
                )
    return findings


def check_memspace_family(
    pipeline: Pipeline, spec: Optional[BenchmarkSpec] = None
) -> List[Diagnostic]:
    """All memory-space/copy rules (RPL101 — RPL106) over one pipeline."""
    findings: List[Diagnostic] = []
    findings.extend(check_memory_spaces(pipeline))
    findings.extend(check_copies(pipeline))
    findings.extend(check_dead_mirrors(pipeline))
    findings.extend(check_unused_buffers(pipeline))
    findings.extend(check_redundant_stages(pipeline))
    findings.extend(check_misalignment(pipeline, spec))
    return findings
