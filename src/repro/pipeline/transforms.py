"""Program transformations over benchmark pipelines.

These model the source-level ports and optimizations the paper studies:

* :func:`remove_copies` — the "limited-copy" port (Section III-D): eliminate
  mirror allocations and the copies that fill/drain them, letting the GPU
  access CPU allocations directly.
* :func:`fission_async_streams` — kernel fission + asynchronous copy streams
  for discrete GPUs (Section II-B, Section V-A).
* :func:`parallel_producer_consumer` — chunked in-memory producer-consumer
  synchronization for heterogeneous processors (Section V-A).
* :func:`migrate_compute` — moving low-TLP CPU work into GPU kernels
  (Section V-B validation).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Set, Tuple

from repro.pipeline.graph import Pipeline, PipelineError
from repro.pipeline.stage import BufferAccess, Stage, StageKind


def _expand_deps(
    deps: Sequence[str], removed: Dict[str, Tuple[str, ...]]
) -> Tuple[str, ...]:
    """Replace removed stages in a dependency list by their own dependencies."""
    out: List[str] = []
    seen: Set[str] = set()
    work = list(deps)
    while work:
        dep = work.pop(0)
        if dep in seen:
            continue
        seen.add(dep)
        if dep in removed:
            work.extend(removed[dep])
        else:
            out.append(dep)
    return tuple(out)


def _rewire_access(access: BufferAccess, renames: Dict[str, str]) -> BufferAccess:
    target = renames.get(access.buffer)
    if target is None:
        return access
    return replace(access, buffer=target)


def remove_copies(pipeline: Pipeline) -> Pipeline:
    """Port a discrete-GPU pipeline to its limited-copy form.

    Copies marked ``mirror_copy`` are removed and every access to a mirror
    buffer is redirected to the CPU allocation it replicates.  Copies not
    marked as mirror copies (double-buffer shuffles the runtime cannot prove
    safe, memsets, ...) remain — hence *limited*-copy.  Mirror buffers that
    are no longer referenced are dropped, shrinking the footprint (Fig. 4).
    """
    if pipeline.limited_copy:
        return pipeline

    removed: Dict[str, Tuple[str, ...]] = {}
    survivors: List[Stage] = []
    for stage in pipeline.stages:
        if stage.kind is StageKind.COPY and stage.mirror_copy:
            removed[stage.name] = stage.depends_on
        else:
            survivors.append(stage)

    # Mirrors still filled/drained by residual copies keep their identity:
    # the GPU must keep using the device-side buffer those copies target.
    pinned: Set[str] = set()
    for stage in survivors:
        if stage.kind is StageKind.COPY:
            pinned.update(filter(None, (stage.src, stage.dst)))
    renames = {
        buf.name: buf.mirror_of
        for buf in pipeline.buffers.values()
        if buf.mirror_of is not None and buf.name not in pinned
    }

    rewired: List[Stage] = []
    for stage in survivors:
        new_reads = tuple(_rewire_access(a, renames) for a in stage.reads)
        new_writes = tuple(_rewire_access(a, renames) for a in stage.writes)
        new_deps = _expand_deps(stage.depends_on, removed)
        src = renames.get(stage.src, stage.src) if stage.src else None
        dst = renames.get(stage.dst, stage.dst) if stage.dst else None
        rewired.append(
            replace(
                stage,
                reads=new_reads,
                writes=new_writes,
                depends_on=new_deps,
                src=src,
                dst=dst,
            )
        )

    referenced: Set[str] = set()
    for stage in rewired:
        referenced.update(stage.buffers)
        if stage.src:
            referenced.add(stage.src)
        if stage.dst:
            referenced.add(stage.dst)
    buffers = {
        name: buf
        for name, buf in pipeline.buffers.items()
        if not buf.is_mirror or name in referenced
    }
    # Anything a surviving stage references must be kept even if it is a
    # mirror (residual copies may still target mirrors).
    for name in referenced:
        if name not in buffers:
            buffers[name] = pipeline.buffers[name]

    return Pipeline(
        name=pipeline.name,
        buffers=buffers,
        stages=tuple(rewired),
        limited_copy=True,
        metadata=dict(pipeline.metadata),
    )


def chunk_stages(
    pipeline: Pipeline,
    num_chunks: int,
    *,
    suffix: str = "chunk",
) -> Pipeline:
    """Split every ``chunkable`` stage into ``num_chunks`` data-parallel chunks.

    Chunk *i* of a stage depends on chunk *i* of each chunkable predecessor
    and on every non-chunkable predecessor, which turns a bulk-synchronous
    chain of chunkable stages into ``num_chunks`` software-pipelined lanes
    the simulator can overlap across components.  Dependents that are not
    themselves chunkable wait for all chunks.
    """
    if num_chunks < 1:
        raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
    if num_chunks == 1 or not any(s.chunkable for s in pipeline.stages):
        return pipeline

    chunkable = {s.name for s in pipeline.stages if s.chunkable}
    new_stages: List[Stage] = []
    for stage in pipeline.stages:
        if stage.name not in chunkable:
            deps: List[str] = []
            for dep in stage.depends_on:
                if dep in chunkable:
                    deps.extend(f"{dep}_{suffix}{i}" for i in range(num_chunks))
                else:
                    deps.append(dep)
            new_stages.append(replace(stage, depends_on=tuple(deps)))
            continue
        for i in range(num_chunks):
            deps = []
            for dep in stage.depends_on:
                if dep in chunkable:
                    deps.append(f"{dep}_{suffix}{i}")
                else:
                    deps.append(dep)
            new_stages.append(
                replace(
                    stage,
                    name=f"{stage.name}_{suffix}{i}",
                    parent=stage.logical_name,
                    flops=stage.flops / num_chunks,
                    reads=tuple(a.chunk(i, num_chunks) for a in stage.reads),
                    writes=tuple(a.chunk(i, num_chunks) for a in stage.writes),
                    depends_on=tuple(deps),
                )
            )
    return pipeline.with_stages(new_stages)


def fission_async_streams(pipeline: Pipeline, num_streams: int = 4) -> Pipeline:
    """Kernel fission + asynchronous copy streams (discrete GPU systems).

    The programmer explicitly divides independent data/compute chunks of a
    kernel into separate kernels overlapped with asynchronous copies.  Only
    meaningful on pipelines that still contain copies.
    """
    if pipeline.limited_copy:
        raise PipelineError(
            "fission_async_streams applies to copy pipelines; use "
            "parallel_producer_consumer on limited-copy pipelines"
        )
    return chunk_stages(pipeline, num_streams, suffix="s")


def parallel_producer_consumer(pipeline: Pipeline, num_chunks: int = 4) -> Pipeline:
    """Chunked producer-consumer overlap via in-memory data-ready signals.

    The heterogeneous-processor analogue of kernel fission: consumers wait on
    in-memory flags set by producers, so no streams or kernel splitting API
    is required; structurally the resulting schedule is the same chunked
    software pipeline.
    """
    if not pipeline.limited_copy:
        raise PipelineError(
            "parallel_producer_consumer applies to limited-copy pipelines; "
            "call remove_copies first"
        )
    return chunk_stages(pipeline, num_chunks, suffix="pc")


def migrate_compute(
    pipeline: Pipeline,
    *,
    efficiency_factor: float = 0.85,
    occupancy: float = 0.9,
) -> Pipeline:
    """Move ``migratable`` CPU stages onto GPU cores (Section V-B).

    Each migratable CPU stage becomes a GPU kernel (matrix-vector and
    reduction-like host loops rewritten with GPU atomics, hence the
    efficiency haircut).  Device-to-host mirror copies that existed solely to
    feed migrated stages are pruned, and the migrated stages read the
    GPU-resident source data directly — the reduced data movement the paper
    measured (>2.5x on kmeans and strmclstr).

    Output buffers (``pipeline.metadata["outputs"]``) are never cut off: a
    copy producing a final output is retained.
    """
    migratable = {s.name for s in pipeline.stages if s.migratable and s.kind is StageKind.CPU}
    if not migratable:
        return pipeline

    outputs = set(pipeline.metadata.get("outputs", ()) or ())

    # A d2h mirror copy is dead if every non-copy reader of its destination is
    # a migrated stage (which can now read the GPU-side source directly) and
    # the destination is not a declared final output.
    readers: Dict[str, Set[str]] = {}
    for stage in pipeline.stages:
        if stage.kind is StageKind.COPY:
            continue
        for access in stage.reads:
            readers.setdefault(access.buffer, set()).add(stage.name)

    dead_copies: Dict[str, Tuple[str, ...]] = {}
    redirect: Dict[str, str] = {}
    for stage in pipeline.stages:
        if stage.kind is not StageKind.COPY or not stage.mirror_copy:
            continue
        dst_buf = pipeline.buffers.get(stage.dst)
        src_buf = pipeline.buffers.get(stage.src)
        # Only consider device-to-host drains: GPU-space source, CPU dest.
        if src_buf is None or dst_buf is None or not src_buf.is_mirror:
            continue
        dst_readers = readers.get(stage.dst, set())
        if stage.dst in outputs or not dst_readers or not dst_readers <= migratable:
            continue
        dead_copies[stage.name] = stage.depends_on
        redirect[stage.dst] = stage.src

    new_stages: List[Stage] = []
    for stage in pipeline.stages:
        if stage.name in dead_copies:
            continue
        deps = _expand_deps(stage.depends_on, dead_copies)
        if stage.name in migratable:
            new_stages.append(
                replace(
                    stage,
                    kind=StageKind.GPU_KERNEL,
                    depends_on=deps,
                    reads=tuple(_rewire_access(a, redirect) for a in stage.reads),
                    writes=tuple(_rewire_access(a, redirect) for a in stage.writes),
                    compute_efficiency=stage.compute_efficiency * efficiency_factor,
                    occupancy=occupancy,
                    migratable=False,
                )
            )
        else:
            new_stages.append(replace(stage, depends_on=deps))

    return pipeline.with_stages(new_stages)
