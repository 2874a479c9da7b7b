"""Reusable pipeline shapes for the benchmark suites.

Four archetypes cover most of the 46 simulated benchmarks:

* :func:`graph_app` — Lonestar / Pannotia style: copy a graph to the GPU,
  iterate irregular kernels with a CPU-checked convergence loop, copy the
  result back.  Optional software worklist.
* :func:`stencil_app` — grid sweeps with ping-pong buffers (hotspot,
  pathfinder, stencil, srad, ...).
* :func:`dense_app` — one or a few dense, compute-heavy kernels over big
  inputs (sgemm, cutcp, mri-q, gaussian, ...).
* :func:`offload_loop_app` — kmeans-style iterative CPU/GPU ping-pong with
  small per-iteration copies.

Benchmarks with unusual structure (fft, dwt, mummer, backprop,
streamcluster, ...) are built directly with :class:`PipelineBuilder` in
their suite modules.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.pipeline.builder import PipelineBuilder
from repro.pipeline.graph import Pipeline
from repro.pipeline.patterns import AccessPattern
from repro.pipeline.stage import BufferAccess

#: FLOP-rate efficiency defaults by rough workload character.
IRREGULAR_EFFICIENCY = 0.18
STENCIL_EFFICIENCY = 0.55
DENSE_EFFICIENCY = 0.7


def _metadata(
    outputs: Sequence[str],
    pagefault_heavy: bool = False,
    **extra: object,
) -> Dict[str, object]:
    meta: Dict[str, object] = {"outputs": tuple(outputs)}
    if pagefault_heavy:
        meta["pagefault_heavy"] = True
    meta.update(extra)
    return meta


def graph_app(
    name: str,
    *,
    graph_bytes: int,
    props_bytes: int,
    iterations: int,
    gpu_flops_per_iter: float,
    touched_fraction: float = 0.6,
    passes_per_iter: float = 1.5,
    uses_worklist: bool = False,
    worklist_bytes: int = 0,
    cpu_check_flops: float = 1e5,
    efficiency: float = IRREGULAR_EFFICIENCY,
    aligned: bool = True,
    pagefault_heavy: bool = False,
) -> Pipeline:
    """Irregular graph-analytics benchmark (Lonestar / Pannotia shape).

    The CPU copies the graph structure and property arrays to the GPU, then
    repeatedly launches a traversal kernel; after each kernel a small flag
    is copied back and the CPU decides whether to continue — the
    outer-loop structure Section V-A calls out.
    """
    b = PipelineBuilder(name, metadata=_metadata(["props"], pagefault_heavy))
    b.buffer("graph", graph_bytes, cpu_line_aligned=aligned)
    b.buffer("props", props_bytes, cpu_line_aligned=aligned)
    b.buffer("flag", 4096)
    b.mirror("flag")
    if uses_worklist:
        b.buffer(
            "worklist",
            worklist_bytes or max(4096, props_bytes // 2),
            temporary=True,
            cpu_line_aligned=aligned,
        )
    b.copy_h2d("graph")
    b.copy_h2d("props")
    for i in range(iterations):
        reads = [
            BufferAccess("graph_dev", AccessPattern.GRAPH, fraction=touched_fraction,
                         passes=passes_per_iter),
            BufferAccess("props_dev", AccessPattern.GRAPH, fraction=touched_fraction,
                         passes=passes_per_iter),
        ]
        writes = [
            BufferAccess("props_dev", AccessPattern.GRAPH,
                         fraction=touched_fraction * 0.5),
            BufferAccess("flag_dev", AccessPattern.STREAMING, broadcast=True),
        ]
        if uses_worklist:
            reads.append(BufferAccess("worklist", AccessPattern.STREAMING,
                                      fraction=touched_fraction))
            writes.append(BufferAccess("worklist", AccessPattern.RANDOM,
                                       fraction=touched_fraction * 0.5))
        b.gpu_kernel(
            f"traverse_{i}",
            flops=gpu_flops_per_iter,
            reads=reads,
            writes=writes,
            efficiency=efficiency,
        )
        b.copy_d2h("flag_dev", "flag", name=f"d2h_flag_{i}")
        b.cpu_stage(
            f"check_{i}",
            flops=cpu_check_flops,
            reads=[BufferAccess("flag", AccessPattern.STREAMING)],
            occupancy=0.25,
        )
    b.copy_d2h("props_dev", "props", name="d2h_props")
    return b.build()


def stencil_app(
    name: str,
    *,
    grid_bytes: int,
    iterations: int,
    flops_per_sweep: float,
    efficiency: float = STENCIL_EFFICIENCY,
    aligned: bool = True,
    temp_bytes: int = 0,
    pagefault_heavy: bool = False,
    chunkable: bool = True,
) -> Pipeline:
    """Iterative grid sweep with ping-pong buffers (hotspot / stencil shape)."""
    b = PipelineBuilder(name, metadata=_metadata(["grid_a"], pagefault_heavy))
    b.buffer("grid_a", grid_bytes, cpu_line_aligned=aligned)
    b.buffer("grid_b", grid_bytes, temporary=True, cpu_line_aligned=aligned)
    if temp_bytes:
        b.buffer("temps", temp_bytes, temporary=True, cpu_line_aligned=aligned)
    b.copy_h2d("grid_a", chunkable=chunkable)
    src, dst = "grid_a_dev", "grid_b"
    for i in range(iterations):
        reads = [BufferAccess(src, AccessPattern.STENCIL)]
        writes = [BufferAccess(dst, AccessPattern.STREAMING)]
        if temp_bytes:
            reads.append(BufferAccess("temps", AccessPattern.STREAMING, passes=0.5))
            writes.append(BufferAccess("temps", AccessPattern.STREAMING, passes=0.5))
        b.gpu_kernel(
            f"sweep_{i}",
            flops=flops_per_sweep,
            reads=reads,
            writes=writes,
            efficiency=efficiency,
            chunkable=chunkable and iterations == 1,
        )
        src, dst = dst, src
    b.copy_d2h(src, "grid_a", name="d2h_result", chunkable=chunkable)
    return b.build()


def dense_app(
    name: str,
    *,
    input_bytes: Dict[str, int],
    output_bytes: Dict[str, int],
    kernel_flops: Sequence[float],
    input_passes: float = 2.0,
    efficiency: float = DENSE_EFFICIENCY,
    aligned: bool = True,
    chunkable: bool = True,
    cpu_post_flops: float = 0.0,
) -> Pipeline:
    """Bulk-offload dense benchmark: copy in, crunch, copy out."""
    outputs = list(output_bytes)
    b = PipelineBuilder(name, metadata=_metadata(outputs))
    for buf, size in input_bytes.items():
        b.buffer(buf, size, cpu_line_aligned=aligned)
    for buf, size in output_bytes.items():
        b.buffer(buf, size, cpu_line_aligned=aligned)
    for buf in input_bytes:
        b.copy_h2d(buf, chunkable=chunkable)
    for buf in output_bytes:
        b.mirror(buf)
    for k, flops in enumerate(kernel_flops):
        b.gpu_kernel(
            f"kernel_{k}",
            flops=flops,
            reads=[
                BufferAccess(f"{buf}_dev", AccessPattern.STREAMING, passes=input_passes)
                for buf in input_bytes
            ],
            writes=[
                BufferAccess(f"{buf}_dev", AccessPattern.STREAMING)
                for buf in output_bytes
            ],
            efficiency=efficiency,
            chunkable=chunkable and len(kernel_flops) == 1,
        )
    for buf in output_bytes:
        b.copy_d2h(f"{buf}_dev", buf, name=f"d2h_{buf}", chunkable=chunkable)
    if cpu_post_flops:
        b.cpu_stage(
            "post",
            flops=cpu_post_flops,
            reads=[BufferAccess(buf, AccessPattern.STREAMING) for buf in outputs],
            occupancy=0.25,
            migratable=True,
        )
    return b.build()


def offload_loop_app(
    name: str,
    *,
    data_bytes: int,
    state_bytes: int,
    result_bytes: int,
    iterations: int,
    gpu_flops_per_iter: float,
    cpu_flops_per_iter: float,
    extra_d2h_bytes: int = 0,
    gpu_efficiency: float = 0.6,
    data_passes: float = 1.0,
    aligned: bool = True,
    cpu_reads_data_fraction: float = 0.0,
    cpu_result_fraction: float = 1.0,
) -> Pipeline:
    """Iterative offload with per-iteration CPU post-processing (kmeans shape).

    Per iteration: the GPU streams the big data array against a small
    broadcast state (e.g. cluster centres), writes per-element results and
    optional partial sums; results are copied back; the CPU folds them into
    new state, which is copied to the GPU for the next iteration.
    """
    b = PipelineBuilder(name, metadata=_metadata(["state"]))
    b.buffer("data", data_bytes, cpu_line_aligned=aligned)
    b.buffer("state", state_bytes)
    b.buffer("result", result_bytes, cpu_line_aligned=aligned)
    if extra_d2h_bytes:
        b.buffer("partials", extra_d2h_bytes, cpu_line_aligned=aligned)
    b.copy_h2d("data")
    b.copy_h2d("state", name="h2d_state_init")
    b.mirror("result")
    if extra_d2h_bytes:
        b.mirror("partials")
    for i in range(iterations):
        writes = [BufferAccess("result_dev", AccessPattern.STREAMING)]
        if extra_d2h_bytes:
            writes.append(BufferAccess("partials_dev", AccessPattern.STREAMING))
        b.gpu_kernel(
            f"map_{i}",
            flops=gpu_flops_per_iter,
            reads=[
                BufferAccess("data_dev", AccessPattern.STREAMING, passes=data_passes),
                BufferAccess(
                    "state_dev", AccessPattern.BROADCAST, passes=16.0, broadcast=True
                ),
            ],
            writes=writes,
            efficiency=gpu_efficiency,
            chunkable=True,
        )
        b.copy_d2h("result_dev", "result", name=f"d2h_result_{i}", chunkable=True)
        if extra_d2h_bytes:
            b.copy_d2h("partials_dev", "partials", name=f"d2h_partials_{i}", chunkable=True)
        cpu_reads = [
            BufferAccess(
                "result", AccessPattern.STREAMING, fraction=cpu_result_fraction
            )
        ]
        if extra_d2h_bytes:
            cpu_reads.append(BufferAccess("partials", AccessPattern.STREAMING))
        if cpu_reads_data_fraction > 0:
            cpu_reads.append(
                BufferAccess(
                    "data", AccessPattern.STRIDED, fraction=cpu_reads_data_fraction
                )
            )
        b.cpu_stage(
            f"update_{i}",
            flops=cpu_flops_per_iter,
            reads=cpu_reads,
            writes=[BufferAccess("state", AccessPattern.STREAMING, passes=2.0)],
            occupancy=0.25,
            chunkable=True,
            migratable=True,
        )
        if i + 1 < iterations:
            b.copy_h2d("state", "state_dev", name=f"h2d_state_{i}")
    return b.build()
