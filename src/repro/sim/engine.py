"""Discrete-event execution engine.

Schedules pipeline stages onto the three components (CPU cores, GPU cores,
copy engine) honouring dependencies, single-server occupancy per component,
CPU-issued launch latency for kernels and copies, shared-pool bandwidth
arbitration, and (on the heterogeneous processor) CPU-handled GPU page
faults.  Stage memory behaviour is obtained by streaming each stage's
generated access trace through the cache system in start-time order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.system import SystemConfig, SystemKind
from repro.pipeline.graph import Pipeline
from repro.pipeline.stage import Stage, StageKind
from repro.sim.dram import MemorySystem
from repro.sim.hierarchy import CacheSystem, Component, DomainResult
from repro.sim.observe.events import (
    CTR_BW_SHARE,
    CTR_DRAM_READS,
    CTR_DRAM_WRITES,
    CTR_LINK_BYTES_IN,
    CTR_LINK_BYTES_OUT,
    CTR_ONCHIP_TRANSFERS,
    MARK_ROI_END,
    SPAN_FAULT,
    SPAN_LAUNCH,
    SPAN_STAGE,
    SRC_COPY,
    SRC_DRAIN,
    SRC_FLUSH,
    SRC_STAGE,
    SRC_ZERO,
    CounterEvent,
    MarkEvent,
    SpanEvent,
    TraceEvent,
)
from repro.sim.memo import StageMemo, run_step, shared_stage_memo, states_digest
from repro.sim.observe.sinks import TraceSink
from repro.sim.pagefault import PageFaultModel, premapped_pages
from repro.sim.pcie import CopyEngine
from repro.sim.results import Interval, SimResult, StageRecord
from repro.sim.timing import StageTiming, compute_stage_timing
from repro.trace.generator import StageTrace, TraceGenerator, TraceMemo
from repro.trace.stream import AccessStream, sorted_unique

_COMPONENT_OF_KIND = {
    StageKind.CPU: Component.CPU,
    StageKind.GPU_KERNEL: Component.GPU,
    StageKind.COPY: Component.COPY,
}

#: Version tag of the simulation semantics.  Persistently cached results
#: (:mod:`repro.sim.resultcache`) embed this tag in their content hash, so
#: bumping it invalidates every archived sweep at once.  Bump whenever a
#: change to the engine, trace generation, cache/DRAM/PCIe models, or the
#: workload pipeline builders alters simulation output for unchanged
#: (pipeline, system, options) inputs.
#: 2: SimResult grew the optional ``violations`` field (repro.sim.observe);
#:    simulation math is unchanged but the serialized form is richer.
ENGINE_VERSION = "repro-sim/2"

#: Process-wide memo of synthesized trace parts, shared by every ``fast``
#: engine instance (see :class:`repro.trace.generator.TraceGenerator`).
#: Keys fully determine the part's contents, so sharing across pipelines,
#: systems, and the copy/limited-copy pair is exact.
_TRACE_MEMO = TraceMemo()

#: Default ``stage_memo`` of :class:`Engine`: the process-wide shared memo.
_SHARED_MEMO: Any = object()


@dataclass(frozen=True)
class SimOptions:
    """Knobs controlling a simulation run.

    Attributes:
        seed: trace-generation seed.
        scale: footprint/cache scale factor (see DESIGN.md); 1.0 is paper
            scale.  Applied to both the pipeline and the system caches so
            capacity ratios are preserved.
        line_bytes: cache line size (Table I: 128B).
        collect_log: keep the full off-chip log (needed for Fig. 9); can be
            disabled to save memory on very large runs.

    Every field changes a result; how a result is computed does not (the
    cache implementation and stage memo are :class:`Engine` arguments).
    """

    seed: int = 0
    scale: float = 1.0
    line_bytes: int = 128
    collect_log: bool = True
    # Opt-in row-buffer-aware DRAM efficiency (see repro.sim.dram_row); the
    # calibrated default is the paper's flat ~82%-of-pin model.
    dram_row_model: bool = False


class Engine:
    """Executes one pipeline on one system configuration.

    ``sinks`` attaches trace sinks (:mod:`repro.sim.observe`): the engine
    emits typed span/counter events at its hook points (stage execution,
    bandwidth refinement, cache drains) and calls each sink's ``finish``
    with the completed result.  Tracing is observation-only — attaching
    sinks never changes the simulation outcome — and with no sinks the
    emission paths are skipped entirely.

    ``impl`` and ``stage_memo`` choose how the result is computed, never
    what it is: the cache implementation (``"fast"``, the vectorized caches
    of :mod:`repro.sim.fastcache` plus per-stage trace memoization, or
    ``"reference"``, the plain-Python caches without it) and the step memo
    (:mod:`repro.sim.memo`: the process-wide shared one, or ``None`` for
    none).  Every run of the program uses the defaults; the reference
    caches and memo-off runs are the oracles that
    tests/test_engine_equivalence.py and tests/test_stage_memo.py hold
    them to, bit for bit.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        system: SystemConfig,
        options: SimOptions,
        sinks: Sequence[TraceSink] = (),
        *,
        impl: str = "fast",
        stage_memo: Optional[StageMemo] = _SHARED_MEMO,
    ):
        self.sinks: Tuple[TraceSink, ...] = tuple(sinks)
        self._tracing = bool(self.sinks)
        if options.scale != 1.0:
            pipeline = pipeline.scaled(options.scale)
            system = system.scaled(options.scale)
        self.pipeline = pipeline
        self.system = system
        self.options = options
        self.tracegen = TraceGenerator(
            pipeline,
            line_bytes=options.line_bytes,
            seed=options.seed,
            # The fast path memoizes per-access trace parts process-wide,
            # so the copy / limited-copy pair (and repeated stages within
            # one pipeline) synthesize each identical sub-stream once.
            memo=_TRACE_MEMO if impl == "fast" else None,
        )
        # Step-level memoization (repro.sim.memo): process-wide and shared
        # across engine instances.  A compute stage's page-fault touch, L1,
        # L2 and peer probe are separate steps keyed on their own inputs,
        # so runs differing in one component replay the others' steps;
        # copy and drain steps key on every cache and ``caches.coherent``.
        # docs/BENCHMARKING.md tables the step hits/misses of five
        # benchmarks, which tests/test_stage_memo.py pins.
        self.stage_memo: Optional[StageMemo] = (
            shared_stage_memo() if stage_memo is _SHARED_MEMO else stage_memo
        )
        coherent = system.kind is SystemKind.HETEROGENEOUS
        self.caches = CacheSystem(
            cpu_l1=system.cpu.l1d,
            cpu_l2=self._aggregate_cpu_l2(),
            gpu_l1=self._aggregate_gpu_l1(),
            gpu_l2=system.gpu.l2,
            coherent=coherent,
            impl=impl,
            memo=self.stage_memo,
        )
        self.memory = MemorySystem(system)
        self.copy_engine = CopyEngine(system)
        self.faults: Optional[PageFaultModel] = None
        if coherent and system.page_faults.enabled:
            self.faults = PageFaultModel(
                config=system.page_faults,
                layout=self.tracegen.layout,
                mapped=premapped_pages(pipeline, self.tracegen.layout),
                serialization_heavy=bool(
                    pipeline.metadata.get("pagefault_heavy", False)
                ),
            )

    def _aggregate_cpu_l2(self):
        """The four private 256kB L2s modelled as one 1MB pool."""
        cfg = self.system.cpu.l2
        from dataclasses import replace

        return replace(
            cfg, capacity_bytes=cfg.capacity_bytes * self.system.cpu.num_cores
        )

    def _aggregate_gpu_l1(self):
        """Sixteen 24kB GPU L1s modelled as one 384kB pool."""
        cfg = self.system.gpu.l1
        from dataclasses import replace

        return replace(
            cfg, capacity_bytes=cfg.capacity_bytes * self.system.gpu.num_cores
        )

    # -- tracing ---------------------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    # -- memory steps ----------------------------------------------------------
    #
    # A stage's memory step is split into steps, each a pure function of
    # its inputs: a compute stage's page-fault touch here, its L1, L2 and
    # peer probe in repro.sim.hierarchy, and one step per copy and per
    # drain.  Every step is one repro.sim.memo.run_step call, given the
    # step's key and its live simulation; with a stage memo a repeated key
    # replays the recorded outcome.  Timing (fault service seconds
    # included), scheduling, and trace events are cheap arithmetic over the
    # step outputs and always run live, which keeps memoized runs bit-exact
    # with memo-off runs.

    def _all_caches(self) -> tuple:
        """The caches a copy or drain step can read or mutate, in fixed order."""
        return (
            self.caches.cpu.l1,
            self.caches.cpu.l2,
            self.caches.gpu.l1,
            self.caches.gpu.l2,
        )

    def _stream_key(self, stage: Optional[Stage], trace: Optional[StageTrace]) -> tuple:
        """Versioned name of a step's input stream (the drain has none).

        ENGINE_VERSION is read dynamically (module global) so a version
        bump invalidates live stage memos exactly like the result cache:
        every step key holds this key or chains from a step that does.  The
        stage's trace key is built here only without a trace memo.
        """
        if trace is None:
            trace_key = None
        elif trace.key is not None:
            trace_key = trace.key
        else:
            trace_key = self.tracegen.stage_key(stage)
        return (ENGINE_VERSION, self.options.line_bytes, trace_key)

    def _memo_key(self, tag: tuple, stream_key: tuple, involved: tuple) -> tuple:
        return (
            tag,
            stream_key,
            self.caches.coherent,
            tuple(cache.config for cache in involved),
            states_digest([cache.state_arrays() for cache in involved]),
        )

    def _compute_memory_step(
        self,
        stage: Stage,
        trace: StageTrace,
        component: Component,
        ordinal: int,
    ) -> Tuple[DomainResult, float, int, int]:
        """A compute stage's memory step: page-fault touch, then the caches.

        Returns (mem, fault service seconds, fault count, zeroed blocks).
        """
        stream = trace.stream
        stream_key = self._stream_key(stage, trace)
        fault_count = zeroed = 0
        if self.faults is not None and len(stream):
            fault_count, zeroed = self._touch_step(
                stage, stream, stream_key, component, ordinal
            )
        mem = self.caches.process_compute(stream, ordinal, component, stream_key)
        if self.faults is None:
            return mem, 0.0, 0, 0
        return mem, self.faults.service_time(fault_count), fault_count, zeroed

    def _touch_step(
        self,
        stage: Stage,
        stream: AccessStream,
        stream_key: tuple,
        component: Component,
        ordinal: int,
    ) -> Tuple[int, int]:
        """One compute stage's page-fault touch, keyed on page size,
        page-table token, stream and component.

        Returns (fault count, zeroed blocks).
        """

        def live() -> tuple:
            fault = self.faults.touch(stream.blocks, stage.kind)
            zeroed = fault.zeroed_blocks
            if len(zeroed):
                # The CPU zeroes newly mapped pages; attribute the writes
                # to the CPU component (the srad access-shifting effect).
                # Zeroing traffic counts as CPU memory accesses but not as
                # core-touched footprint.
                self.caches.log.append(
                    zeroed,
                    np.ones(len(zeroed), dtype=bool),
                    ordinal,
                    Component.CPU,
                )
            return fault.faults, zeroed, fault.new_pages

        (fault_count, zeroed, _), _ = run_step(
            self.stage_memo,
            lambda: ("fault", component.value, stream_key, self.faults.state_key()),
            (),
            self.caches.log,
            ordinal,
            live,
            replay=lambda outputs: self.faults.map_pages(outputs[2]),
        )
        return fault_count, len(zeroed)

    def _copy_memory_step(
        self,
        stage: Stage,
        trace: StageTrace,
        src_blocks: np.ndarray,
        dst_blocks: np.ndarray,
        ordinal: int,
    ) -> DomainResult:
        """A copy (DMA) stage's memory step; an empty copy is not memoized."""
        caches = self._all_caches()
        mem, _ = run_step(
            self.stage_memo if len(src_blocks) + len(dst_blocks) else None,
            lambda: self._memo_key(("copy",), self._stream_key(stage, trace), caches),
            caches,
            self.caches.log,
            ordinal,
            lambda: self.caches.process_copy(src_blocks, dst_blocks, ordinal),
        )
        return mem

    # -- scheduling ------------------------------------------------------------

    def run(self) -> SimResult:
        order = self.pipeline.topological_order()
        pending: List[Stage] = list(order)
        completed: Dict[str, float] = {}
        comp_free: Dict[Component, float] = {c: 0.0 for c in Component}
        busy: Dict[Component, List[Interval]] = {c: [] for c in Component}
        launch_intervals: List[Interval] = []
        records: List[StageRecord] = []
        # Per component, each distinct per-stage footprint array once:
        # repeated stages share one memoized trace, hence one array.
        touched: Dict[Component, Dict[int, np.ndarray]] = {
            c: {} for c in Component
        }
        flops_by_component: Dict[Component, float] = {c: 0.0 for c in Component}
        logical_index: Dict[str, int] = {}
        logical_of_ordinal: List[int] = []

        launch_latency = self.system.kernel_launch_latency_s
        ordinal = 0

        while pending:
            # Earliest-start list scheduling: among dependency-ready stages,
            # run the one whose execution can begin first.
            best: Optional[Tuple[float, float, int, Stage]] = None
            for idx, stage in enumerate(pending):
                if any(dep not in completed for dep in stage.depends_on):
                    continue
                ready = max(
                    (completed[dep] for dep in stage.depends_on), default=0.0
                )
                component = _COMPONENT_OF_KIND[stage.kind]
                if stage.kind is StageKind.CPU:
                    start = max(ready, comp_free[Component.CPU])
                    launch_start = start
                elif stage.device_launched:
                    # Dynamic parallelism: no CPU involvement; the (higher)
                    # device launch latency precedes execution.
                    launch_start = ready
                    start = max(
                        ready + self.system.device_launch_latency_s,
                        comp_free[component],
                    )
                else:
                    launch_start = ready
                    start = max(ready + launch_latency, comp_free[component])
                key = (start, launch_start, idx)
                if best is None or key < (best[0], best[1], best[2]):
                    best = (start, launch_start, idx, stage)
            if best is None:
                raise RuntimeError(
                    f"deadlock scheduling pipeline {self.pipeline.name!r}"
                )
            start, launch_start, idx, stage = best
            pending.pop(idx)
            component = _COMPONENT_OF_KIND[stage.kind]

            if stage.kind is not StageKind.CPU and not stage.device_launched:
                sliver = Interval(launch_start, launch_start + launch_latency)
                launch_intervals.append(sliver)
                busy[Component.CPU].append(sliver)
                if self._tracing:
                    self._emit(
                        SpanEvent(
                            category=SPAN_LAUNCH,
                            name=f"launch:{stage.name}",
                            component=Component.CPU.value,
                            start_s=sliver.start,
                            end_s=sliver.end,
                            ordinal=ordinal,
                        )
                    )

            active = frozenset(
                comp
                for comp, intervals in busy.items()
                if any(iv.start <= start < iv.end for iv in intervals)
            )
            record = self._execute(
                stage, component, start, active, ordinal, busy, touched
            )
            records.append(record)
            completed[stage.name] = record.end_s
            comp_free[component] = max(comp_free[component], record.end_s)
            busy[component].append(Interval(record.start_s, record.end_s))
            flops_by_component[component] += stage.flops
            if stage.logical_name not in logical_index:
                logical_index[stage.logical_name] = len(logical_index)
            logical_of_ordinal.append(logical_index[stage.logical_name])
            ordinal += 1

        roi = max((r.end_s for r in records), default=0.0)
        self._drain_caches(ordinal, roi)
        if self._tracing:
            self._emit(MarkEvent(name=MARK_ROI_END, t_s=roi))

        log = self.caches.log
        blocks, is_write, stage_arr, comp_arr = (
            log.arrays() if self.options.collect_log else log.empty_arrays()
        )
        touched_final = {
            comp: sorted_unique(np.concatenate(list(parts.values())))
            if parts
            else np.empty(0, np.int64)
            for comp, parts in touched.items()
        }
        # Drain writebacks belong to the final logical stage for distance math.
        logical_of_ordinal.append(
            logical_of_ordinal[-1] if logical_of_ordinal else 0
        )

        result = SimResult(
            pipeline_name=self.pipeline.name,
            system_kind=self.system.kind.value,
            roi_s=roi,
            stages=tuple(records),
            busy=busy,
            launch_intervals=launch_intervals,
            line_bytes=self.options.line_bytes,
            log_blocks=blocks,
            log_is_write=is_write,
            log_stage=stage_arr,
            log_component=comp_arr,
            logical_of_ordinal=np.asarray(logical_of_ordinal, dtype=np.int32),
            touched_blocks=touched_final,
            total_flops=self.pipeline.total_flops,
            flops_by_component=flops_by_component,
        )
        # Let every sink see the finished run; monitors check their
        # conservation laws here ("raise" mode propagates from finish).
        for sink in self.sinks:
            sink.finish(result)
        violations = tuple(
            violation
            for sink in self.sinks
            for violation in getattr(sink, "violations", ())
        )
        if violations:
            result.violations = violations
        return result

    # -- per-stage execution ------------------------------------------------------

    def _execute(
        self,
        stage: Stage,
        component: Component,
        start: float,
        active: frozenset,
        ordinal: int,
        busy: Dict[Component, List[Interval]],
        touched: Dict[Component, Dict[int, np.ndarray]],
    ) -> StageRecord:
        trace = self.tracegen.stage_trace(stage)
        stream = trace.stream
        if len(stream):
            touched[component][id(trace.unique_ids)] = trace.unique_ids

        if stage.kind is StageKind.COPY:
            src_blocks = stream.blocks[~stream.is_write]
            dst_blocks = stream.blocks[stream.is_write]
            mem = self._copy_memory_step(
                stage, trace, src_blocks, dst_blocks, ordinal
            )
            share = self.memory.effective_bandwidth(component, active)
            pool_fraction = share.bytes_per_second / max(
                self.memory.pool_of(component).achievable_bandwidth, 1e-30
            )
            timing_copy = self.copy_engine.copy_time(
                len(src_blocks) * self.options.line_bytes, bandwidth_share=pool_fraction
            )
            timing = StageTiming(
                compute_s=0.0, memory_s=timing_copy.transfer_s, latency_s=0.0
            )
            end = start + timing_copy.transfer_s
            if self._tracing:
                flushed = mem.offchip_writes - len(dst_blocks)
                line_bytes = self.options.line_bytes
                self._emit(
                    SpanEvent(
                        category=SPAN_STAGE,
                        name=stage.name,
                        component=component.value,
                        start_s=start,
                        end_s=end,
                        ordinal=ordinal,
                        args={"kind": stage.kind.value, "logical": stage.logical_name},
                    )
                )
                self._emit(
                    CounterEvent(
                        name=CTR_BW_SHARE,
                        component=component.value,
                        t_s=start,
                        value=share.bytes_per_second,
                        ordinal=ordinal,
                        args={"pool": share.pool},
                    )
                )
                self._emit(
                    CounterEvent(
                        name=CTR_LINK_BYTES_IN,
                        component=component.value,
                        t_s=start,
                        value=len(src_blocks) * line_bytes,
                        ordinal=ordinal,
                    )
                )
                self._emit(
                    CounterEvent(
                        name=CTR_LINK_BYTES_OUT,
                        component=component.value,
                        t_s=end,
                        value=len(dst_blocks) * line_bytes,
                        ordinal=ordinal,
                    )
                )
                self._emit(
                    CounterEvent(
                        name=CTR_DRAM_READS,
                        component=component.value,
                        t_s=start,
                        value=len(src_blocks),
                        ordinal=ordinal,
                        source=SRC_COPY,
                    )
                )
                self._emit(
                    CounterEvent(
                        name=CTR_DRAM_WRITES,
                        component=component.value,
                        t_s=end,
                        value=len(dst_blocks),
                        ordinal=ordinal,
                        source=SRC_COPY,
                    )
                )
                if flushed:
                    self._emit(
                        CounterEvent(
                            name=CTR_DRAM_WRITES,
                            component=component.value,
                            t_s=start,
                            value=flushed,
                            ordinal=ordinal,
                            source=SRC_FLUSH,
                        )
                    )
            return StageRecord(
                name=stage.name,
                logical=stage.logical_name,
                kind=stage.kind,
                component=component,
                ordinal=ordinal,
                start_s=start,
                end_s=end,
                timing=timing,
                requests=mem.requests,
                offchip_reads=mem.offchip_reads,
                offchip_writes=mem.offchip_writes,
                onchip_transfers=0,
                faults=0,
                flops=0.0,
            )

        mem, fault_service, fault_count, zeroed_count = self._compute_memory_step(
            stage, trace, component, ordinal
        )
        share = self.memory.effective_bandwidth(component, active)
        share = self._refine_bandwidth(share, component, mem, ordinal, start)
        if stage.kind is StageKind.GPU_KERNEL and stage.resources is not None:
            from dataclasses import replace as _replace

            from repro.sim.occupancy import derive_stage_occupancy

            stage = _replace(
                stage,
                occupancy=derive_stage_occupancy(
                    self.system.gpu, stage.resources, stage.occupancy
                ),
            )
        timing = compute_stage_timing(
            stage,
            self.system,
            mem,
            share,
            self.options.line_bytes,
            fault_service_s=fault_service,
        )
        end = start + timing.duration_s
        if fault_service > 0.0:
            # The CPU is busy servicing faults while the kernel runs.
            busy[Component.CPU].append(Interval(start, start + fault_service))
            if self._tracing:
                self._emit(
                    SpanEvent(
                        category=SPAN_FAULT,
                        name=f"fault:{stage.name}",
                        component=Component.CPU.value,
                        start_s=start,
                        end_s=start + fault_service,
                        ordinal=ordinal,
                        args={"faults": fault_count},
                    )
                )
        if self._tracing:
            self._emit(
                SpanEvent(
                    category=SPAN_STAGE,
                    name=stage.name,
                    component=component.value,
                    start_s=start,
                    end_s=end,
                    ordinal=ordinal,
                    args={"kind": stage.kind.value, "logical": stage.logical_name},
                )
            )
            if mem.offchip_reads:
                self._emit(
                    CounterEvent(
                        name=CTR_DRAM_READS,
                        component=component.value,
                        t_s=start,
                        value=mem.offchip_reads,
                        ordinal=ordinal,
                        source=SRC_STAGE,
                    )
                )
            if mem.offchip_writes:
                self._emit(
                    CounterEvent(
                        name=CTR_DRAM_WRITES,
                        component=component.value,
                        t_s=end,
                        value=mem.offchip_writes,
                        ordinal=ordinal,
                        source=SRC_STAGE,
                    )
                )
            if mem.onchip_transfers:
                self._emit(
                    CounterEvent(
                        name=CTR_ONCHIP_TRANSFERS,
                        component=component.value,
                        t_s=start,
                        value=mem.onchip_transfers,
                        ordinal=ordinal,
                    )
                )
            if zeroed_count:
                self._emit(
                    CounterEvent(
                        name=CTR_DRAM_WRITES,
                        component=Component.CPU.value,
                        t_s=start,
                        value=zeroed_count,
                        ordinal=ordinal,
                        source=SRC_ZERO,
                    )
                )
        return StageRecord(
            name=stage.name,
            logical=stage.logical_name,
            kind=stage.kind,
            component=component,
            ordinal=ordinal,
            start_s=start,
            end_s=end,
            timing=timing,
            requests=mem.requests,
            offchip_reads=mem.offchip_reads,
            offchip_writes=mem.offchip_writes,
            onchip_transfers=mem.onchip_transfers,
            faults=fault_count,
            flops=stage.flops,
        )

    def _refine_bandwidth(self, share, component, mem, ordinal=-1, t_s=0.0):
        """Apply the optional row-buffer DRAM efficiency refinement.

        Also a tracing hook point: the bandwidth share each compute stage
        is granted (refined or not) is emitted as a ``bw.share`` counter.
        """
        refined = share
        if self.options.dram_row_model and (
            mem.offchip_blocks is not None and len(mem.offchip_blocks)
        ):
            from repro.sim.dram import BandwidthShare
            from repro.sim.dram_row import stream_efficiency

            pool = self.memory.pool_of(component)
            ratio = (
                stream_efficiency(
                    mem.offchip_blocks, line_bytes=self.options.line_bytes
                )
                / pool.efficiency
            )
            refined = BandwidthShare(
                pool=share.pool, bytes_per_second=share.bytes_per_second * ratio
            )
        if self._tracing:
            self._emit(
                CounterEvent(
                    name=CTR_BW_SHARE,
                    component=component.value,
                    t_s=t_s,
                    value=refined.bytes_per_second,
                    ordinal=ordinal,
                    args={"pool": refined.pool, "raw": share.bytes_per_second},
                )
            )
        return refined

    def _drain_caches(self, ordinal: int, roi_s: float = 0.0) -> None:
        """Flush dirty lines at ROI end so final writes reach the log.

        One memory step, keyed purely by cache state; its outputs are the
        per-cache writeback arrays, so trace events are emitted live from
        them.  Tracing hook point: each cache's drain volume is emitted as a
        ``dram.writes`` counter with source ``drain`` at ``t == roi_s``.
        """
        caches = self._all_caches()
        components = (Component.CPU, Component.CPU, Component.GPU, Component.GPU)

        def live() -> tuple:
            written_per_cache = []
            for cache, comp in zip(caches, components):
                arr = np.asarray(cache.drain(), dtype=np.int64)
                if len(arr):
                    self.caches.log.append(
                        arr, np.ones(len(arr), dtype=bool), ordinal, comp
                    )
                written_per_cache.append(arr)
            return tuple(written_per_cache)

        written_per_cache, _ = run_step(
            self.stage_memo,
            lambda: self._memo_key(("drain",), self._stream_key(None, None), caches),
            caches,
            self.caches.log,
            ordinal,
            live,
        )
        if self._tracing:
            for cache, comp, written in zip(caches, components, written_per_cache):
                if len(written):
                    self._emit(
                        CounterEvent(
                            name=CTR_DRAM_WRITES,
                            component=comp.value,
                            t_s=roi_s,
                            value=len(written),
                            ordinal=ordinal,
                            source=SRC_DRAIN,
                            args={"cache": cache.name},
                        )
                    )


def simulate(
    pipeline: Pipeline,
    system: SystemConfig,
    options: Optional[SimOptions] = None,
    sinks: Sequence[TraceSink] = (),
) -> SimResult:
    """Simulate ``pipeline`` on ``system``; the library's main entry point.

    ``sinks`` attaches trace sinks from :mod:`repro.sim.observe`
    (recorders, exporters, the invariant monitor); tracing is
    observation-only and the default (no sinks) adds no overhead.
    """
    return Engine(pipeline, system, options or SimOptions(), sinks=sinks).run()
