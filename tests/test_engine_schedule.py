"""The engine's scheduler against the scan it replaced.

``Engine.run`` keeps a ready list that completions update and one busy
horizon per component.  The oracle here is the engine's first scheduler:
at every step it scans every pending stage for met dependencies and every
busy interval for the active set, O(stages²).  Over random small DAGs on
both systems — CPU, GPU and copy stages, device-launched kernels,
zero-flop and access-free stages, and launch latencies drawn so that
stages on different components become ready at the same time — both must
pick the same stages in the same order, at the same starts, with the same
active components.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.pipeline.buffers import Buffer
from repro.pipeline.graph import Pipeline
from repro.pipeline.patterns import AccessPattern
from repro.pipeline.stage import BufferAccess, Stage, StageKind
from repro.sim.engine import Engine, SimOptions
from repro.sim.hierarchy import Component
from repro.sim.results import Interval
from repro.units import KB

MAX_STAGES = 12
BUFFERS = {
    name: Buffer(name, size)
    for name, size in (("a", 64 * KB), ("b", 16 * KB), ("c", 4 * KB))
}
COMPONENT_OF_KIND = {
    StageKind.CPU: Component.CPU,
    StageKind.GPU_KERNEL: Component.GPU,
    StageKind.COPY: Component.COPY,
}
LATENCIES_S = (0.0, 8e-6, 20e-6)


class SpiedEngine(Engine):
    """Records each pick's stage, start, active set and the busy intervals
    recorded before it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.picks = []
        self.busy_before = []

    def _execute(self, stage, component, start, active, ordinal, busy, *rest):
        self.picks.append((stage.name, start, active))
        self.busy_before.append({c: list(ivs) for c, ivs in busy.intervals.items()})
        return super()._execute(stage, component, start, active, ordinal, busy, *rest)


def reference_schedule(engine, result):
    """The O(stages²) earliest-start scan and interval scan, replayed over
    the run's own stage ends and busy intervals.

    Returns the picks as (stage, start, active) and the launch slivers.
    """
    system = engine.system
    ends = {record.name: record.end_s for record in result.stages}
    pending = list(engine.pipeline.topological_order())
    completed = {}
    comp_free = {c: 0.0 for c in Component}
    picks, slivers = [], []
    for busy in engine.busy_before:
        best = None
        for idx, stage in enumerate(pending):
            if any(dep not in completed for dep in stage.depends_on):
                continue
            ready = max((completed[dep] for dep in stage.depends_on), default=0.0)
            component = COMPONENT_OF_KIND[stage.kind]
            if stage.kind is StageKind.CPU:
                start = max(ready, comp_free[component])
                launch_start = start
            elif stage.device_launched:
                launch_start = ready
                start = max(ready + system.device_launch_latency_s, comp_free[component])
            else:
                launch_start = ready
                start = max(ready + system.kernel_launch_latency_s, comp_free[component])
            key = (start, launch_start, idx)
            if best is None or key < best[0]:
                best = (key, stage)
        (start, launch_start, idx), stage = best
        pending.pop(idx)
        component = COMPONENT_OF_KIND[stage.kind]
        active = frozenset(
            comp
            for comp, intervals in busy.items()
            if any(iv.start <= start < iv.end for iv in intervals)
        )
        picks.append((stage.name, start, active))
        if stage.kind is not StageKind.CPU and not stage.device_launched:
            slivers.append(
                Interval(launch_start, launch_start + system.kernel_launch_latency_s)
            )
        completed[stage.name] = ends[stage.name]
        comp_free[component] = max(comp_free[component], ends[stage.name])
    assert not pending
    return picks, slivers


accesses = st.lists(
    st.builds(
        BufferAccess,
        st.sampled_from(sorted(BUFFERS)),
        st.sampled_from([AccessPattern.STREAMING, AccessPattern.RANDOM]),
    ),
    max_size=2,
)


@st.composite
def stages(draw, index):
    kind = draw(st.sampled_from(list(COMPONENT_OF_KIND)))
    depends_on = (
        draw(st.lists(st.integers(0, index - 1), unique=True, max_size=3))
        if index
        else []
    )
    fields = {"kind": kind, "depends_on": depends_on}
    if kind is StageKind.COPY:
        src, dst = draw(st.permutations(sorted(BUFFERS)))[:2]
        fields.update(
            src=src, dst=dst, reads=(BufferAccess(src),), writes=(BufferAccess(dst),)
        )
    else:
        fields.update(
            flops=draw(st.sampled_from([0.0, 1e4, 1e6])),
            reads=tuple(draw(accesses)),
            writes=tuple(draw(accesses)),
            device_launched=kind is StageKind.GPU_KERNEL and draw(st.booleans()),
        )
    return fields


@st.composite
def pipelines(draw):
    count = draw(st.integers(1, MAX_STAGES))
    specs = [draw(stages(index)) for index in range(count)]
    # Names in an order unrelated to the topological one, so a tie broken
    # by anything but position shows.
    names = [f"s{n:02d}" for n in draw(st.permutations(range(count)))]
    return Pipeline(
        name="test/schedule",
        buffers=BUFFERS,
        stages=tuple(
            Stage(
                name=names[index],
                **{**spec, "depends_on": tuple(names[d] for d in spec["depends_on"])},
            )
            for index, spec in enumerate(specs)
        ),
    )


# No example count: the loaded Hypothesis profile's (see conftest.py).
@settings(deadline=None)
@given(
    pipeline=pipelines(),
    system=st.sampled_from([discrete_gpu_system(), heterogeneous_processor()]),
    kernel_latency=st.sampled_from(LATENCIES_S),
    device_latency=st.sampled_from(LATENCIES_S),
)
def test_schedule_matches_the_scan(pipeline, system, kernel_latency, device_latency):
    system = replace(
        system,
        kernel_launch_latency_s=kernel_latency,
        device_launch_latency_s=device_latency,
    )
    engine = SpiedEngine(pipeline, system, SimOptions(seed=5), stage_memo=None)
    result = engine.run()
    picks, slivers = reference_schedule(engine, result)
    assert engine.picks == picks
    assert result.launch_intervals == slivers
