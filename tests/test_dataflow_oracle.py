"""Differential tests: the indexed liveness queries of
:class:`~repro.analysis.dataflow.absint.DataflowAnalysis` against a
plain-Python oracle that rescans every stage for every query.

``DataflowAnalysis`` indexes each buffer's writers and readers once and
memoizes ``observers_of_write``; the oracle below is the unindexed
definition.  Both must report the same observers, the same dead regions
and the same RPL3xx findings on generated pipelines, their transformed
forms and the lint fixtures.
"""

from functools import reduce
from typing import List, Optional, Tuple
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dataflow import rules
from repro.analysis.dataflow.absint import DataflowAnalysis
from repro.analysis.dataflow.lattice import _EPS, WIDEN_LIMIT, IntervalSet
from repro.pipeline.buffers import Buffer
from repro.pipeline.graph import Pipeline
from repro.pipeline.stage import BufferAccess, Region, Stage, StageKind
from repro.pipeline.transforms import fission_async_streams, remove_copies
from repro.units import MB
from tests.test_analysis_fixtures import FIXTURE_PATHS, load_fixture
from tests.test_prop_fixes import fixable_pipelines
from tests.test_prop_lint import copy_pipelines


class ScanEveryStage(DataflowAnalysis):
    """The liveness queries without indexes or memo: every query walks
    every stage of the pipeline."""

    def observers_of_write(
        self, writer: str, access: BufferAccess
    ) -> List[Tuple[str, IntervalSet]]:
        buffer = access.buffer
        written = IntervalSet.from_region(access.region)
        observers: List[Tuple[str, IntervalSet]] = []
        for reader in self.pipeline.stages:
            if reader.name == writer:
                continue
            read_parts = [
                IntervalSet.from_region(a.region)
                for a in reader.reads
                if a.buffer == buffer
            ]
            if not read_parts:
                continue
            read_set = IntervalSet()
            for part in read_parts:
                read_set = read_set.union(part)
            if writer in self.hb.ancestors(reader.name):
                visible = written.subtract(
                    self._kills_between(writer, reader.name, buffer)
                )
            elif self.hb.concurrent(writer, reader.name):
                visible = written
            else:
                continue
            part = visible.intersect(read_set)
            if not part.is_empty:
                observers.append((reader.name, part))
        if buffer in self._outputs:
            final = written.subtract(self._kills_between(writer, None, buffer))
            if not final.is_empty:
                observers.append(("<output>", final))
        return observers

    def _kills_between(
        self, writer: str, reader: Optional[str], buffer: str
    ) -> IntervalSet:
        killed = IntervalSet()
        for stage in self.pipeline.stages:
            if stage.name in (writer, reader):
                continue
            if writer not in self.hb.ancestors(stage.name):
                continue
            if reader is not None and stage.name not in self.hb.ancestors(reader):
                continue
            for access in stage.writes:
                if access.buffer == buffer:
                    killed = killed.union(IntervalSet.from_region(access.region))
        return killed.widen()


def assert_matches_oracle(pipeline: Pipeline) -> None:
    indexed = DataflowAnalysis(pipeline)
    oracle = ScanEveryStage(pipeline)
    for stage in pipeline.stages:
        for access in stage.writes:
            expected = oracle.observers_of_write(stage.name, access)
            assert indexed.observers_of_write(stage.name, access) == expected
            # A second (memoized) answer is the same, whatever the caller
            # did to the first one.
            indexed.observers_of_write(stage.name, access).append(("x", None))
            assert indexed.observers_of_write(stage.name, access) == expected
            assert indexed.dead_region(stage.name, access) == oracle.dead_region(
                stage.name, access
            )
    findings = rules.check_dataflow_family(pipeline, opportunities=True)
    with mock.patch.object(rules, "DataflowAnalysis", ScanEveryStage):
        expected_findings = rules.check_dataflow_family(
            pipeline, opportunities=True
        )
    assert findings == expected_findings


_POINTS = (0.0, 0.125, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0)
_COMPUTE_KINDS = (StageKind.CPU, StageKind.GPU_KERNEL)


def _two_distinct(values):
    return st.lists(st.sampled_from(values), min_size=2, max_size=2, unique=True)


@st.composite
def regions(draw):
    start, end = sorted(draw(_two_distinct(_POINTS)))
    return Region(start, end)


@st.composite
def region_dags(draw):
    """Stages over three buffers with partial-region reads and writes,
    random dependences and copies, listed in a shuffled (non-topological)
    order so the indexes cannot lean on either order."""
    buffers = ("a", "b", "c")
    access = st.builds(BufferAccess, st.sampled_from(buffers), region=regions())
    stages: List[Stage] = []
    for i in range(draw(st.integers(2, 9))):
        deps = tuple(
            draw(st.lists(st.sampled_from([s.name for s in stages]), unique=True))
            if stages
            else ()
        )
        if draw(st.booleans()) and i:
            src, dst = draw(_two_distinct(buffers))
            stages.append(
                Stage(
                    name=f"copy{i}",
                    kind=StageKind.COPY,
                    reads=(BufferAccess(src, region=draw(regions())),),
                    writes=(BufferAccess(dst, region=draw(regions())),),
                    depends_on=deps,
                    src=src,
                    dst=dst,
                )
            )
        else:
            stages.append(
                Stage(
                    name=f"s{i}",
                    kind=draw(st.sampled_from(_COMPUTE_KINDS)),
                    flops=float(draw(st.integers(0, 10))),
                    reads=tuple(draw(st.lists(access, max_size=3))),
                    writes=tuple(draw(st.lists(access, max_size=3))),
                    depends_on=deps,
                )
            )
    outputs = tuple(draw(st.lists(st.sampled_from(buffers), unique=True)))
    return Pipeline(
        name="prop/regions",
        buffers={name: Buffer(name=name, size_bytes=1 * MB) for name in buffers},
        stages=tuple(draw(st.permutations(stages))),
        metadata={"outputs": outputs},
    )


@given(
    pipeline=st.one_of(copy_pipelines(), fixable_pipelines()),
    streams=st.integers(2, 6),
)
@settings(max_examples=60, deadline=None)
def test_indexed_liveness_matches_oracle_on_transformed_pipelines(
    pipeline, streams
):
    assert_matches_oracle(pipeline)
    assert_matches_oracle(remove_copies(pipeline))
    assert_matches_oracle(fission_async_streams(pipeline, streams))


@given(pipeline=region_dags())
@settings(max_examples=200, deadline=None)
def test_indexed_liveness_matches_oracle_on_region_dags(pipeline):
    assert_matches_oracle(pipeline)


def test_indexed_liveness_matches_oracle_on_lint_fixtures():
    for path in FIXTURE_PATHS:
        pipeline, _spec = load_fixture(path).build()
        assert_matches_oracle(pipeline)


def test_widened_kills_match_oracle():
    """More disjoint overwrites than ``WIDEN_LIMIT`` between a write and
    its reader: the killed set widens to its hull, so the reader observes
    only the bytes past the last stripe."""
    stripes = WIDEN_LIMIT + 1
    width = 1 / (2 * stripes + 2)
    fill = Stage("fill", StageKind.CPU, writes=(BufferAccess("a"),))
    overwrites = [
        Stage(
            f"w{k}",
            StageKind.CPU,
            writes=(
                BufferAccess("a", region=Region(2 * k * width, (2 * k + 1) * width)),
            ),
            depends_on=("fill",),
        )
        for k in range(stripes)
    ]
    read = Stage(
        "read",
        StageKind.CPU,
        reads=(BufferAccess("a"),),
        depends_on=tuple(s.name for s in overwrites),
    )
    pipeline = Pipeline(
        name="prop/stripes",
        buffers={"a": Buffer(name="a", size_bytes=1 * MB)},
        stages=(read, fill, *overwrites),
    )
    assert_matches_oracle(pipeline)
    ((observer, part),) = DataflowAnalysis(pipeline).observers_of_write(
        "fill", fill.writes[0]
    )
    assert observer == "read"
    assert part.intervals == (((2 * stripes - 1) * width, 1.0),)


# -- IntervalSet.union_all ----------------------------------------------------

#: Gaps between neighbouring intervals: overlapping, touching, within
#: ``_EPS`` (merged) and just past it (kept apart), or clearly apart.
_GAPS = (-_EPS, 0.0, _EPS / 2, _EPS, 1.5 * _EPS, 3 * _EPS, 0.125)
#: Widths, including ones at or under ``_EPS`` that canonical form drops.
_WIDTHS = (_EPS / 2, 2 * _EPS, 0.01, 0.1, 0.25)


@st.composite
def interval_set_lists(draw):
    """A chain of intervals with boundary-case gaps, dealt out over up to
    six parts; a part is canonical, or raw like a region's single
    interval."""
    pairs = []
    lo = draw(st.floats(0.0, 0.5))
    for _ in range(draw(st.integers(0, 8))):
        hi = lo + draw(st.sampled_from(_WIDTHS))
        pairs.append((lo, hi))
        lo = hi + draw(st.sampled_from(_GAPS))
    n_parts = draw(st.integers(1, 6))
    owners = draw(
        st.lists(
            st.integers(0, n_parts - 1), min_size=len(pairs), max_size=len(pairs)
        )
    )
    parts = []
    for k in range(n_parts):
        mine = [pair for pair, owner in zip(pairs, owners) if owner == k]
        if len(mine) == 1 and draw(st.booleans()):
            parts.append(IntervalSet(tuple(mine)))
        else:
            parts.append(IntervalSet.from_pairs(mine))
    return parts


@given(parts=interval_set_lists())
@settings(max_examples=300, deadline=None)
def test_union_all_equals_left_fold_of_union(parts):
    folded = reduce(IntervalSet.union, parts, IntervalSet())
    assert IntervalSet.union_all(parts) == folded
    assert IntervalSet.union_all(iter(parts)) == folded
