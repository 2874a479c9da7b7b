"""The region-based abstract interpreter over pipeline stage DAGs.

:class:`DataflowAnalysis` computes, in one forward pass over the
topological order (the fixpoint of a DAG dataflow problem — no cycles, so
one pass converges; widening bounds the lattice state):

* **Reaching definitions** with interval precision: at each stage, for
  each buffer, the set of *(writer, region)* facts that may be visible.
  A write definitely kills the overlapped part of earlier defs along
  paths through the writing stage; joins at merge points keep both sides
  (may-reach semantics).  Chunk-lane widening collapses per-writer
  regions past :data:`~repro.analysis.dataflow.lattice.WIDEN_LIMIT`
  intervals and groups chunk-product writers by their logical (parent)
  stage when the writer set itself grows too wide.
* **Observable liveness**: which later stages can observe each written
  region, accounting for definite overwrites in between (a write by
  ``K`` with ``W ≺ K ≺ R`` hides ``W``'s bytes from ``R`` wherever the
  regions overlap, because the DAG orders ``K``'s write between them on
  every schedule).  Declared outputs (``metadata["outputs"]``) keep a
  write's un-overwritten tail live forever.  Reads *concurrent* with the
  write are conservatively treated as observers — the hazard rules own
  that race, dead-code facts must not.
* **Copy-chain provenance**: for every copy stage, the chain of copies
  that produced its source bytes, walked through single-writer reaching
  definitions.
* **Redundant serialization edges**: ``depends_on`` edges that carry no
  dataflow and whose removal makes previously ordered stage pairs
  concurrent without introducing any overlapping-access conflict.
* **Stage footprints**: approximate unique-byte traffic per stage
  (region span x buffer size x touch fraction x passes) and the derived
  flop/byte ratio that flags migration candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.happens import HappensBefore
from repro.analysis.dataflow.lattice import (
    EMPTY_SET,
    WIDEN_LIMIT,
    IntervalSet,
)
from repro.pipeline.graph import Pipeline
from repro.pipeline.stage import BufferAccess, Region, Stage, StageKind

#: Sentinel writer name used when widening collapses too many distinct
#: writers of one buffer into a single may-reach fact.  Provenance queries
#: treat it as "unknown origin" and stop walking.
MANY_WRITERS = "<widened>"


@dataclass(frozen=True)
class RegionWrite:
    """One may-reach definition: ``writer`` wrote ``region`` of ``buffer``."""

    writer: str
    buffer: str
    region: IntervalSet


@dataclass(frozen=True)
class StageFootprint:
    """Approximate unique-byte traffic of one stage."""

    stage: str
    read_bytes: float
    write_bytes: float
    flops: float

    @property
    def total_bytes(self) -> float:
        return self.read_bytes + self.write_bytes

    @property
    def flop_per_byte(self) -> float:
        """Arithmetic intensity; ``inf`` for stages that touch no bytes."""
        if self.total_bytes <= 0.0:
            return float("inf")
        return self.flops / self.total_bytes


@dataclass(frozen=True)
class SerializationEdge:
    """A ``depends_on`` edge that orders stages without protecting data.

    The direct pair ``(src, dst)`` touches no common bytes, so the edge
    exists only to serialize — the bulk-synchronous idiom the paper's
    Section V-A calls out as the obstacle to copy/compute overlap.

    Attributes:
        src / dst: the edge ``src -> dst`` (``dst`` depends on ``src``).
        freed_pairs: stage pairs that become concurrent when the edge is
            dropped (always includes ``(src, dst)``).
        removal_safe: True when *every* freed pair is conflict-free, i.e.
            the edge can simply be deleted; False when some downstream
            pair relied on the edge's transitivity for protection, so
            exploiting the overlap needs re-wiring (e.g. chunking with
            per-chunk dependences) rather than plain removal.
        kinds: stage kinds of ``src`` and ``dst`` — a cross-kind pair
            means the edge blocks copy/compute (or CPU/GPU) overlap.
    """

    src: str
    dst: str
    freed_pairs: Tuple[Tuple[str, str], ...]
    removal_safe: bool
    kinds: FrozenSet[StageKind]

    @property
    def crosses_components(self) -> bool:
        return len(self.kinds) > 1


def _access_set(access: BufferAccess) -> IntervalSet:
    return IntervalSet.from_region(access.region)


def _conflicting(a: Stage, b: Stage) -> bool:
    """Whether two stages have any overlapping access with a write."""
    for first, second in ((a, b), (b, a)):
        for w in first.writes:
            targets = second.reads + second.writes
            for acc in targets:
                if acc.buffer == w.buffer and _access_set(w).overlaps(
                    _access_set(acc)
                ):
                    return True
    return False


class DataflowAnalysis:
    """Region-lattice abstract interpretation of one pipeline."""

    def __init__(self, pipeline: Pipeline) -> None:
        self.pipeline = pipeline
        self.hb = HappensBefore(pipeline)
        self._order = pipeline.topological_order()
        self._by_name: Dict[str, Stage] = {s.name: s for s in pipeline.stages}
        self._outputs: Set[str] = set(
            pipeline.metadata.get("outputs", ()) or ()  # type: ignore[call-overload]
        )
        #: defs_in[stage][buffer] -> {writer: region} may-reach at entry.
        self._defs_in: Dict[str, Dict[str, Dict[str, IntervalSet]]] = {}
        self._run_reaching()
        #: buffer -> {stage: union of its writes / reads}, in
        #: ``pipeline.stages`` order, so a liveness query scans only the
        #: queried buffer's writers and readers.
        self._writes = _access_index(pipeline, write=True)
        self._reads = _access_index(pipeline, write=False)
        self._observers: Dict[
            Tuple[str, str, Region], List[Tuple[str, IntervalSet]]
        ] = {}

    # -- the forward fixpoint -------------------------------------------------

    def _join(
        self,
        states: List[Dict[str, Dict[str, IntervalSet]]],
    ) -> Dict[str, Dict[str, IntervalSet]]:
        merged: Dict[str, Dict[str, IntervalSet]] = {}
        for state in states:
            for buffer, writers in state.items():
                into = merged.setdefault(buffer, {})
                for writer, region in writers.items():
                    present = into.get(writer)
                    into[writer] = (
                        region if present is None else present.union(region)
                    )
        for buffer, writers in merged.items():
            for writer in list(writers):
                writers[writer] = writers[writer].widen()
            if len(writers) > WIDEN_LIMIT:
                merged[buffer] = self._widen_writers(writers)
        return merged

    def _widen_writers(
        self, writers: Dict[str, IntervalSet]
    ) -> Dict[str, IntervalSet]:
        """Chunk-lane widening of the writer set itself.

        First group chunk-product writers under their logical (parent)
        stage; if the set is still too wide, collapse everything into the
        :data:`MANY_WRITERS` sentinel (sound: the union region is kept).
        """
        grouped: Dict[str, IntervalSet] = {}
        for writer, region in writers.items():
            stage = self._by_name.get(writer)
            key = stage.logical_name if stage is not None else writer
            present = grouped.get(key)
            grouped[key] = region if present is None else present.union(region)
        if len(grouped) > WIDEN_LIMIT:
            return {MANY_WRITERS: IntervalSet.union_all(grouped.values()).hull()}
        return {key: region.widen() for key, region in grouped.items()}

    def _run_reaching(self) -> None:
        out: Dict[str, Dict[str, Dict[str, IntervalSet]]] = {}
        for stage in self._order:
            state = self._join([out[dep] for dep in stage.depends_on])
            self._defs_in[stage.name] = {
                buffer: dict(writers) for buffer, writers in state.items()
            }
            for access in stage.writes:
                written = _access_set(access)
                writers = state.setdefault(access.buffer, {})
                for writer in list(writers):
                    if writer == stage.name:
                        continue
                    remaining = writers[writer].subtract(written)
                    if remaining.is_empty:
                        del writers[writer]
                    else:
                        writers[writer] = remaining
                mine = writers.get(stage.name)
                writers[stage.name] = (
                    written if mine is None else mine.union(written)
                )
            out[stage.name] = state

    # -- queries --------------------------------------------------------------

    def defs_at(self, stage: str, buffer: str) -> Tuple[RegionWrite, ...]:
        """May-reach definitions of ``buffer`` visible at ``stage`` entry."""
        writers = self._defs_in.get(stage, {}).get(buffer, {})
        return tuple(
            RegionWrite(writer=w, buffer=buffer, region=r)
            for w, r in sorted(writers.items())
        )

    def sole_writer(self, stage: str, buffer: str, region: IntervalSet) -> Optional[str]:
        """The unique stage whose def covers ``region`` at ``stage``, if any."""
        covering = [
            d.writer
            for d in self.defs_at(stage, buffer)
            if d.region.covers(region)
        ]
        if len(covering) == 1 and covering[0] != MANY_WRITERS:
            return covering[0]
        return None

    def read_set(self, stage: Stage, buffer: str) -> IntervalSet:
        """Union of regions ``stage`` reads from ``buffer``."""
        return self._reads.get(buffer, {}).get(stage.name, EMPTY_SET)

    def write_set(self, stage: Stage, buffer: str) -> IntervalSet:
        """Union of regions ``stage`` writes to ``buffer``."""
        return self._writes.get(buffer, {}).get(stage.name, EMPTY_SET)

    def communicated_bytes(
        self, producer: Stage, consumer: Stage, buffer: str
    ) -> float:
        """Bytes the consumer reads out of the producer's writes to
        ``buffer`` — the hand-off volume of one producer-consumer edge.

        Weighted by the consumer's touch fractions: a sparse reader pulls
        only that share of the overlapped region through the caches.
        """
        size = self.pipeline.buffers[buffer].size_bytes
        written = self.write_set(producer, buffer)
        total = 0.0
        for access in consumer.reads:
            if access.buffer != buffer:
                continue
            part = written.intersect(_access_set(access))
            total += part.measure() * size * access.fraction
        return total

    # -- observable liveness --------------------------------------------------

    def observers_of_write(
        self, writer: str, access: BufferAccess
    ) -> List[Tuple[str, IntervalSet]]:
        """Stages (or the ``"<output>"`` sink) observing parts of a write.

        Each entry is ``(observer, part)``: the sub-region of ``access``
        that reaches ``observer`` un-overwritten.  An empty list means the
        write is dead — nothing the pipeline's outside can see depends on
        those bytes.  Memoized per (writer, buffer, region), so the defect
        rules share one computation.
        """
        key = (writer, access.buffer, access.region)
        observers = self._observers.get(key)
        if observers is None:
            observers = self._observers[key] = self._observe(writer, access)
        return list(observers)

    def _observe(
        self, writer: str, access: BufferAccess
    ) -> List[Tuple[str, IntervalSet]]:
        buffer = access.buffer
        written = _access_set(access)
        observers: List[Tuple[str, IntervalSet]] = []
        for reader, read_set in self._reads.get(buffer, {}).items():
            if reader == writer:
                continue
            if writer in self.hb.ancestors(reader):
                visible = written.subtract(
                    self._kills_between(writer, reader, buffer)
                )
            elif self.hb.concurrent(writer, reader):
                # A racy read may still observe the bytes; the hazard
                # rules flag the race, liveness stays conservative.
                visible = written
            else:
                continue  # reader precedes writer
            part = visible.intersect(read_set)
            if not part.is_empty:
                observers.append((reader, part))
        if buffer in self._outputs:
            final = written.subtract(self._kills_between(writer, None, buffer))
            if not final.is_empty:
                observers.append(("<output>", final))
        return observers

    def _kills_between(
        self, writer: str, reader: Optional[str], buffer: str
    ) -> IntervalSet:
        """Union of regions definitely overwritten after ``writer`` and
        (when given) before ``reader``."""
        before_reader = self.hb.ancestors(reader) if reader is not None else None
        killed = IntervalSet.union_all(
            written
            for stage, written in self._writes.get(buffer, {}).items()
            if stage != writer
            and stage != reader
            and writer in self.hb.ancestors(stage)
            and (before_reader is None or stage in before_reader)
        )
        return killed.widen()

    def dead_region(self, writer: str, access: BufferAccess) -> IntervalSet:
        """The sub-region of a write no observer can see."""
        live = IntervalSet.union_all(
            part for _observer, part in self.observers_of_write(writer, access)
        )
        return _access_set(access).subtract(live)

    # -- copy provenance ------------------------------------------------------

    def copy_chain(self, copy_name: str) -> Tuple[str, ...]:
        """The chain of copy stages feeding ``copy_name``, origin first.

        Walks single-writer reaching definitions backwards: when the bytes
        a copy reads were produced entirely by one earlier copy, the chain
        extends through it.  Stops at non-copy producers, multi-writer
        regions, or widened (unknown) provenance.
        """
        chain: List[str] = [copy_name]
        seen = {copy_name}
        current = self._by_name[copy_name]
        while True:
            if current.kind is not StageKind.COPY or current.src is None:
                break
            read_region = self.read_set(current, current.src)
            producer = self.sole_writer(current.name, current.src, read_region)
            if producer is None or producer in seen:
                break
            stage = self._by_name.get(producer)
            if stage is None or stage.kind is not StageKind.COPY:
                break
            chain.append(producer)
            seen.add(producer)
            current = stage
        chain.reverse()
        return tuple(chain)

    # -- redundant serialization edges ---------------------------------------

    def serialization_edges(self) -> List[SerializationEdge]:
        """Edges that serialize stages without any dataflow justification.

        An edge qualifies when its endpoints touch no common bytes and it
        is not transitively covered by another path (a covered edge frees
        no concurrency — it is plain redundancy, not serialization).
        """
        edges: List[SerializationEdge] = []
        for stage in self._order:
            for dep in stage.depends_on:
                src = self._by_name[dep]
                if _conflicting(src, stage):
                    continue
                freed = self._freed_pairs(dep, stage.name)
                if freed is None:
                    continue  # transitively covered
                safe = all(
                    not _conflicting(self._by_name[a], self._by_name[b])
                    for a, b in freed
                )
                edges.append(
                    SerializationEdge(
                        src=dep,
                        dst=stage.name,
                        freed_pairs=tuple(freed),
                        removal_safe=safe,
                        kinds=frozenset((src.kind, stage.kind)),
                    )
                )
        return edges

    def _freed_pairs(
        self, src: str, dst: str
    ) -> Optional[List[Tuple[str, str]]]:
        """Pairs un-ordered by dropping ``src -> dst``.

        Returns None when the edge is transitively covered (every pair
        stays ordered through another path) — dropping such an edge frees
        no concurrency.
        """
        ancestors = _closure_without_edge(self.pipeline, src, dst)
        if src in ancestors[dst]:
            return None  # transitively covered; no concurrency freed
        freed: List[Tuple[str, str]] = []
        for a in self._order:
            for b in self._order:
                if a.name >= b.name:
                    continue
                was_ordered = self.hb.ordered(a.name, b.name)
                now_ordered = (
                    a.name in ancestors[b.name] or b.name in ancestors[a.name]
                )
                if was_ordered and not now_ordered:
                    freed.append((a.name, b.name))
        return freed

    # -- footprints -----------------------------------------------------------

    def footprint(self, stage: Stage) -> StageFootprint:
        """Approximate unique-byte traffic and intensity of one stage."""
        sizes: Mapping[str, int] = {
            name: buf.size_bytes for name, buf in self.pipeline.buffers.items()
        }

        def traffic(accesses: Tuple[BufferAccess, ...]) -> float:
            total = 0.0
            for access in accesses:
                total += (
                    access.region.span
                    * sizes[access.buffer]
                    * access.fraction
                    * access.passes
                )
            return total

        return StageFootprint(
            stage=stage.name,
            read_bytes=traffic(stage.reads),
            write_bytes=traffic(stage.writes),
            flops=stage.flops,
        )

    def footprints(self) -> Dict[str, StageFootprint]:
        return {s.name: self.footprint(s) for s in self.pipeline.stages}


def _access_index(
    pipeline: Pipeline, write: bool
) -> Dict[str, Dict[str, IntervalSet]]:
    """buffer -> {stage: union of its writes (or reads)}, in stage order."""
    parts: Dict[str, Dict[str, List[IntervalSet]]] = {}
    for stage in pipeline.stages:
        for access in stage.writes if write else stage.reads:
            by_stage = parts.setdefault(access.buffer, {})
            by_stage.setdefault(stage.name, []).append(_access_set(access))
    return {
        buffer: {
            stage: IntervalSet.union_all(sets) for stage, sets in by_stage.items()
        }
        for buffer, by_stage in parts.items()
    }


def _closure_without_edge(
    pipeline: Pipeline, src: str, dst: str
) -> Dict[str, Set[str]]:
    """Ancestor closure with the direct edge ``src -> dst`` removed."""
    ancestors: Dict[str, Set[str]] = {}
    for stage in pipeline.topological_order():
        deps = [
            d
            for d in stage.depends_on
            if not (stage.name == dst and d == src)
        ]
        closure: Set[str] = set(deps)
        for dep in deps:
            closure.update(ancestors[dep])
        ancestors[stage.name] = closure
    return ancestors
