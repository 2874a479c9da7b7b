"""Memory footprint breakdown by component set (Section IV-A, Fig. 4).

The footprint is measured from the addresses of *all* memory requests made
by CPU cores, GPU cores, and the PCIe copy engine, partitioned into the
mutually exclusive subsets touched by each combination of components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro.sim.hierarchy import Component
from repro.sim.results import SimResult

ComponentSet = FrozenSet[Component]

#: Display order for the seven non-empty component combinations.
SUBSET_ORDER: Tuple[ComponentSet, ...] = (
    frozenset({Component.COPY}),
    frozenset({Component.COPY, Component.CPU}),
    frozenset({Component.COPY, Component.GPU}),
    frozenset({Component.COPY, Component.CPU, Component.GPU}),
    frozenset({Component.CPU}),
    frozenset({Component.GPU}),
    frozenset({Component.CPU, Component.GPU}),
)


def subset_label(subset: ComponentSet) -> str:
    names = sorted(comp.value for comp in subset)
    return "+".join(names) if names else "untouched"


@dataclass(frozen=True)
class FootprintBreakdown:
    """Bytes touched by each exclusive combination of components."""

    bytes_by_subset: Dict[ComponentSet, int]
    line_bytes: int

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_subset.values())

    def bytes_touched_by(self, component: Component) -> int:
        """Total bytes the component touched (across all subsets)."""
        return sum(
            size for subset, size in self.bytes_by_subset.items() if component in subset
        )

    def fraction(self, subset: ComponentSet) -> float:
        total = self.total_bytes
        return self.bytes_by_subset.get(subset, 0) / total if total else 0.0

    def normalized_to(self, baseline_total: int) -> Dict[ComponentSet, float]:
        """Per-subset fractions of a (different run's) total footprint —
        the left/right paired bars of Fig. 4."""
        if baseline_total <= 0:
            raise ValueError("baseline total must be positive")
        return {
            subset: size / baseline_total
            for subset, size in self.bytes_by_subset.items()
        }


def footprint_breakdown(result: SimResult) -> FootprintBreakdown:
    """Partition the touched footprint of one run by component combination."""
    blocks = result.footprint_blocks_by_subset()
    bytes_by_subset: Dict[ComponentSet, int] = {
        subset: blocks[subset] * result.line_bytes
        for subset in SUBSET_ORDER
        if subset in blocks
    }
    return FootprintBreakdown(bytes_by_subset=bytes_by_subset, line_bytes=result.line_bytes)
