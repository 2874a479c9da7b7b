"""Small statistical helpers shared by the experiment harnesses."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, TypeVar

K = TypeVar("K")


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports suite-level results this way.

    Zero or negative values are invalid (ratios are strictly positive).
    """
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalize(values: Mapping[K, float], baseline: float) -> Dict[K, float]:
    """Divide every value by ``baseline`` (Figs. 4-9 normalize to the
    copy-version baseline)."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return {key: value / baseline for key, value in values.items()}


def safe_ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    return numerator / denominator if denominator else default


def improvement(baseline: float, optimized: float) -> float:
    """Fractional run-time improvement: 0.37 == '37% faster than baseline'."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 1.0 - optimized / baseline
