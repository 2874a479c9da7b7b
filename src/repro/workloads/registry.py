"""Registry of all 58 benchmarks across the four suites."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.workloads.spec import BenchmarkSpec
from repro.workloads.suites import lonestar, pannotia, parboil, rodinia

SUITES: Tuple[str, ...] = ("lonestar", "pannotia", "parboil", "rodinia")

_SUITE_MODULES = {
    "lonestar": lonestar,
    "pannotia": pannotia,
    "parboil": parboil,
    "rodinia": rodinia,
}


def _build_registry() -> Dict[str, BenchmarkSpec]:
    registry: Dict[str, BenchmarkSpec] = {}
    for suite in SUITES:
        for spec in _SUITE_MODULES[suite].specs():
            if spec.suite != suite:
                raise ValueError(
                    f"spec {spec.full_name!r} registered under suite {suite!r}"
                )
            if spec.full_name in registry:
                raise ValueError(f"duplicate benchmark {spec.full_name!r}")
            registry[spec.full_name] = spec
    return registry


_REGISTRY = _build_registry()


def all_specs() -> Tuple[BenchmarkSpec, ...]:
    """Every benchmark of the four suites (58 total; Table II universe)."""
    return tuple(_REGISTRY.values())


def simulatable_specs() -> Tuple[BenchmarkSpec, ...]:
    """The 46 benchmarks the study simulates."""
    return tuple(spec for spec in _REGISTRY.values() if spec.simulatable)


def suite_specs(suite: str) -> Tuple[BenchmarkSpec, ...]:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {SUITES}")
    return tuple(spec for spec in _REGISTRY.values() if spec.suite == suite)


def get(full_name: str) -> BenchmarkSpec:
    """Look up a benchmark by ``suite/name`` (or bare name if unambiguous)."""
    if full_name in _REGISTRY:
        return _REGISTRY[full_name]
    matches = [s for s in _REGISTRY.values() if s.name == full_name]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise KeyError(f"no benchmark named {full_name!r}")
    options = ", ".join(sorted(m.full_name for m in matches))
    raise KeyError(f"ambiguous benchmark {full_name!r}; did you mean: {options}")
