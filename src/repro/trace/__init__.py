"""Trace layer: synthetic block-granularity access streams."""

from repro.trace.alignment import MISALIGN_EXTRA_PASSES, apply_misalignment
from repro.trace.generator import BufferLayout, StageTrace, TraceGenerator
from repro.trace.stream import AccessStream, concatenate, interleave, sorted_unique

__all__ = [
    "AccessStream",
    "BufferLayout",
    "MISALIGN_EXTRA_PASSES",
    "StageTrace",
    "TraceGenerator",
    "apply_misalignment",
    "concatenate",
    "interleave",
    "sorted_unique",
]
