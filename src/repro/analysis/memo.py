"""Content-hash memoization of lint reports.

The sweep preflight, the memo's one program caller, lints 46 benchmarks
x 2 forms, and later sweeps in the process (scale sweeps, ``pair()``
loops over several runners) lint them again.  Linting is pure: the
report is a function of (pipeline, spec, opportunities) alone.
:class:`LintMemo` keys reports by a SHA-256 over the canonical JSON of
exactly those inputs — the same canonicalization the persistent result
cache uses — so identical pipelines are linted once per process.

The memo is in-memory only: lint runs in milliseconds, so the win is
skipping *re-analysis inside one process* (a scale sweep would otherwise
lint every pipeline once per scale), not surviving restarts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.analysis.diagnostics import LintReport
from repro.pipeline.graph import Pipeline
from repro.sim.resultcache import canonical, spec_fingerprint
from repro.workloads.spec import BenchmarkSpec


def pipeline_content_hash(
    pipeline: Pipeline,
    spec: Optional[BenchmarkSpec] = None,
    *,
    opportunities: bool = False,
) -> str:
    """Stable digest of everything a lint run's output depends on."""
    payload = {
        "pipeline": canonical(pipeline),
        "spec": spec_fingerprint(spec) if spec is not None else None,
        "opportunities": opportunities,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class LintMemo:
    """In-process cache of lint reports keyed by pipeline content hash."""

    hits: int = 0
    misses: int = 0
    _entries: Dict[str, LintReport] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def get_or_compute(
        self,
        pipeline: Pipeline,
        spec: Optional[BenchmarkSpec],
        opportunities: bool,
        compute: Callable[[], LintReport],
    ) -> LintReport:
        """Return the memoized report, computing and storing it on miss.

        Always hands back a fresh :class:`LintReport` copy: reports are
        mutable (callers merge them), and a shared instance would let one
        caller's merge pollute every later hit.
        """
        key = pipeline_content_hash(
            pipeline, spec, opportunities=opportunities
        )
        cached = self._entries.get(key)
        if cached is None:
            self.misses += 1
            cached = compute()
            self._entries[key] = cached
        else:
            self.hits += 1
        return LintReport(
            diagnostics=list(cached.diagnostics),
            pipelines=list(cached.pipelines),
        )


#: The process-wide memo of the sweep preflight; perfbench reads its
#: counters.  Tests that need isolation call :func:`reset_default_memo`.
_DEFAULT_MEMO = LintMemo()


def default_memo() -> LintMemo:
    return _DEFAULT_MEMO


def reset_default_memo() -> None:
    _DEFAULT_MEMO.clear()
