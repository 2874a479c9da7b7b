"""Request schemas of the serve API: validation, content hashing, errors.

Every response body the server emits carries a ``schema`` tag so clients
can detect drift:

* ``repro.serve.job/v2`` — job descriptions (submit responses, status
  polls, the job list).
* ``repro.serve.error/v1`` — every 4xx/5xx body.  Malformed bodies,
  unknown benchmarks, and lint-rejected pipelines map to *distinct*
  status/code pairs (the golden fixtures under ``tests/fixtures/serve/``
  pin the exact shapes):

  ==========================  ======  =======================
  condition                   status  ``code``
  ==========================  ======  =======================
  unparseable JSON body       400     ``bad-json``
  wrong shape / bad values    400     ``invalid-job``
  benchmark not registered    404     ``unknown-benchmark``
  benchmark not simulatable   422     ``not-simulatable``
  lint preflight errors       422     ``lint-rejected``
  unknown job id              404     ``unknown-job``
  unknown route               404     ``unknown-route``
  wrong method on a route     405     ``method-not-allowed``
  body too large              413     ``body-too-large``
  ==========================  ======  =======================

A validated job normalizes into a :class:`JobSpec` whose
:meth:`~JobSpec.content_hash` is the dedup key: the SHA-256 of the
canonical JSON of everything that determines the job's *result* —
mirroring :func:`repro.sim.resultcache.cache_key`, the ``engine`` and
``stage_memo`` knobs are excluded (they select bit-identical execution
strategies), so identical jobs coalesce regardless of the impl requested.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import Severity, lint_pipeline_memoized
from repro.pipeline.transforms import remove_copies
from repro.sim.engine import ENGINE_VERSION
from repro.workloads import registry

#: Schema tags of the serve wire format.
ERROR_SCHEMA = "repro.serve.error/v1"
JOB_SCHEMA = "repro.serve.job/v2"
HEALTH_SCHEMA = "repro.serve.health/v1"
CACHE_SCHEMA = "repro.serve.cache/v1"
METRICS_SCHEMA = "repro.serve.metrics/v2"

#: Job kinds the service accepts.
KIND_SIMULATE = "simulate"
KIND_SWEEP = "sweep"
KIND_ADVISE = "advise"
KINDS = (KIND_SIMULATE, KIND_SWEEP, KIND_ADVISE)

#: Sweep versions (mirrors repro.experiments.parallel).
VERSION_COPY = "copy"
VERSION_LIMITED = "limited-copy"
VERSIONS = (VERSION_COPY, VERSION_LIMITED)

#: Fields a job body may carry; anything else is rejected so typos fail
#: loudly instead of silently running a default sweep.
_ALLOWED_FIELDS = frozenset(
    {
        "kind",
        "benchmark",
        "benchmarks",
        "version",
        "scale",
        "seed",
        "engine",
        "stage_memo",
    }
)

_ENGINES = ("reference", "fast")
_STAGE_MEMO = ("auto", "on", "off")


def error_payload(
    code: str, message: str, detail: Optional[Any] = None
) -> Dict[str, Any]:
    """The stable error body every non-2xx response carries."""
    return {
        "schema": ERROR_SCHEMA,
        "code": code,
        "error": message,
        "detail": detail,
    }


class JobValidationError(Exception):
    """A rejected request, carrying its HTTP status and error body."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        detail: Optional[Any] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.detail = detail

    def payload(self) -> Dict[str, Any]:
        return error_payload(self.code, str(self), self.detail)


@dataclass(frozen=True)
class JobSpec:
    """A validated, normalized job: what the server will actually run.

    ``benchmarks`` holds full registry names, sorted and de-duplicated;
    ``versions`` is the subset of :data:`VERSIONS` the job covers (always
    both for sweep and advise jobs).
    """

    kind: str
    benchmarks: Tuple[str, ...]
    versions: Tuple[str, ...]
    scale: float
    seed: int
    engine: str = "fast"
    stage_memo: str = "auto"

    @property
    def runs(self) -> int:
        """How many (benchmark, version) simulations the job covers."""
        return len(self.benchmarks) * len(self.versions)

    def canonical(self) -> Dict[str, Any]:
        """The result-determining view: the content-hash input."""
        return {
            "schema": JOB_SCHEMA,
            "engine_version": ENGINE_VERSION,
            "kind": self.kind,
            "benchmarks": list(self.benchmarks),
            "versions": list(self.versions),
            "scale": self.scale,
            "seed": self.seed,
            # engine / stage_memo deliberately excluded: bit-identical
            # execution strategies must coalesce (see module docstring).
        }

    def content_hash(self) -> str:
        text = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "benchmarks": list(self.benchmarks),
            "versions": list(self.versions),
            "scale": self.scale,
            "seed": self.seed,
            "engine": self.engine,
            "stage_memo": self.stage_memo,
        }


def _invalid(message: str, detail: Optional[Any] = None) -> JobValidationError:
    return JobValidationError(400, "invalid-job", message, detail)


def _require_number(
    body: Dict[str, Any], field: str, default: float
) -> float:
    value = body.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(f"{field!r} must be a number, got {value!r}")
    return float(value)


def _require_choice(
    body: Dict[str, Any], field: str, choices: Tuple[str, ...], default: str
) -> str:
    value = body.get(field, default)
    if value not in choices:
        raise _invalid(
            f"{field!r} must be one of {', '.join(choices)}, got {value!r}"
        )
    return str(value)


def _resolve_benchmarks(body: Dict[str, Any], kind: str) -> Tuple[str, ...]:
    """Benchmark names a job covers, resolved against the registry."""
    if kind == KIND_SWEEP:
        if "benchmark" in body:
            raise _invalid(
                "sweep jobs take a 'benchmarks' list, not 'benchmark'"
            )
        names = body.get("benchmarks")
        if names is None:
            return tuple(
                sorted(s.full_name for s in registry.simulatable_specs())
            )
        if not isinstance(names, list) or not names:
            raise _invalid("'benchmarks' must be a non-empty list of names")
    else:
        if "benchmarks" in body:
            raise _invalid(
                f"{kind} jobs take a single 'benchmark', not 'benchmarks'"
            )
        name = body.get("benchmark")
        if name is None:
            raise _invalid(f"{kind} jobs need a 'benchmark' name")
        names = [name]
    resolved: List[str] = []
    for name in names:
        if not isinstance(name, str):
            raise _invalid(f"benchmark names must be strings, got {name!r}")
        try:
            spec = registry.get(name)
        except KeyError:
            raise JobValidationError(
                404,
                "unknown-benchmark",
                f"unknown benchmark {name!r}",
                {"benchmark": name},
            ) from None
        if not spec.simulatable:
            raise JobValidationError(
                422,
                "not-simulatable",
                f"{spec.full_name} has no pipeline model",
                {"benchmark": spec.full_name},
            )
        if spec.full_name not in resolved:
            resolved.append(spec.full_name)
    return tuple(sorted(resolved))


def _lint_preflight(spec_names: Tuple[str, ...], versions: Tuple[str, ...]) -> None:
    """Reject jobs whose pipelines carry error-level lint findings.

    Reuses the ``repro lint`` rule set through the process-wide
    content-hash memo, so repeated submissions of the same benchmarks
    lint each distinct pipeline once per server process.
    """
    findings: List[Dict[str, Any]] = []
    for name in spec_names:
        spec = registry.get(name)
        pipeline = spec.pipeline()
        for version in versions:
            shaped = pipeline
            if version == VERSION_LIMITED:
                limited = remove_copies(pipeline)
                shaped = limited.with_stages(
                    limited.stages, name=f"{pipeline.name} [limited-copy]"
                )
            report = lint_pipeline_memoized(shaped, spec)
            for diag in report.at_least(Severity.ERROR):
                findings.append(
                    {
                        "rule": diag.rule,
                        "severity": diag.severity.value,
                        "pipeline": diag.pipeline,
                        "stage": diag.stage,
                        "buffer": diag.buffer,
                        "message": diag.message,
                    }
                )
    if findings:
        findings.sort(key=lambda f: (f["pipeline"], f["rule"], f["message"]))
        raise JobValidationError(
            422,
            "lint-rejected",
            f"pipeline lint failed: {len(findings)} error-level finding(s)",
            {"findings": findings},
        )


def validate_job(
    body: Any, *, lint: bool = True, default_scale: float = 1.0
) -> JobSpec:
    """Validate and normalize one submitted job body.

    Raises :class:`JobValidationError` with the proper HTTP status and
    stable error code on any problem; returns the normalized
    :class:`JobSpec` otherwise.  ``lint`` runs the ``repro lint``
    preflight over every pipeline the job would simulate (registered
    benchmarks always pass — the registry is lint-clean by CI — but
    user-extended registries are not).
    """
    if not isinstance(body, dict):
        raise _invalid(
            f"job body must be a JSON object, got {type(body).__name__}"
        )
    unknown = sorted(set(body) - _ALLOWED_FIELDS)
    if unknown:
        raise _invalid(
            f"unknown field(s): {', '.join(unknown)}",
            {"unknown_fields": unknown},
        )
    kind = body.get("kind")
    if kind not in KINDS:
        raise _invalid(
            f"'kind' must be one of {', '.join(KINDS)}, got {kind!r}"
        )

    benchmarks = _resolve_benchmarks(body, kind)

    if kind == KIND_SIMULATE:
        version = body.get("version", "both")
        if version == "both":
            versions: Tuple[str, ...] = VERSIONS
        elif version in VERSIONS:
            versions = (version,)
        else:
            raise _invalid(
                f"'version' must be copy, limited-copy, or both, "
                f"got {version!r}"
            )
    else:
        if "version" in body:
            raise _invalid(f"{kind} jobs always run both versions")
        versions = VERSIONS

    scale = _require_number(body, "scale", default_scale)
    if scale <= 0:
        raise _invalid(f"'scale' must be positive, got {scale}")
    seed = body.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise _invalid(f"'seed' must be an integer, got {seed!r}")
    engine = _require_choice(body, "engine", _ENGINES, "fast")
    stage_memo = _require_choice(body, "stage_memo", _STAGE_MEMO, "auto")

    if lint:
        _lint_preflight(benchmarks, versions)

    return JobSpec(
        kind=kind,
        benchmarks=benchmarks,
        versions=versions,
        scale=scale,
        seed=seed,
        engine=engine,
        stage_memo=stage_memo,
    )
