"""Serve request validation: normalization, content hashing, 4xx shapes.

Every rejection class maps to a distinct (status, code) pair and a stable
JSON error body — the golden fixtures under ``tests/fixtures/serve/`` pin
the exact payloads so a refactor cannot silently change what clients see.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.serve.schemas import (
    ERROR_SCHEMA,
    VERSIONS,
    JobSpec,
    JobValidationError,
    validate_job,
)
from repro.workloads import registry
from repro.workloads.spec import BenchmarkSpec

KMEANS = "rodinia/kmeans"
BFS = "lonestar/bfs"
#: Registered in Table II but carrying no pipeline model.
NOT_SIMULATABLE = "lonestar/bfs_atomic"


def _validate(body, **kwargs):
    kwargs.setdefault("lint", False)  # preflight covered separately below
    return validate_job(body, **kwargs)


def _rejection(body, **kwargs) -> JobValidationError:
    with pytest.raises(JobValidationError) as excinfo:
        _validate(body, **kwargs)
    return excinfo.value


class TestNormalization:
    def test_minimal_sweep(self):
        spec = _validate({"kind": "sweep", "benchmarks": [KMEANS]})
        assert spec.kind == "sweep"
        assert spec.benchmarks == (KMEANS,)
        assert spec.versions == VERSIONS
        assert spec.scale == 1.0  # the default_scale default
        assert spec.seed == 0
        assert spec.runs == 2

    def test_default_scale_flows_through(self):
        spec = _validate(
            {"kind": "sweep", "benchmarks": [KMEANS]}, default_scale=1 / 64
        )
        assert spec.scale == 1 / 64

    def test_sweep_without_benchmarks_covers_all_simulatable(self):
        spec = _validate({"kind": "sweep"})
        expected = sorted(s.full_name for s in registry.simulatable_specs())
        assert list(spec.benchmarks) == expected
        assert spec.runs == 2 * len(expected)

    def test_benchmarks_sorted_and_deduplicated(self):
        spec = _validate({"kind": "sweep", "benchmarks": [KMEANS, BFS, KMEANS]})
        assert spec.benchmarks == (BFS, KMEANS)

    def test_short_names_resolve(self):
        spec = _validate({"kind": "simulate", "benchmark": "kmeans"})
        assert spec.benchmarks == (KMEANS,)

    def test_simulate_single_version(self):
        spec = _validate(
            {"kind": "simulate", "benchmark": KMEANS, "version": "copy"}
        )
        assert spec.versions == ("copy",)
        assert spec.runs == 1

    def test_simulate_defaults_to_both_versions(self):
        spec = _validate({"kind": "simulate", "benchmark": KMEANS})
        assert spec.versions == VERSIONS

    def test_advise_always_both_versions(self):
        spec = _validate({"kind": "advise", "benchmark": KMEANS})
        assert spec.versions == VERSIONS


class TestContentHash:
    def body(self, **overrides):
        body = {"kind": "sweep", "benchmarks": [KMEANS, BFS], "seed": 3}
        body.update(overrides)
        return body

    def test_deterministic(self):
        a = _validate(self.body()).content_hash()
        b = _validate(self.body()).content_hash()
        assert a == b

    def test_benchmark_order_irrelevant(self):
        a = _validate(self.body(benchmarks=[KMEANS, BFS])).content_hash()
        b = _validate(self.body(benchmarks=[BFS, KMEANS])).content_hash()
        assert a == b

    def test_result_determining_fields_included(self):
        base = _validate(self.body()).content_hash()
        assert _validate(self.body(seed=4)).content_hash() != base
        assert _validate(self.body(scale=0.5)).content_hash() != base
        assert (
            _validate(self.body(benchmarks=[KMEANS])).content_hash() != base
        )

    def test_kind_included(self):
        sweep = _validate(
            {"kind": "sweep", "benchmarks": [KMEANS]}
        ).content_hash()
        advise = _validate(
            {"kind": "advise", "benchmark": KMEANS}
        ).content_hash()
        assert sweep != advise


class TestRejections:
    @pytest.mark.parametrize(
        "body",
        [
            None,
            [],
            "sweep",
            {"kind": "resimulate"},
            {},
            {"kind": "sweep", "benchmarks": [KMEANS], "scael": 0.5},
            {"kind": "sweep", "benchmark": KMEANS},
            {"kind": "simulate", "benchmarks": [KMEANS]},
            {"kind": "simulate"},
            {"kind": "advise"},
            {"kind": "sweep", "benchmarks": []},
            {"kind": "sweep", "benchmarks": KMEANS},
            {"kind": "sweep", "benchmarks": [7]},
            {"kind": "sweep", "benchmarks": [KMEANS], "scale": 0},
            {"kind": "sweep", "benchmarks": [KMEANS], "scale": "big"},
            {"kind": "sweep", "benchmarks": [KMEANS], "scale": True},
            {"kind": "sweep", "benchmarks": [KMEANS], "seed": 1.5},
            {"kind": "sweep", "benchmarks": [KMEANS], "seed": False},
            {"kind": "sweep", "benchmarks": [KMEANS], "engine": "turbo"},
            {"kind": "sweep", "benchmarks": [KMEANS], "stage_memo": "maybe"},
            {"kind": "simulate", "benchmark": KMEANS, "version": "v2"},
            {"kind": "sweep", "benchmarks": [KMEANS], "version": "copy"},
            {"kind": "advise", "benchmark": KMEANS, "version": "copy"},
            {"kind": "sweep", "benchmarks": [KMEANS], "scale": float("nan")},
            {"kind": "sweep", "benchmarks": [KMEANS], "scale": float("inf")},
        ],
        ids=lambda body: repr(body)[:48],
    )
    def test_invalid_job_is_400(self, body):
        error = _rejection(body)
        assert (error.status, error.code) == (400, "invalid-job")

    def test_engine_knobs_are_unknown_fields(self):
        """How a job is computed is no job field: the engine selectors of
        earlier job schemas are rejected like any typo."""
        for field, value in (("engine", "reference"), ("stage_memo", "off")):
            error = _rejection({"kind": "sweep", "benchmarks": [KMEANS], field: value})
            assert (error.status, error.code) == (400, "invalid-job")
            assert error.detail == {"unknown_fields": [field]}

    def test_unknown_benchmark_is_404(self):
        error = _rejection({"kind": "sweep", "benchmarks": ["rodinia/nope"]})
        assert (error.status, error.code) == (404, "unknown-benchmark")
        assert error.detail == {"benchmark": "rodinia/nope"}

    def test_not_simulatable_is_422(self):
        error = _rejection({"kind": "simulate", "benchmark": NOT_SIMULATABLE})
        assert (error.status, error.code) == (422, "not-simulatable")
        assert error.detail == {"benchmark": NOT_SIMULATABLE}

    def test_payload_shape(self):
        payload = _rejection({"kind": "sweep", "benchmark": KMEANS}).payload()
        assert sorted(payload) == ["code", "detail", "error", "schema"]
        assert payload["schema"] == ERROR_SCHEMA


def _install_lint_rejected_benchmark(monkeypatch) -> str:
    """Register a benchmark whose pipeline trips RPL001 at error level."""
    fixture = (
        Path(__file__).parent / "fixtures" / "lint" / "rpl001_raw.py"
    )
    module_spec = importlib.util.spec_from_file_location(
        "serve_lint_fixture", fixture
    )
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    spec = BenchmarkSpec(
        name="rpl001_raw",
        suite="fixture",
        description="RPL001 raw race (lint preflight test)",
        pc_comm=True,
        pipe_parallel=False,
        regular_pc=False,
        irregular=False,
        sw_queue=False,
        build=lambda: module.build()[0],
    )
    monkeypatch.setitem(registry._REGISTRY, spec.full_name, spec)
    return spec.full_name


class TestLintPreflight:
    def test_registered_benchmarks_pass(self):
        # The registry is lint-clean by CI; the preflight must agree.
        spec = validate_job(
            {"kind": "sweep", "benchmarks": [KMEANS, BFS]}, lint=True
        )
        assert spec.runs == 4

    def test_lint_rejected_is_422(self, monkeypatch):
        name = _install_lint_rejected_benchmark(monkeypatch)
        with pytest.raises(JobValidationError) as excinfo:
            validate_job({"kind": "simulate", "benchmark": name}, lint=True)
        error = excinfo.value
        assert (error.status, error.code) == (422, "lint-rejected")
        findings = error.detail["findings"]
        assert findings, "expected at least one error-level finding"
        assert any(f["rule"] == "RPL001" for f in findings)
        for finding in findings:
            assert sorted(finding) == [
                "buffer",
                "message",
                "pipeline",
                "rule",
                "severity",
                "stage",
            ]

    def test_lint_skippable(self, monkeypatch):
        name = _install_lint_rejected_benchmark(monkeypatch)
        spec = validate_job(
            {"kind": "simulate", "benchmark": name}, lint=False
        )
        assert spec.benchmarks == (name,)


class TestGoldenErrorPayloads:
    """The exact 4xx bodies clients parse, pinned as fixtures."""

    def test_invalid_job(self, golden_json):
        error = _rejection(
            {"kind": "sweep", "benchmarks": [KMEANS], "scael": 0.5, "sede": 1}
        )
        golden_json(
            "serve/invalid_job", {"status": error.status, **error.payload()}
        )

    def test_unknown_benchmark(self, golden_json):
        error = _rejection({"kind": "sweep", "benchmarks": ["rodinia/nope"]})
        golden_json(
            "serve/unknown_benchmark",
            {"status": error.status, **error.payload()},
        )

    def test_not_simulatable(self, golden_json):
        error = _rejection({"kind": "simulate", "benchmark": NOT_SIMULATABLE})
        golden_json(
            "serve/not_simulatable",
            {"status": error.status, **error.payload()},
        )

    def test_lint_rejected(self, golden_json, monkeypatch):
        name = _install_lint_rejected_benchmark(monkeypatch)
        with pytest.raises(JobValidationError) as excinfo:
            validate_job(
                {"kind": "simulate", "benchmark": name, "version": "copy"},
                lint=True,
            )
        error = excinfo.value
        golden_json(
            "serve/lint_rejected", {"status": error.status, **error.payload()}
        )


def test_jobspec_describe_round_trips_into_validate():
    spec = _validate(
        {"kind": "sweep", "benchmarks": [KMEANS], "scale": 0.25, "seed": 9}
    )
    body = spec.describe()
    body.pop("versions")  # sweep bodies never carry versions
    assert _validate(body) == spec


def test_jobspec_is_frozen():
    spec = JobSpec(
        kind="sweep",
        benchmarks=(KMEANS,),
        versions=VERSIONS,
        scale=1.0,
        seed=0,
    )
    with pytest.raises(AttributeError):
        spec.scale = 2.0
