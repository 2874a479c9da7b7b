"""Tests for the static pipeline linter (repro.analysis)."""

import json

import pytest

from repro.analysis import (
    LINT_SCHEMA,
    HappensBefore,
    LintError,
    RULES,
    Severity,
    assert_lint_clean,
    derive_flags,
    lint_benchmark,
    lint_pipeline,
    lint_registry,
    render_json,
    render_text,
)
from repro.analysis.happens import regions_overlap
from repro.pipeline.builder import PipelineBuilder
from repro.pipeline.stage import BufferAccess, Region
from repro.pipeline.transforms import (
    fission_async_streams,
    migrate_compute,
    parallel_producer_consumer,
    remove_copies,
)
from repro.units import MB
from repro.workloads.registry import simulatable_specs
from repro.workloads.suites.rodinia import kmeans_pipeline


def serial_pipeline():
    b = PipelineBuilder("test/serial", metadata={"outputs": ("out",)})
    b.buffer("data", 4 * MB)
    b.buffer("out", 1 * MB)
    b.copy_h2d("data")
    b.mirror("out")
    b.gpu_kernel(
        "kernel", flops=1e6,
        reads=[BufferAccess("data_dev")], writes=[BufferAccess("out_dev")],
    )
    b.copy_d2h("out_dev", "out", name="d2h_out")
    return b.build()


def racy_pipeline():
    b = PipelineBuilder("test/racy")
    b.buffer("x", 1 * MB, temporary=True)
    b.gpu_kernel("writer", flops=1e6, writes=[BufferAccess("x")])
    b.gpu_kernel("reader", flops=1e6, reads=[BufferAccess("x")], after=[])
    return b.build()


class TestSeverity:
    def test_ordering(self):
        assert Severity.ERROR.at_least(Severity.WARNING)
        assert Severity.WARNING.at_least(Severity.WARNING)
        assert not Severity.INFO.at_least(Severity.WARNING)

    def test_parse_accepts_warn_shorthand(self):
        assert Severity.parse("warn") is Severity.WARNING
        assert Severity.parse("ERROR") is Severity.ERROR

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Severity.parse("fatal")


class TestHappensBefore:
    def test_serial_chain_is_fully_ordered(self):
        hb = HappensBefore(serial_pipeline())
        assert list(hb.concurrent_pairs()) == []
        assert hb.ordered("h2d_data_1", "d2h_out")

    def test_detached_stages_are_concurrent(self):
        hb = HappensBefore(racy_pipeline())
        assert hb.concurrent("writer", "reader")
        pairs = [(a.name, b.name) for a, b in hb.concurrent_pairs()]
        assert pairs == [("writer", "reader")]

    def test_regions(self):
        assert regions_overlap(Region(0.0, 0.5), Region(0.25, 0.75))
        assert not regions_overlap(Region(0.0, 0.5), Region(0.5, 1.0))


class TestHazards:
    def test_serial_pipeline_is_clean(self):
        assert not lint_pipeline(serial_pipeline()).diagnostics

    def test_raw_hazard_fires(self):
        report = lint_pipeline(racy_pipeline())
        assert report.rules_fired() == ("RPL001",)
        assert not report.clean(Severity.ERROR)

    def test_disjoint_regions_do_not_conflict(self):
        b = PipelineBuilder("test/disjoint")
        b.buffer("x", 1 * MB, temporary=True)
        b.gpu_kernel(
            "lo", flops=1e6,
            writes=[BufferAccess("x", region=Region(0.0, 0.5))],
        )
        b.gpu_kernel(
            "hi", flops=1e6,
            writes=[BufferAccess("x", region=Region(0.5, 1.0))], after=[],
        )
        assert not lint_pipeline(b.build()).diagnostics

    def test_war_classified_by_insertion_order(self):
        b = PipelineBuilder("test/war")
        b.buffer("x", 1 * MB, temporary=True)
        b.buffer("y", 1 * MB, temporary=True)
        b.gpu_kernel(
            "reader", flops=1e6,
            reads=[BufferAccess("x")], writes=[BufferAccess("y")],
        )
        b.gpu_kernel("writer", flops=1e6, writes=[BufferAccess("x")], after=[])
        assert lint_pipeline(b.build()).rules_fired() == ("RPL003",)


class TestTransformsLintClean:
    """The paper's transforms must never introduce error-level findings."""

    def test_kmeans_all_forms(self):
        copy_form = kmeans_pipeline()
        assert_lint_clean(copy_form)
        assert_lint_clean(fission_async_streams(copy_form))
        limited = remove_copies(copy_form)
        assert_lint_clean(limited)
        assert_lint_clean(parallel_producer_consumer(limited))
        assert_lint_clean(migrate_compute(limited))
        assert_lint_clean(parallel_producer_consumer(migrate_compute(limited)))

    def test_chunked_lanes_not_flagged(self):
        """parallel_producer_consumer output stays clean: broadcast accesses
        across chunk lanes are covered by the data-ready flag protocol."""
        chunked = parallel_producer_consumer(remove_copies(kmeans_pipeline()), 4)
        report = lint_pipeline(chunked)
        hazards = [d for d in report if d.rule in ("RPL001", "RPL002", "RPL003")]
        assert hazards == []

    def test_true_race_still_fires_in_chunked_pipeline(self):
        """The chunk-lane exemption must not swallow real races: two chunked
        stages clashing through non-broadcast full-region accesses fire."""
        b = PipelineBuilder("test/chunked_race")
        b.buffer("x", 1 * MB, temporary=True)
        b.gpu_kernel("a", flops=1e6, writes=[BufferAccess("x")], chunkable=True)
        b.gpu_kernel("b", flops=1e6, writes=[BufferAccess("x")], after=[])
        chunked = b.build()
        from repro.pipeline.transforms import chunk_stages

        report = lint_pipeline(chunk_stages(chunked, 2))
        assert "RPL002" in report.rules_fired()


class TestRegistrySweep:
    def test_all_benchmarks_lint_clean_both_forms(self):
        """Every simulatable benchmark, copy and limited-copy form, is clean
        at error level — the CI gate (`repro lint --fail-on error`)."""
        specs = simulatable_specs()
        assert len(specs) == 46
        report = lint_registry(specs)
        errors = report.at_least(Severity.ERROR)
        assert not errors, "\n".join(d.format() for d in errors)
        # Both forms of every benchmark were actually checked.
        assert len(report.pipelines) == 92

    def test_registry_currently_warning_free(self):
        """The seed registry is drift-free, so any new warning is a
        regression introduced by a builder or spec edit."""
        report = lint_registry()
        assert report.clean(Severity.INFO), "\n".join(
            d.format() for d in report
        )


class TestDerivedFlags:
    def test_kmeans_structure(self):
        derived = derive_flags(kmeans_pipeline())
        assert derived.pc_comm
        assert derived.regular_pc
        assert not derived.sw_queue
        assert derived.has_chunkable

    def test_worklist_structure_detected(self):
        from repro.workloads.registry import get

        derived = derive_flags(get("lonestar/bfs").pipeline())
        assert derived.sw_queue

    def test_bh_tree_is_not_a_worklist(self):
        from repro.workloads.registry import get

        derived = derive_flags(get("lonestar/bh").pipeline())
        assert not derived.sw_queue


class TestAssertHook:
    def test_clean_pipeline_returns_report(self):
        report = assert_lint_clean(serial_pipeline())
        assert report.clean(Severity.ERROR)

    def test_raises_with_findings_in_message(self):
        with pytest.raises(LintError) as excinfo:
            assert_lint_clean(racy_pipeline())
        assert "RPL001" in str(excinfo.value)
        assert excinfo.value.report.rules_fired() == ("RPL001",)

    def test_threshold_can_be_relaxed(self):
        b = PipelineBuilder("test/unused")
        b.buffer("used", 1 * MB, temporary=True)
        b.buffer("spare", 1 * MB)
        b.gpu_kernel("k", flops=1e6, writes=[BufferAccess("used")])
        pipeline = b.build()
        assert_lint_clean(pipeline)  # RPL104 is only a warning
        with pytest.raises(LintError):
            assert_lint_clean(pipeline, threshold=Severity.WARNING)


class TestReporters:
    def test_text_mentions_rule_and_location(self):
        text = render_text(lint_pipeline(racy_pipeline()))
        assert "RPL001" in text
        assert "test/racy" in text
        assert "FAILED" in text

    def test_clean_text_summary(self):
        text = render_text(lint_pipeline(serial_pipeline()))
        assert "clean" in text
        assert "1 pipeline(s) checked" in text

    def test_json_schema_stable(self):
        payload = json.loads(render_json(lint_pipeline(racy_pipeline())))
        assert payload["schema"] == LINT_SCHEMA
        assert LINT_SCHEMA == "repro.lint/v2"
        assert payload["clean"] is False
        assert payload["counts"]["error"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "severity", "pipeline", "stage", "buffer", "message",
            "hint", "fixable", "provenance",
        }
        assert finding["rule"] == "RPL001"
        assert finding["pipeline"] == "test/racy"
        assert finding["fixable"] is False
        assert finding["provenance"] == []

    def test_v1_consumers_parse_v2_reports(self):
        # v2 is a strict superset of v1: every v1 field survives with the
        # same name, type, and meaning, so a consumer written against v1
        # (reading only the v1 keys) parses a v2 document unchanged.
        payload = json.loads(render_json(lint_pipeline(racy_pipeline())))
        v1_top = {"schema", "fail_on", "clean", "pipelines", "counts",
                  "findings"}
        assert v1_top <= set(payload)
        v1_finding = {"rule", "severity", "pipeline", "stage", "buffer",
                      "message", "hint"}
        for finding in payload["findings"]:
            assert v1_finding <= set(finding)
            assert isinstance(finding["rule"], str)
            assert isinstance(finding["severity"], str)
        assert payload["schema"].startswith("repro.lint/")

    def test_json_findings_are_byte_stable(self):
        # Two lints of the same pipeline must serialize identically —
        # findings are sorted by (pipeline, rule, stage, buffer, message),
        # not by rule execution order.
        first = render_json(lint_pipeline(racy_pipeline()))
        second = render_json(lint_pipeline(racy_pipeline()))
        assert first == second

    def test_json_respects_fail_on(self):
        report = lint_pipeline(serial_pipeline())
        payload = json.loads(render_json(report, fail_on=Severity.INFO))
        assert payload["fail_on"] == "info"
        assert payload["clean"] is True


class TestRuleCatalogue:
    def test_ids_are_stable_and_families_consistent(self):
        assert set(RULES) == {
            "RPL001", "RPL002", "RPL003",
            "RPL101", "RPL102", "RPL103", "RPL104", "RPL105", "RPL106",
            "RPL201", "RPL202", "RPL203", "RPL204",
            "RPL301", "RPL302", "RPL303", "RPL304", "RPL305",
        }
        for rule_id in ("RPL001", "RPL002", "RPL003", "RPL101", "RPL102"):
            assert RULES[rule_id].severity is Severity.ERROR
        for rule_id in ("RPL103", "RPL104", "RPL105", "RPL106",
                        "RPL201", "RPL202", "RPL203", "RPL204",
                        "RPL301", "RPL302"):
            assert RULES[rule_id].severity is Severity.WARNING
        for rule_id in ("RPL303", "RPL304", "RPL305"):
            assert RULES[rule_id].severity is Severity.INFO

    def test_dataflow_family_flags(self):
        # Fixable rules have safe autofixes; opportunity rules are opt-in
        # and never both (an opportunity must not be auto-applied).
        assert RULES["RPL301"].fixable and not RULES["RPL301"].opportunity
        assert RULES["RPL302"].fixable and not RULES["RPL302"].opportunity
        for rule_id in ("RPL303", "RPL304", "RPL305"):
            assert RULES[rule_id].opportunity
            assert not RULES[rule_id].fixable
        for rule_id, rule in RULES.items():
            if not rule_id.startswith("RPL3"):
                assert not rule.fixable and not rule.opportunity
        assert RULES["RPL001"].category == "hazard"
        assert RULES["RPL104"].category == "memspace"
        assert RULES["RPL201"].category == "spec"
        assert RULES["RPL305"].category == "dataflow"


class TestLintBenchmark:
    def test_lints_both_forms(self):
        from repro.workloads.registry import get

        report = lint_benchmark(get("rodinia/kmeans"))
        assert report.pipelines == [
            "rodinia/kmeans", "rodinia/kmeans [limited-copy]",
        ]


class TestRunnerPreflight:
    def _racy_spec(self):
        from repro.workloads.spec import BenchmarkSpec

        return BenchmarkSpec(
            name="racy",
            suite="fixture",
            description="preflight must reject this",
            pc_comm=False,
            pipe_parallel=False,
            regular_pc=False,
            irregular=False,
            sw_queue=False,
            build=racy_pipeline,
        )

    def test_preflight_refuses_racy_pipeline(self):
        from repro.experiments.runner import COPY, SweepRunner
        from repro.sim.engine import SimOptions

        runner = SweepRunner(
            options=SimOptions(scale=1 / 128), preflight=True
        )
        with pytest.raises(LintError):
            runner.run(self._racy_spec(), COPY)

    def test_limited_preflight_names_the_limited_copy_form(self):
        from repro.experiments.runner import LIMITED, SweepRunner
        from repro.sim.engine import SimOptions

        runner = SweepRunner(
            options=SimOptions(scale=1 / 128), preflight=True
        )
        with pytest.raises(LintError) as excinfo:
            runner.run(self._racy_spec(), LIMITED)
        offending = excinfo.value.report.at_least(Severity.ERROR)
        assert offending
        assert {d.pipeline for d in offending} == {"test/racy [limited-copy]"}

    def test_preflight_off_simulates(self):
        from repro.experiments.runner import COPY, SweepRunner
        from repro.sim.engine import SimOptions

        runner = SweepRunner(options=SimOptions(scale=1 / 128))
        result = runner.run(self._racy_spec(), COPY)
        assert result.roi_s > 0

    def test_preflight_allows_clean_benchmark(self):
        from repro.experiments.runner import LIMITED, SweepRunner
        from repro.sim.engine import SimOptions
        from repro.workloads.registry import get

        runner = SweepRunner(
            options=SimOptions(scale=1 / 128), preflight=True
        )
        result = runner.run(get("rodinia/kmeans"), LIMITED)
        assert result.roi_s > 0

    def test_preflight_memoizes_repeat_lints(self):
        from repro.analysis import default_memo, reset_default_memo
        from repro.experiments.runner import COPY, SweepRunner
        from repro.sim.engine import SimOptions
        from repro.workloads.registry import get

        reset_default_memo()
        try:
            runner = SweepRunner(
                options=SimOptions(scale=1 / 128), preflight=True
            )
            runner.run(get("rodinia/kmeans"), COPY)
            after_first = default_memo().misses
            assert after_first >= 1
            # A fresh runner preflights the same pipeline again: the
            # process-wide memo answers without re-analysing.
            second = SweepRunner(
                options=SimOptions(scale=1 / 128), preflight=True
            )
            second.run(get("rodinia/kmeans"), COPY)
            assert default_memo().misses == after_first
            assert default_memo().hits >= 1
        finally:
            reset_default_memo()
