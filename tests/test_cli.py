"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main

TINY = "0.0078125"  # 1/128

#: The flags of a command that simulates without a sweep runner.
SIM = {"--scale", "--seed"}
#: The flags of a command that builds a sweep runner.
RUNNER = SIM | {
    "--jobs",
    "--cache-dir",
    "--no-cache",
    "--preflight",
    "--max-retries",
    "--task-timeout",
    "--fail-fast",
    "--backend",
}
#: The runner flags ``repro serve`` applies to each job's sweep.
SERVE = {
    "--jobs",
    "--cache-dir",
    "--no-cache",
    "--max-retries",
    "--task-timeout",
    "--backend",
}
#: Every subcommand's options: each one is a flag the command reads.
OPTIONS = {
    "show-config": set(),
    "list": {"--suite"},
    "run": RUNNER,
    "table2": set(),
    "lint": {"--spec", "--format", "--fail-on", "--fix", "--opportunities"},
    "trace": SIM | {"--system", "-o", "--output", "--format", "--no-check"},
    "cache": {"--cache-dir", "--clear"},
    "serve": SERVE
    | {"--host", "--port", "--concurrency", "--default-scale", "--no-lint"},
    "advise": RUNNER | {"--static"},
    "timeline": RUNNER | {"--limited"},
    "export": RUNNER | {"--limited", "--include-log", "--output"},
    "run-spec": SIM,
    "fig3": SIM,
    **{f"fig{n}": RUNNER for n in range(4, 10)},
    "validate": RUNNER,
    "ablations": SIM,
    "all": RUNNER,
}


def _subcommands():
    [sub] = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sub.choices


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "show-config",
            "list",
            "run",
            "table2",
            "fig3",
            "fig9",
            "validate",
            "ablations",
            "lint",
            "all",
        ):
            assert command in text

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_each_command_takes_only_the_flags_it_reads(self):
        options = {
            name: {
                flag for action in parser._actions for flag in action.option_strings
            }
            - {"-h", "--help"}
            for name, parser in _subcommands().items()
        }
        assert options == OPTIONS

    def test_serve_shares_the_runner_flag_definitions(self):
        parsers = _subcommands()

        def definition(command, flag):
            [action] = [
                a for a in parsers[command]._actions if flag in a.option_strings
            ]
            return (action.default, action.type, action.choices, action.help)

        for flag in SERVE:
            assert definition("serve", flag) == definition("run", flag), flag

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "rodinia/kmeans", "--scale"],
            ["trace", "lonestar/bfs", "--scale"],
            ["serve", "--default-scale"],
        ],
        ids=["run", "trace", "serve"],
    )
    def test_scale_not_finite_and_positive_is_a_usage_error(
        self, argv, value, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + [value])
        assert excinfo.value.code == 2
        assert "must be a finite, positive number" in capsys.readouterr().err


class TestFaultToleranceFlags:
    def test_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["run", "rodinia/kmeans"])
        assert args.max_retries == 2
        assert args.task_timeout is None
        assert args.fail_fast is False

    def test_flags_parse_explicit(self):
        args = build_parser().parse_args(
            [
                "run",
                "rodinia/kmeans",
                "--max-retries",
                "0",
                "--task-timeout",
                "1.5",
                "--fail-fast",
            ]
        )
        assert args.max_retries == 0
        assert args.task_timeout == 1.5
        assert args.fail_fast is True

    def test_partial_sweep_exits_3_and_reports_failure(self, capsys):
        from repro.testing.faults import FaultRule, injected_faults

        argv = [
            "run",
            "rodinia/kmeans",
            "--scale",
            TINY,
            "--jobs",
            "1",
            "--no-cache",
            "--max-retries",
            "0",
        ]
        with injected_faults({"rodinia/kmeans:copy": FaultRule("raise")}):
            assert main(argv) == 3
        captured = capsys.readouterr()
        assert "FaultInjected" in captured.err
        assert "limited-copy" in captured.out  # surviving half still printed
        # Fault gone: the same invocation is clean again.
        assert main(argv) == 0
        assert "FAILED" not in capsys.readouterr().out


class TestCommands:
    def test_show_config(self, capsys):
        assert main(["show-config"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "179 GB/s" in out

    def test_list_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Benchmarks (58)" in out
        assert "rodinia/kmeans" in out

    def test_list_one_suite(self, capsys):
        assert main(["list", "--suite", "pannotia"]) == 0
        out = capsys.readouterr().out
        assert "Benchmarks (10)" in out
        assert "lonestar" not in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_run_benchmark(self, capsys):
        assert main(["run", "rodinia/kmeans", "--scale", TINY]) == 0
        out = capsys.readouterr().out
        assert "[copy]" in out and "[limited-copy]" in out
        assert "roi_s" in out

    @pytest.mark.parametrize("command", ["run", "timeline", "advise", "export"])
    def test_unknown_benchmark_exits_2(self, command, capsys):
        assert main([command, "rodinia/quake", "--scale", TINY]) == 2
        assert capsys.readouterr().err == (
            f"repro {command}: no benchmark named 'rodinia/quake'\n"
        )

    def test_fig3(self, capsys):
        assert main(["fig3", "--scale", TINY]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "Parallel + Cache" in out

    def test_advise(self, capsys):
        assert main(["advise", "rodinia/kmeans", "--scale", TINY]) == 0
        out = capsys.readouterr().out
        assert "Optimization advisor" in out
        assert "remove memory copies" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "rodinia/kmeans", "--scale", TINY]) == 0
        out = capsys.readouterr().out
        assert "|" in out and "gpu" in out
        assert "map_0" in out

    def test_timeline_limited(self, capsys):
        assert main(
            ["timeline", "rodinia/kmeans", "--limited", "--scale", TINY]
        ) == 0
        assert "heterogeneous" in capsys.readouterr().out

    def test_export_to_stdout(self, capsys):
        assert main(["export", "rodinia/kmeans", "--scale", TINY]) == 0
        out = capsys.readouterr().out
        assert '"schema": "repro.sim_result/v1"' in out

    def test_run_spec(self, capsys, tmp_path):
        import json

        spec = {
            "name": "demo/saxpy",
            "outputs": ["y"],
            "buffers": [
                {"name": "x", "size": "4MB"},
                {"name": "y", "size": "4MB"},
            ],
            "stages": [
                {"op": "h2d", "buffer": "x"},
                {"op": "gpu", "name": "k", "flops": 1e7,
                 "reads": [{"buffer": "x_dev"}]},
            ],
        }
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(spec))
        assert main(["run-spec", str(path), "--scale", TINY]) == 0
        out = capsys.readouterr().out
        assert "demo/saxpy" in out and "porting changes run time" in out

class TestLintCommand:
    """Exit-code contract: 0 clean, 1 findings at/above --fail-on, 2 usage."""

    def _write_spec(self, tmp_path, spec):
        import json

        path = tmp_path / "wl.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def _space_violation_spec(self, tmp_path):
        # A GPU kernel reading a host allocation with no interposed copy:
        # RPL101, error level, in the copy form.
        return self._write_spec(tmp_path, {
            "name": "demo/broken",
            "buffers": [{"name": "x", "size": "4MB"}],
            "stages": [
                {"op": "gpu", "name": "k", "flops": 1e6,
                 "reads": [{"buffer": "x"}]},
            ],
        })

    def _warning_spec(self, tmp_path):
        # Clean at error level, but buffer "spare" is never accessed:
        # RPL104, warning level, in both forms.
        return self._write_spec(tmp_path, {
            "name": "demo/sloppy",
            "buffers": [
                {"name": "x", "size": "4MB"},
                {"name": "spare", "size": "4MB"},
            ],
            "stages": [
                {"op": "h2d", "buffer": "x"},
                {"op": "gpu", "name": "k", "flops": 1e6,
                 "reads": [{"buffer": "x_dev"}]},
            ],
        })

    def test_registry_lints_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "92 pipeline(s) checked" in out

    def test_single_benchmark_json(self, capsys):
        import json

        assert main(["lint", "rodinia/kmeans", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/v2"
        assert payload["clean"] is True
        assert payload["pipelines"] == [
            "rodinia/kmeans", "rodinia/kmeans [limited-copy]",
        ]

    def test_exit_1_on_error_finding(self, capsys, tmp_path):
        assert main(["lint", "--spec", self._space_violation_spec(tmp_path)]) == 1
        assert "RPL101" in capsys.readouterr().out

    def test_exit_0_when_findings_below_threshold(self, capsys, tmp_path):
        assert main(["lint", "--spec", self._warning_spec(tmp_path)]) == 0
        assert "RPL104" in capsys.readouterr().out

    def test_fail_on_warn_promotes_warnings(self, capsys, tmp_path):
        spec = self._warning_spec(tmp_path)
        assert main(["lint", "--spec", spec, "--fail-on", "warn"]) == 1

    def test_json_report_for_findings(self, capsys, tmp_path):
        import json

        spec = self._space_violation_spec(tmp_path)
        assert main(["lint", "--spec", spec, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert any(f["rule"] == "RPL101" for f in payload["findings"])

    def test_exit_2_unknown_benchmark(self, capsys):
        assert main(["lint", "nosuch/bench"]) == 2
        assert "nosuch/bench" in capsys.readouterr().err

    def test_exit_2_bad_severity(self, capsys):
        assert main(["lint", "--fail-on", "fatal"]) == 2
        assert "fatal" in capsys.readouterr().err

    def test_exit_2_unreadable_spec(self, capsys, tmp_path):
        assert main(["lint", "--spec", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err

    def test_opportunities_flag_surfaces_info_findings(self, capsys):
        assert main(["lint", "rodinia/kmeans", "--opportunities"]) == 0
        out = capsys.readouterr().out
        assert "RPL304" in out  # kmeans' CPU update stages are candidates


class TestLintFix:
    def _dead_copy_spec(self, tmp_path):
        import json

        # The upload is clobbered by "init" before anything reads it:
        # RPL301, fixable by dropping the copy.
        spec = {
            "name": "demo/deadcopy",
            "outputs": ["t"],
            "buffers": [{"name": "t", "size": "1MB"}],
            "stages": [
                {"op": "h2d", "buffer": "t"},
                {"op": "gpu", "name": "init", "flops": 1e6,
                 "writes": [{"buffer": "t_dev"}]},
                {"op": "d2h", "src": "t_dev", "dst": "t", "name": "d2h_t"},
            ],
        }
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_fix_reports_applied_fixes(self, capsys, tmp_path):
        spec = self._dead_copy_spec(tmp_path)
        assert main(["lint", "--spec", spec, "--fix"]) == 0
        out = capsys.readouterr().out
        assert "RPL301" in out and "drop dead copy" in out
        assert "applied 1 fix(es)" in out
        assert "clean" in out  # the fixed pipeline re-lints clean

    def test_fix_json_payload(self, capsys, tmp_path):
        import json

        spec = self._dead_copy_spec(tmp_path)
        assert main(["lint", "--spec", spec, "--fix", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        (entry,) = payload["fixes"]
        assert entry["pipeline"] == "demo/deadcopy"
        (applied,) = entry["applied"]
        assert applied["rule"] == "RPL301"
        assert applied["kind"] == "drop-copy"
        assert entry["skipped"] == []

    def test_fix_on_clean_registry_benchmark_is_noop(self, capsys):
        assert main(["lint", "rodinia/kmeans", "--fix"]) == 0
        out = capsys.readouterr().out
        assert "applied 0 fix(es)" in out
        assert "clean" in out


class TestAdviseStatic:
    def test_single_benchmark(self, capsys):
        assert main(["advise", "rodinia/kmeans", "--static"]) == 0
        out = capsys.readouterr().out
        assert "static advisor: rodinia/kmeans" in out
        assert "overlap=yes" in out

    def test_registry_table(self, capsys):
        assert main(["advise", "--static"]) == 0
        out = capsys.readouterr().out
        assert "Static optimization advisor" in out
        assert "rodinia/kmeans" in out and "parboil/sgemm" in out

    def test_exit_2_without_benchmark_or_static(self, capsys):
        assert main(["advise"]) == 2
        assert "--static" in capsys.readouterr().err

    def test_exit_2_unknown_benchmark(self, capsys):
        assert main(["advise", "nosuch/bench", "--static"]) == 2
        assert "nosuch/bench" in capsys.readouterr().err

    def test_exit_2_on_runner_flags_it_ignores(self, capsys):
        argv = ["advise", "rodinia/kmeans", "--static", "--jobs", "7"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "--backend" not in err
        assert main([*argv, "--no-cache", "--backend", "subprocess"]) == 2
        assert "--jobs, --no-cache, --backend" in capsys.readouterr().err


class TestTrace:
    def test_jsonl_output_is_the_recorded_event_stream(self, tmp_path):
        import json

        from repro.config.system import discrete_gpu_system
        from repro.sim.engine import SimOptions, simulate
        from repro.sim.observe import TraceRecorder, event_to_dict
        from repro.workloads.registry import get

        target = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "rodinia/kmeans", "--scale", TINY, "-o", str(target),
             "--format", "jsonl"]
        ) == 0
        recorder = TraceRecorder()
        simulate(
            get("rodinia/kmeans").pipeline(),
            discrete_gpu_system(),
            SimOptions(scale=float(TINY)),
            sinks=[recorder],
        )
        expected = "".join(
            json.dumps(event_to_dict(event), separators=(",", ":")) + "\n"
            for event in recorder.events
        )
        assert recorder.events
        assert target.read_bytes() == expected.encode("utf-8")


class TestExport:
    def test_export_to_file(self, capsys, tmp_path):
        target = tmp_path / "run.json"
        assert main(
            ["export", "rodinia/kmeans", "--scale", TINY,
             "--output", str(target)]
        ) == 0
        import json

        payload = json.loads(target.read_text())
        assert payload["pipeline"] == "rodinia/kmeans"
