"""Tests for the command-line interface."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.testing.faults import FaultRule, attempts_recorded, injected_faults

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
#: Every subcommand's options: each one is a flag the command reads.
OPTIONS = {
    "show-config": set(),
    "list": {"--suite"},
    "run": RUNNER,
    "table2": set(),
    "lint": {"--spec", "--format", "--fail-on", "--fix", "--opportunities"},
    "trace": SIM | {"--system", "-o", "--output", "--format", "--no-check"},
    "cache": {"--cache-dir", "--clear"},
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

#: Registered in Table II but carrying no pipeline model.
NOT_SIMULATABLE = "lonestar/bfs_atomic"

#: Malformed sweep inputs, each with what its usage error says.
MALFORMED = [
    (["--task-timeout", "0"], "must be a finite, positive number"),
    (["--task-timeout", "-5"], "must be a finite, positive number"),
    (["--task-timeout", "nan"], "must be a finite, positive number"),
    (["--task-timeout", "inf"], "must be a finite, positive number"),
    (["--task-timeout", "soon"], "must be a finite, positive number"),
    (["--max-retries", "-1"], "must be a non-negative integer"),
    (["--max-retries", "1.5"], "must be a non-negative integer"),
    (["--max-retries", "two"], "must be a non-negative integer"),
    (["--jobs", "-3"], "must be a non-negative integer"),
    (["--jobs", "2.5"], "must be a non-negative integer"),
    (["--jobs", "all"], "must be a non-negative integer"),
    (["--seed", "1.5"], "invalid int value"),
    (["--seed", "zero"], "invalid int value"),
    (["--backend", "turbo"], "invalid choice: 'turbo'"),
    (["--scael", "0.5"], "unrecognized arguments: --scael"),
    (["lonestar/bfs"], "unrecognized arguments: lonestar/bfs"),
]


def _count_simulations(monkeypatch):
    """The pipeline names of every simulation a sweep task runs from now
    on, in order (in-parent tasks only: run with ``--jobs 1``)."""
    from repro.experiments import parallel

    calls = []
    real = parallel.simulate

    def counting(pipeline, system, options):
        calls.append(pipeline.name)
        return real(pipeline, system, options)

    monkeypatch.setattr(parallel, "simulate", counting)
    return calls


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

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "big"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "rodinia/kmeans", "--scale"],
            ["trace", "lonestar/bfs", "--scale"],
        ],
        ids=["run", "trace"],
    )
    def test_scale_not_finite_and_positive_is_a_usage_error(
        self, argv, value, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + [value])
        assert excinfo.value.code == 2
        assert "must be a finite, positive number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message", MALFORMED, ids=[" ".join(f) for f, _ in MALFORMED]
    )
    def test_malformed_runner_flag_is_a_usage_error(self, flags, message, capsys):
        """Each input a sweep reads is checked before anything runs: a
        negative retry budget, a timeout that kills every task (or none),
        a typo'd flag or a second benchmark is exit 2, never a sweep."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "rodinia/kmeans", *flags])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_zero_counts_and_a_positive_timeout_parse(self):
        args = build_parser().parse_args(
            ["run", "--jobs", "0", "--max-retries", "0", "--task-timeout", "0.5"]
        )
        assert (args.jobs, args.max_retries, args.task_timeout) == (0, 0, 0.5)

    def test_serve_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_lists_every_flag(self, command, capsys):
        """``repro <command> --help`` renders (a bare ``%`` in a help
        string would raise instead) and names each flag the command takes."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: repro {command}")
        for flag in OPTIONS[command]:
            assert flag in out


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


class TestSweepFaults:
    """The fault-tolerance contract as ``repro run`` shows it: a failing,
    crashing or flaky simulation is exit 3 with a structured report on
    stderr and every surviving result printed, never a hang or a
    traceback."""

    ARGV = ["run", "rodinia/kmeans", "--scale", TINY, "--max-retries", "0"]

    @pytest.fixture(autouse=True)
    def _no_backoff(self, monkeypatch):
        from repro.experiments import parallel

        monkeypatch.setattr(parallel, "BACKOFF_BASE_S", 0.0)

    def test_every_version_failing_prints_no_summary(self, capsys):
        with injected_faults({"rodinia/kmeans": FaultRule("raise")}):
            assert main([*self.ARGV, "--jobs", "1", "--no-cache"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweep: 2 task(s) failed:" in captured.err

    def test_retry_exhaustion_reports_every_attempt(self, capsys):
        argv = [*self.ARGV, "--jobs", "1", "--no-cache", "--max-retries", "1"]
        with injected_faults({"rodinia/kmeans:copy": FaultRule("raise")}):
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert (
            "  rodinia/kmeans:copy failed after 2 attempt(s) [in-parent] "
            "FaultInjected: injected fault: rodinia/kmeans:copy\n"
        ) in err

    def test_transient_fault_is_retried_to_a_clean_exit(self, capsys, tmp_path):
        argv = [*self.ARGV, "--jobs", "1", "--no-cache", "--max-retries", "2"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        rules = {"rodinia/kmeans:copy": FaultRule("raise", times=1)}
        with injected_faults(rules, counter_dir=tmp_path):
            assert main(argv) == 0
            assert attempts_recorded("rodinia/kmeans:copy") == 2
        assert capsys.readouterr() == (clean, "")

    def test_fail_fast_cancels_what_it_has_not_dispatched(self, capsys):
        argv = [*self.ARGV, "--jobs", "1", "--no-cache", "--fail-fast"]
        with injected_faults({"rodinia/kmeans:copy": FaultRule("raise")}):
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert (
            "rodinia/kmeans:limited-copy failed after 0 attempt(s) [cancelled]"
        ) in err

    def test_killed_pool_worker_exits_3_not_a_hang(self, capsys):
        with injected_faults({"rodinia/kmeans:copy": FaultRule("kill")}):
            assert main([*self.ARGV, "--jobs", "2", "--no-cache"]) == 3
        err = capsys.readouterr().err
        # A pool break charges every task in flight: the culprit is
        # unknowable, so its bystander may fail with it.
        assert (
            "rodinia/kmeans:copy failed after 1 attempt(s) [crashed] WorkerCrash"
        ) in err

    def test_killed_subprocess_worker_costs_only_its_own_task(self, capsys):
        argv = [*self.ARGV, "--jobs", "2", "--no-cache", "--backend", "subprocess"]
        with injected_faults({"rodinia/kmeans:copy": FaultRule("kill")}):
            assert main(argv) == 3
        captured = capsys.readouterr()
        assert "sweep: 1 task(s) failed:" in captured.err
        assert (
            "rodinia/kmeans:copy failed after 1 attempt(s) [crashed]"
        ) in captured.err
        assert "[limited-copy]" in captured.out and "[copy]" not in captured.out

    def test_failed_run_is_not_cached(self, capsys, tmp_path, monkeypatch):
        from repro.sim.resultcache import ResultCache
        argv = [*self.ARGV, "--jobs", "1", "--cache-dir", str(tmp_path)]
        with injected_faults({"rodinia/kmeans:copy": FaultRule("raise")}):
            assert main(argv) == 3
        assert len(ResultCache(tmp_path)) == 1  # the surviving run
        calls = _count_simulations(monkeypatch)
        assert main(argv) == 0  # fault gone: only the failed run reruns
        assert calls == ["rodinia/kmeans"]
        assert len(ResultCache(tmp_path)) == 2

    @pytest.mark.parametrize("command", ["timeline", "export", "advise"])
    def test_one_run_command_exits_3_when_its_run_fails(self, command, capsys):
        argv = [command, "rodinia/kmeans", "--scale", TINY, "--jobs", "1",
                "--no-cache", "--max-retries", "0"]
        with injected_faults({"rodinia/kmeans:copy": FaultRule("raise")}):
            assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repro: rodinia/kmeans:copy did not complete" in captured.err


class TestSimulationCounts:
    """Each command simulates what it shows once, and a warm cache
    replays it: nothing simulated, byte-identical stdout."""

    COMMANDS = {"run": 2, "advise": 2, "timeline": 1, "export": 1}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_cold_run_simulates_each_version_once(
        self, command, capsys, monkeypatch
    ):
        calls = _count_simulations(monkeypatch)
        argv = [command, "rodinia/kmeans", "--scale", TINY, "--jobs", "1",
                "--no-cache"]
        assert main(argv) == 0
        assert len(calls) == self.COMMANDS[command]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_warm_run_replays_identical_output(
        self, command, capsys, tmp_path, monkeypatch
    ):
        argv = [command, "rodinia/kmeans", "--scale", TINY, "--jobs", "1",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        calls = _count_simulations(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert calls == []


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

    @pytest.mark.parametrize(
        "command", ["run", "timeline", "advise", "export", "trace"]
    )
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


class TestBenchmarkNames:
    """A name the registry cannot turn into one modelled benchmark is a
    usage error (exit 2), caught before any sweep, retry or backoff;
    only ``trace`` takes the first match of an ambiguous short name."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--no-cache"],
            ["timeline", "--no-cache"],
            ["advise", "--no-cache"],
            ["export", "--no-cache"],
            ["advise", "--static"],
            ["trace"],
            ["lint"],
        ],
        ids=" ".join,
    )
    def test_not_simulatable_exits_2(self, argv, capsys, monkeypatch):
        calls = _count_simulations(monkeypatch)
        command, *flags = argv
        assert main([command, NOT_SIMULATABLE, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro {command}: {NOT_SIMULATABLE} has no pipeline model\n"
        )
        assert captured.out == ""
        assert calls == []

    @pytest.mark.parametrize(
        "command", ["run", "timeline", "advise", "export", "lint"]
    )
    def test_ambiguous_short_name_exits_2(self, command, capsys):
        assert main([command, "bfs"]) == 2
        assert capsys.readouterr().err == (
            f"repro {command}: ambiguous benchmark 'bfs'; did you mean: "
            "lonestar/bfs, parboil/bfs, rodinia/bfs\n"
        )

    def test_trace_takes_the_first_match_of_an_ambiguous_name(self, capsys):
        assert main(["trace", "bfs", "--scale", TINY, "--no-check"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "repro trace: 'bfs' is ambiguous (lonestar/bfs, parboil/bfs, "
            "rodinia/bfs); tracing lonestar/bfs\n"
        )
        assert "lonestar/bfs [discrete]" in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["timeline"],
            ["export"],
            ["trace", "--no-check"],
        ],
        ids=" ".join,
    )
    def test_short_name_runs_the_full_name(self, argv, capsys):
        command, *flags = argv
        outputs = []
        for name in ("kmeans", "rodinia/kmeans"):
            assert main([command, name, "--scale", TINY, *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "rodinia/kmeans" in outputs[0]


class TestRunSpec:
    def test_missing_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        assert main(["run-spec", str(path), "--scale", TINY]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run-spec: ") and "missing.json" in err

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "wl.json"
        path.write_text('{"name": "demo/cut"')
        assert main(["run-spec", str(path), "--scale", TINY]) == 2
        assert capsys.readouterr().err.startswith("repro run-spec: invalid JSON")

    def test_malformed_workload_exits_2(self, capsys, tmp_path):
        import json

        path = tmp_path / "wl.json"
        path.write_text(json.dumps({
            "name": "demo/typo",
            "buffers": [{"name": "x", "size": "4MB"}],
            "stages": [{"op": "gpu_kernel", "name": "k"}],
        }))
        assert main(["run-spec", str(path), "--scale", TINY]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run-spec: ") and "gpu_kernel" in err


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

    @pytest.mark.parametrize(
        "system, kind", [("discrete", "discrete"), ("hsa", "heterogeneous")]
    )
    def test_chrome_output_is_a_valid_trace(self, system, kind, capsys, tmp_path):
        import json

        from repro.sim.observe import validate_chrome_trace

        target = tmp_path / "trace.json"
        assert main(
            ["trace", "rodinia/kmeans", "--scale", TINY, "--system", system,
             "-o", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) == []
        other = payload["otherData"]
        assert other["name"] == f"rodinia/kmeans [{system}]"
        assert other["system"] == kind and other["roi_s"] > 0
        captured = capsys.readouterr()
        assert captured.out.startswith("wrote ") and str(target) in captured.out
        assert captured.err == "invariants: all clean\n"

    def test_no_output_prints_the_timeline(self, capsys):
        assert main(["trace", "rodinia/kmeans", "--scale", TINY]) == 0
        captured = capsys.readouterr()
        assert "rodinia/kmeans [discrete]" in captured.out
        assert captured.out.rstrip().endswith("events traced")
        assert captured.err == "invariants: all clean\n"

    def test_no_check_skips_the_invariant_monitor(self, capsys):
        assert main(["trace", "rodinia/kmeans", "--scale", TINY, "--no-check"]) == 0
        assert capsys.readouterr().err == ""


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

    @pytest.mark.parametrize(
        "flags, system", [([], "discrete"), (["--limited"], "heterogeneous")]
    )
    def test_exports_the_version_asked_for(self, flags, system, capsys):
        import json

        assert main(["export", "rodinia/kmeans", "--scale", TINY, *flags]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == system
        assert "log" not in payload

    def test_include_log_adds_the_access_log(self, capsys):
        import json

        from repro.sim.serialize import LOG_COLUMNS

        argv = ["export", "rodinia/kmeans", "--scale", TINY, "--include-log"]
        assert main(argv) == 0
        log = json.loads(capsys.readouterr().out)["log"]
        assert sorted(log) == sorted(LOG_COLUMNS.values())
        assert len(log["component"]) == len(log["is_write"]) > 0


class TestCacheCommand:
    def test_reports_what_a_run_stored(self, capsys, tmp_path):
        argv = ["run", "rodinia/kmeans", "--scale", TINY, "--jobs", "1",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries            2" in out
        assert "partial writes     0 (0.0 MB, interrupted stores)" in out

    def test_missing_directory_reads_as_empty_and_stays_missing(
        self, capsys, tmp_path
    ):
        root = tmp_path / "never-written"
        assert main(["cache", "--cache-dir", str(root)]) == 0
        assert "entries            0" in capsys.readouterr().out
        assert not root.exists()


class TestConcurrentRuns:
    def test_identical_runs_at_once_share_one_cache(self, tmp_path):
        """Two processes that miss the same keys at once both simulate
        and both store, each by an atomic rename: both print the same
        summary, and the cache ends with the two entries, each loadable,
        and no partial write."""
        from repro.config.system import discrete_gpu_system, heterogeneous_processor
        from repro.experiments.runner import COPY, LIMITED
        from repro.sim.engine import SimOptions
        from repro.sim.resultcache import ResultCache, cache_key
        from repro.workloads.registry import get

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, "-m", "repro.cli", "run", "rodinia/kmeans",
                "--scale", TINY, "--jobs", "1", "--cache-dir", str(tmp_path)]
        procs = [
            subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=env)
            for _ in range(2)
        ]
        try:
            outputs = [proc.communicate(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        assert [proc.returncode for proc in procs] == [0, 0], outputs
        assert outputs[0][0] == outputs[1][0] != ""

        spec, options = get("rodinia/kmeans"), SimOptions(scale=float(TINY))
        keys = {
            cache_key(spec, COPY, discrete_gpu_system(), options),
            cache_key(spec, LIMITED, heterogeneous_processor(), options),
        }
        cache = ResultCache(tmp_path)
        assert set(cache.entries()) == {cache.path_for(key) for key in keys}
        assert all(cache.load(key) is not None for key in keys)
        assert cache.partial() == (0, 0)
