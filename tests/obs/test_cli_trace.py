"""CLI surface for observability: --trace/--profile/--format json and
the ``repro trace`` subcommand."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_trace_flags(self):
        args = build_parser().parse_args(
            ["run", "Bro217", "--trace", "out.json", "--profile"]
        )
        assert args.trace == "out.json"
        assert args.profile
        assert args.trace_domain == "cycles"
        assert args.format == "text"

    def test_run_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "Bro217", "--format", "xml"])

    def test_trace_subcommand_defaults(self):
        args = build_parser().parse_args(["trace", "Bro217"])
        assert args.target == "Bro217"
        assert args.output is None
        assert not args.validate

    def test_trace_domain_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "Bro217", "--domain", "stardate"]
            )


class TestRunCommand:
    def test_format_json_parses_and_matches_text_fields(self, capsys):
        argv = ["run", "Bro217", "--scale", "0.05", "--trace-bytes", "4096"]
        assert main(argv + ["--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["benchmark"] == "Bro217"
        assert summary["speedup"] > 0
        assert summary["reports_match"] is True
        assert "svc" in summary and summary["svc"]["saves"] >= 0
        assert "event_amplification" in summary

    def test_trace_flag_writes_valid_chrome_json(self, capsys, tmp_path):
        path = tmp_path / "run.trace.json"
        code = main(
            [
                "run",
                "Bro217",
                "--scale",
                "0.05",
                "--trace-bytes",
                "4096",
                "--trace",
                str(path),
            ]
        )
        assert code == 0
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]
        assert any(
            e["name"].startswith("segment[") for e in trace["traceEvents"]
        )
        captured = capsys.readouterr()
        assert str(path) in captured.out + captured.err

    def test_profile_flag_prints_profile(self, capsys):
        code = main(
            [
                "run",
                "Bro217",
                "--scale",
                "0.05",
                "--trace-bytes",
                "4096",
                "--profile",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "== phase profile ==" in captured.out + captured.err


class TestTraceCommand:
    def test_trace_writes_and_validates(self, capsys, tmp_path):
        path = tmp_path / "bench.trace.json"
        code = main(
            [
                "trace",
                "Bro217",
                "--scale",
                "0.05",
                "--trace-bytes",
                "4096",
                "-o",
                str(path),
            ]
        )
        assert code == 0
        assert path.exists()
        capsys.readouterr()

        assert main(["trace", str(path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace-event JSON" in out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
        assert main(["trace", str(bad), "--validate"]) != 0

    def test_unknown_target_fails(self):
        with pytest.raises(SystemExit):
            main(["trace", "NotABenchmark"])
