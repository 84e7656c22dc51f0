"""CLI surface for observability: --trace/--profile/--format json on
``repro run``, and Chrome traces read back by ``repro obs summary``."""

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

    def test_trace_domain_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "Bro217", "--trace-domain", "stardate"]
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
        assert "phases" not in summary

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
        assert "== phase profile ==" in captured.out


class TestTraceCommand:
    """A trace written by ``run --trace`` validates in ``obs summary``."""

    def test_trace_writes_and_validates(self, capsys, tmp_path):
        path = tmp_path / "bench.trace.json"
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
                "--trace-domain",
                "wall",
            ]
        )
        assert code == 0
        capsys.readouterr()

        assert main(["obs", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace-event JSON" in out
        assert "wall domain" in out
        assert main(["obs", "summary", str(path), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["format"] == "Chrome trace-event JSON"
        assert summary["events"] > 0 and summary["tracks"] > 0
        assert summary["domain"] == "wall"

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
        assert main(["obs", "summary", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err
