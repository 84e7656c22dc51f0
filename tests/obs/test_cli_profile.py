"""CLI surface for the phase profiler: ``repro run --profile`` and its
speedscope export, read back by ``repro obs summary``."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_speedscope


def cycle_rows(phases):
    """The per-segment rows without their host wall times."""
    return [
        {key: value for key, value in row.items() if key != "wall_ns"}
        for row in phases["per_segment"]
    ]


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["run", "Bro217"])
        assert not args.profile
        assert args.format == "text"
        assert args.speedscope is None
        assert args.backend == "serial"

    def test_help_mentions_exports(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        helptext = capsys.readouterr().out
        assert "--speedscope" in helptext
        assert "--profile" in helptext


class TestProfileCommand:
    ARGS = ["run", "Bro217", "--scale", "0.05", "--trace-bytes", "4096"]

    def test_table_output_verifies_and_names_phases(self, capsys):
        assert main(self.ARGS + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        assert "transition" in out
        assert "identities verified" in out
        assert "hot=" in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(self.ARGS + ["--profile", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert "phase profile" not in captured.out + captured.err
        summary = json.loads(captured.out)
        assert summary["benchmark"] == "Bro217"
        payload = summary["phases"]
        assert payload["accounted_cycles"] == (
            payload["segment_cycles"]
            + payload["cycles"]["decode"]
            + payload["cycles"]["report"]
        )
        assert payload["wall_ns"]["transition"] > 0
        assert payload["verified"]["accounted_cycles"] == (
            payload["accounted_cycles"]
        )
        assert payload["verified"]["segments"] == summary["segments"]

    def test_speedscope_export_roundtrips(self, capsys, tmp_path):
        path = tmp_path / "profile.speedscope.json"
        assert main(self.ARGS + ["--speedscope", str(path)]) == 0
        payload = json.loads(path.read_text())
        validate_speedscope(payload)
        capsys.readouterr()
        assert main(["obs", "summary", str(path)]) == 0
        assert "valid speedscope profile" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"profiles": []}))
        assert main(["obs", "summary", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_process_backend_profile_matches_serial(self, capsys):
        argv = self.ARGS + ["--profile", "--format", "json"]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)["phases"]
        code = main(argv + ["--backend", "process", "--workers", "1"])
        assert code == 0
        process = json.loads(capsys.readouterr().out)["phases"]
        assert process["cycles"] == serial["cycles"]
        assert process["accounted_cycles"] == serial["accounted_cycles"]
        assert cycle_rows(process) == cycle_rows(serial)
