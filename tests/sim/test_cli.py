"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "Bro217"])
        assert args.benchmark == "Bro217"
        assert args.ranks == 1
        assert args.model_input == "1MB"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "NotABenchmark"])

    def test_match_requires_pattern(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["match", "file.bin"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Dotstar03" in out and "ClamAV" in out

    def test_run_small(self, capsys):
        code = main(
            [
                "run",
                "Bro217",
                "--scale",
                "0.05",
                "--trace-bytes",
                "4096",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "verified OK" in out

    def test_run_rejects_workers_without_pool(self, capsys):
        """--workers sizes a process pool; on an in-process backend it
        is a usage error, not silently ignored."""
        code = main(
            [
                "run",
                "Bro217",
                "--scale",
                "0.05",
                "--trace-bytes",
                "2048",
                "--backend",
                "serial",
                "--workers",
                "4",
            ]
        )
        assert code == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["serial", "vector"])
    def test_run_rejects_in_process_segment_timeout(
        self, capsys, tmp_path, backend
    ):
        """Nothing can interrupt an in-process segment, so a timeout on
        an in-process backend is a usage error, not silently ignored;
        the rejected run leaves an existing ledger untouched."""
        ledger = tmp_path / "run.jsonl"
        ledger.write_text("kept\n")
        code = main(
            [
                "run",
                "Bro217",
                "--scale",
                "0.05",
                "--trace-bytes",
                "2048",
                "--backend",
                backend,
                "--segment-timeout",
                "0.000001",
                "--ledger",
                str(ledger),
            ]
        )
        assert code == 2
        assert "segment timeout" in capsys.readouterr().err
        assert ledger.read_text() == "kept\n"

    def test_run_rejects_resume_without_checkpoint(self, capsys):
        code = main(
            [
                "run",
                "Bro217",
                "--scale",
                "0.05",
                "--trace-bytes",
                "2048",
                "--resume",
            ]
        )
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_match(self, capsys, tmp_path):
        sample = tmp_path / "sample.bin"
        sample.write_bytes(b"xx needle xx needle")
        code = main(
            ["match", str(sample), "--pattern", "needle", "--show", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 matches" in out
        assert "rule 0 at offset" in out

    def test_speculate(self, capsys):
        code = main(
            [
                "speculate",
                "ExactMatch",
                "--scale",
                "0.05",
                "--trace-bytes",
                "4096",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cold" in out and "profile" in out and "OK" in out

    def test_table1_small_scale(self, capsys):
        # Uses the tiniest scale to keep CI fast.
        code = main(["table1", "--scale", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Paper:States" in out

    def test_fig3_small_scale(self, capsys):
        code = main(["fig3", "--scale", "0.02"])
        assert code == 0
        assert "RangeAvg" in capsys.readouterr().out
