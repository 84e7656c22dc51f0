"""Tests for the command-line interface."""

import json

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
        assert args.backend == "serial"
        assert args.engine == "auto"

    @pytest.mark.parametrize("command", [["run", "Bro217"], ["bench", "run"]])
    def test_vector_is_an_engine_not_a_backend(self, command, capsys):
        """Placement and engine are independent flags: ``--backend
        vector`` is a usage error (exit 2), ``--engine vector`` is not."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--backend", "vector"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        args = build_parser().parse_args(
            command + ["--backend", "process", "--engine", "vector"]
        )
        assert (args.backend, args.engine) == ("process", "vector")

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
        assert "engine           : vector: 2 limbs <= 32" in out
        assert "reference        : lazy-dfa: memo kept to the end (" in out

    @pytest.mark.parametrize("engine", ["auto", "set", "vector"])
    def test_run_summary_names_the_engine(self, capsys, engine):
        """The summary says which engine stepped the flows and why, and
        a forced engine moves no cycle metric."""
        code = main(
            [
                "run",
                "Bro217",
                "--scale",
                "0.05",
                "--trace-bytes",
                "2048",
                "--engine",
                engine,
                "--format",
                "json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        picked = "vector" if engine == "auto" else engine
        assert summary["engine"] == picked
        assert summary["health"]["engine"] == picked
        assert summary["engine_reason"] == (
            "vector: 2 limbs <= 32" if engine == "auto"
            else f"{engine}: requested"
        )
        assert summary["reports_match"] is True
        # The reference check runs its own executor whatever the engine.
        assert summary["reference_reason"] == "lazy-dfa: memo kept to the end"
        memo = summary["reference"]
        assert memo["hits"] + memo["misses"] == summary["trace_bytes"] - 1
        assert memo["dfa_states"] > 0 and memo["stopped_at"] is None

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

    @pytest.mark.parametrize(
        "engine", ["set", "vector"], ids=["serial", "vector"]
    )
    def test_run_rejects_in_process_segment_timeout(
        self, capsys, tmp_path, engine
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
                "serial",
                "--engine",
                engine,
                "--segment-timeout",
                "0.000001",
                "--ledger",
                str(ledger),
            ]
        )
        assert code == 2
        assert "segment timeout" in capsys.readouterr().err
        assert ledger.read_text() == "kept\n"

    def test_run_rejects_non_positive_scale(self, capsys):
        code = main(["run", "Bro217", "--scale", "-3"])
        assert code == 2
        assert "scale must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--segments", "0"), ("--segments", "-2"), ("--workers", "0")],
    )
    def test_chaos_rejects_sweeps_that_check_nothing(
        self, flag, value, capsys, monkeypatch
    ):
        """No cells, or no workers, is a usage error found before the
        fault-free reference run, never `0/0 recoveries bit-exact`."""

        def no_reference(*args, **kwargs):
            raise AssertionError("the reference run started")

        monkeypatch.setattr("repro.cli.ParallelAutomataProcessor", no_reference)
        code = main(
            ["chaos", "Ranges1", "--scale", "0.05", "--trace-bytes", "2048",
             flag, value]
        )
        assert code == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err

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
