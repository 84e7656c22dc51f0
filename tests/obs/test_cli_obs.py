"""CLI surface for run telemetry: --ledger/--metrics-export/
--drift-baseline on ``repro run`` and the ``repro obs`` subcommands."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import parse_openmetrics, read_ledger


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    """One instrumented run shared by the read-only obs tests."""
    directory = tmp_path_factory.mktemp("obs-cli")
    ledger = directory / "run.jsonl"
    metrics = directory / "run.prom"
    code = main(
        [
            "run",
            "Bro217",
            "--scale",
            "0.05",
            "--trace-bytes",
            "4096",
            "--ledger",
            str(ledger),
            "--metrics-export",
            str(metrics),
        ]
    )
    assert code == 0
    return ledger, metrics


class TestParser:
    def test_run_telemetry_defaults(self):
        args = build_parser().parse_args(["run", "Bro217"])
        assert args.ledger is None
        assert args.metrics_export is None
        assert args.drift_baseline is None
        assert args.drift_tolerance == 0.10

    def test_run_telemetry_flags(self):
        args = build_parser().parse_args(
            [
                "run",
                "Bro217",
                "--ledger",
                "run.jsonl",
                "--metrics-export",
                "run.prom",
                "--drift-baseline",
                "ANALYZE.json",
                "--drift-tolerance",
                "0.25",
            ]
        )
        assert args.ledger == "run.jsonl"
        assert args.metrics_export == "run.prom"
        assert args.drift_baseline == "ANALYZE.json"
        assert args.drift_tolerance == 0.25

    def test_run_help_mentions_telemetry_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        helptext = capsys.readouterr().out
        assert "--ledger" in helptext
        assert "--metrics-export" in helptext
        assert "--drift-baseline" in helptext
        assert "crash bundle" in helptext

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_obs_summary_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["obs", "summary", "x.jsonl", "--format", "xml"]
            )


class TestRunWithTelemetry:
    def test_ledger_is_valid_and_announced(
        self, run_artifacts, capsys
    ):
        ledger, _ = run_artifacts
        records = read_ledger(str(ledger))
        assert records[0]["kind"] == "open"
        assert records[-1]["kind"] == "close"

    def test_metrics_export_parses(self, run_artifacts):
        _, metrics = run_artifacts
        samples = parse_openmetrics(metrics.read_text())
        assert samples["repro_exec_dispatches_total"] >= 1
        assert any("segment_finish_cycles" in name for name in samples)

    def test_json_format_keeps_stdout_clean(self, tmp_path, capsys):
        ledger = tmp_path / "run.jsonl"
        code = main(
            [
                "run",
                "Bro217",
                "--scale",
                "0.05",
                "--trace-bytes",
                "4096",
                "--ledger",
                str(ledger),
                "--format",
                "json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)  # stdout is pure JSON
        assert summary["benchmark"] == "Bro217"
        assert "ledger written" in captured.err


class TestRunDrift:
    def _analyze(self, tmp_path, capsys) -> str:
        path = tmp_path / "ANALYZE.json"
        code = main(
            [
                "analyze",
                "Bro217",
                "--scale",
                "0.05",
                "--trace-bytes",
                "4096",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return str(path)

    def _run(self, extra):
        return [
            "run",
            "Bro217",
            "--scale",
            "0.05",
            "--trace-bytes",
            "4096",
            "--format",
            "json",
        ] + extra

    def test_matching_prediction_is_quiet(self, tmp_path, capsys):
        artifact = self._analyze(tmp_path, capsys)
        code = main(self._run(["--drift-baseline", artifact]))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["drift"] == []

    def test_perturbed_prediction_fires_ap401(self, tmp_path, capsys):
        artifact = self._analyze(tmp_path, capsys)
        payload = json.loads(open(artifact).read())
        prediction = payload["workloads"]["Bro217@r1"]["prediction"]
        prediction["enumeration_cycles"] = int(
            prediction["enumeration_cycles"] * 1.5
        )
        with open(artifact, "w") as handle:
            json.dump(payload, handle)
        code = main(
            self._run(
                ["--drift-baseline", artifact, "--drift-tolerance", "0.1"]
            )
        )
        assert code == 0  # drift warns, never fails the run
        summary = json.loads(capsys.readouterr().out)
        assert [d["code"] for d in summary["drift"]] == ["AP401"]

    def test_missing_baseline_exits_one(self, tmp_path, capsys):
        code = main(
            self._run(
                ["--drift-baseline", str(tmp_path / "nope.json")]
            )
        )
        assert code == 1
        assert "cannot load" in capsys.readouterr().err

    def test_bad_drift_arguments_stop_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        """A non-positive tolerance (usage, exit 2) and a missing
        baseline (exit 1) are reported before any run starts, and the
        missing baseline opens no ledger."""

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("repro.cli.run_benchmark", no_run)
        artifact = self._analyze(tmp_path, capsys)
        for tolerance in ("0", "-1"):
            with pytest.raises(SystemExit) as excinfo:
                main(
                    self._run(
                        [
                            "--drift-baseline",
                            artifact,
                            "--drift-tolerance",
                            tolerance,
                        ]
                    )
                )
            assert excinfo.value.code == 2
            assert "must be positive" in capsys.readouterr().err
        ledger = tmp_path / "run.jsonl"
        code = main(
            self._run(
                [
                    "--drift-baseline",
                    str(tmp_path / "nope.json"),
                    "--ledger",
                    str(ledger),
                ]
            )
        )
        assert code == 1
        assert "cannot load" in capsys.readouterr().err
        assert not ledger.exists()


class TestObsSummary:
    def test_ledger_summary_text(self, run_artifacts, capsys):
        ledger, _ = run_artifacts
        assert main(["obs", "summary", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "run              :" in out
        assert "sealed yes" in out

    def test_ledger_summary_json(self, run_artifacts, capsys):
        ledger, _ = run_artifacts
        assert main(["obs", "summary", str(ledger), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sealed"] is True
        assert summary["kinds"]["open"] == 1

    def test_openmetrics_summary(self, run_artifacts, capsys):
        _, metrics = run_artifacts
        assert main(["obs", "summary", str(metrics)]) == 0
        assert "samples" in capsys.readouterr().out

    def test_invalid_ledger_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 99, "kind": "open"}\n')
        assert main(["obs", "summary", str(bad)]) == 1
        assert "schema" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["obs", "summary", str(tmp_path / "nope")]) == 1

    def test_serial_ledger_has_no_workers_section(
        self, run_artifacts, capsys
    ):
        ledger, _ = run_artifacts
        assert main(["obs", "summary", str(ledger)]) == 0
        assert "workers" not in capsys.readouterr().out


class TestObsSummaryWorkers:
    @pytest.fixture(scope="class")
    def process_ledger(self, tmp_path_factory):
        """One process-backend run whose ledger carries worker batches."""
        ledger = tmp_path_factory.mktemp("obs-workers") / "run.jsonl"
        code = main(
            [
                "run",
                "Bro217",
                "--scale",
                "0.05",
                "--trace-bytes",
                "4096",
                "--backend",
                "process",
                "--workers",
                "1",
                "--ledger",
                str(ledger),
            ]
        )
        assert code == 0
        return ledger

    def test_text_summary_grows_worker_section(
        self, process_ledger, capsys
    ):
        assert main(["obs", "summary", str(process_ledger)]) == 0
        out = capsys.readouterr().out
        assert "workers          :" in out
        assert "worker wall      :" in out
        assert "compile" in out and "hit" in out

    def test_json_summary_carries_worker_rollup(
        self, process_ledger, capsys
    ):
        code = main(
            ["obs", "summary", str(process_ledger), "--format", "json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        workers = summary["workers"]
        assert workers["batches"] >= 1
        assert workers["records"] >= workers["batches"]
        assert workers["dispatches"] == workers["batches"]
        assert len(workers["pids"]) == 1
        per_pid = workers["per_pid"][str(workers["pids"][0])]
        assert per_pid["compile_hits"] + per_pid["compile_misses"] == (
            per_pid["batches"]
        )

    def test_worker_records_carry_lineage_in_ledger(self, process_ledger):
        records = read_ledger(str(process_ledger))
        run_id = records[0]["run"]
        worker_lines = [
            r
            for r in records
            if str(r.get("track", "")).startswith("pid")
        ]
        assert worker_lines
        for record in worker_lines:
            args = record.get("args") or {}
            assert args.get("pid")
            assert args.get("parent_span") is not None
            assert args.get("run") == run_id


class TestObsExport:
    def test_export_openmetrics_to_file(
        self, run_artifacts, tmp_path, capsys
    ):
        ledger, _ = run_artifacts
        out = tmp_path / "export.prom"
        code = main(["obs", "export", str(ledger), "-o", str(out)])
        assert code == 0
        samples = parse_openmetrics(out.read_text())
        assert samples["repro_exec_dispatches_total"] >= 1

    def test_export_json_to_stdout(self, run_artifacts, capsys):
        ledger, _ = run_artifacts
        code = main(
            ["obs", "export", str(ledger), "--format", "json"]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["exec.dispatches"]["type"] == "counter"

    def test_unsealed_ledger_exits_one(self, run_artifacts, tmp_path, capsys):
        ledger, _ = run_artifacts
        lines = ledger.read_text().splitlines()
        truncated = tmp_path / "unsealed.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["obs", "export", str(truncated)]) == 1
        assert "no close record" in capsys.readouterr().err


class TestObsDiff:
    def test_identical_exits_zero(self, run_artifacts, capsys):
        ledger, _ = run_artifacts
        code = main(["obs", "diff", str(ledger), str(ledger)])
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_ledger_vs_its_own_export_is_identical(
        self, run_artifacts, capsys
    ):
        # The run's --metrics-export snapshots slightly *after* the
        # ledger close record (the close itself is a record), so diff
        # the ledger against an `obs export` of itself instead.
        ledger, _ = run_artifacts
        export = ledger.parent / "roundtrip.prom"
        assert main(["obs", "export", str(ledger), "-o", str(export)]) == 0
        capsys.readouterr()
        code = main(["obs", "diff", str(ledger), str(export)])
        assert code == 0

    def test_different_runs_exit_one(
        self, run_artifacts, tmp_path, capsys
    ):
        ledger, _ = run_artifacts
        other = tmp_path / "other.jsonl"
        code = main(
            [
                "run",
                "Ranges1",
                "--scale",
                "0.05",
                "--trace-bytes",
                "4096",
                "--ledger",
                str(other),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(ledger), str(other)]) == 1
        out = capsys.readouterr().out
        assert "changed" in out or "added" in out

    def test_missing_operand_exits_one(self, run_artifacts, tmp_path):
        ledger, _ = run_artifacts
        assert (
            main(["obs", "diff", str(ledger), str(tmp_path / "nope")])
            == 1
        )
