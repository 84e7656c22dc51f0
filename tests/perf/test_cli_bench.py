"""Tests for the `repro bench run/compare/report` CLI family.

Covers the acceptance flow: `bench run --out BENCH_x.json` then
self-compare exits 0 all-clean; any difference (a perturbed cycle
metric, or a metric or workload on one side only) makes `compare` exit
1 and name it; usage errors exit 2.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.exec import FaultPlan


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """One real (tiny) bench run captured as an artifact."""
    path = tmp_path_factory.mktemp("bench") / "BENCH_x.json"
    code = main(
        [
            "bench",
            "run",
            "--benchmarks",
            "Bro217",
            "--scale",
            "0.05",
            "--trace-bytes",
            "4096",
            "--label",
            "x",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_bench_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["bench", "compare", "a", "b"])
        assert args.format == "text"

    def test_run_defaults(self):
        args = build_parser().parse_args(["bench", "run"])
        assert args.benchmarks == ""
        assert args.label == "local"

    @pytest.mark.parametrize(
        "command, removed",
        [
            (["bench", "run"], ("--warmup", "--repeats")),
            (
                ["bench", "compare", "a.json", "b.json"],
                ("--wall-tolerance", "--mad-factor", "--fail-on"),
            ),
        ],
    )
    def test_wall_flags_are_gone(self, command, removed, capsys):
        """`repro bench` records and gates cycles only; its help names
        none of the wall-band flags, and argparse rejects them."""
        build_parser().parse_args(command)
        with pytest.raises(SystemExit):
            main(command[:2] + ["--help"])
        helptext = capsys.readouterr().out
        for flag in removed:
            assert flag not in helptext
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(command + [flag, "1"])
            assert excinfo.value.code == 2


class TestBenchRun:
    def test_artifact_shape(self, artifact):
        payload = json.loads(artifact.read_text())
        assert payload["schema_version"] == 1
        assert payload["label"] == "x"
        record = payload["benchmarks"]["Bro217@r1"]
        assert record["cycles"]["reports_match"] is True
        assert "wall" not in record

    def test_unknown_benchmark_is_operational_error(self, tmp_path, capsys):
        """A bad workload name exits 1 with a one-line message (the flag
        itself was well-formed, so it is not a usage error)."""
        code = main(
            [
                "bench",
                "run",
                "--benchmarks",
                "NotABenchmark",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 1
        assert "NotABenchmark" in capsys.readouterr().err

    def test_bad_fault_spec_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "run",
                "--benchmarks",
                "Bro217",
                "--inject-faults",
                "rate=0.5",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_in_process_segment_timeout_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(
            [
                "bench",
                "run",
                "--benchmarks",
                "Bro217",
                "--segment-timeout",
                "30",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "segment timeout" in capsys.readouterr().err
        assert not out.exists()

    def test_admission_flags_are_run_only(self, tmp_path):
        """The admission guard is a `repro run` option: `bench run`
        rejects its flags as a usage error instead of dropping them and
        writing an artifact."""
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "bench",
                    "run",
                    "--benchmarks",
                    "Ranges1",
                    "--scale",
                    "0.05",
                    "--trace-bytes",
                    "2048",
                    "--memory-budget",
                    "1",
                    "--out",
                    str(out),
                ]
            )
        assert excinfo.value.code == 2
        assert not out.exists()

    def test_parameters_block_records_every_run_option(self, tmp_path):
        """The artifact's ``parameters`` name the backend, the requested
        engine and every run option the flags set, value for value."""
        out = tmp_path / "x.json"
        ckpt = str(tmp_path / "ckpt")
        spec = "seed=7,rate=0.3,kinds=transient"
        code = main(
            [
                "bench",
                "run",
                "--benchmarks",
                "Ranges1",
                "--scale",
                "0.05",
                "--trace-bytes",
                "4096",
                "--backend",
                "process",
                "--workers",
                "2",
                "--engine",
                "vector",
                "--retries",
                "2",
                "--segment-timeout",
                "30",
                "--inject-faults",
                spec,
                "--checkpoint",
                ckpt,
                "--hedge-after",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["parameters"] == {
            "scale": 0.05,
            "seed": 0,
            "ranks": 1,
            "trace_bytes": 4096,
            "modeled_bytes": 1_048_576,
            "backend": "process",
            "engine": "vector",
            "workers": 2,
            "use_fiv": True,
            "benchmarks": ["Ranges1"],
            "retries": 2,
            "segment_timeout_s": 30.0,
            "faults": FaultPlan.parse(spec).to_dict(),
            "checkpoint": ckpt,
            "resume": False,
            "hedge": True,
        }


class TestBenchCompare:
    def test_self_compare_clean(self, artifact, capsys):
        code = main(
            ["bench", "compare", str(artifact), str(artifact)]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "metric", ["pap_cycles", "speedup", "fiv_invalidations"]
    )
    def test_perturbed_cycle_metric_fails_and_is_named(
        self, artifact, tmp_path, capsys, metric
    ):
        payload = json.loads(artifact.read_text())
        cycles = payload["benchmarks"]["Bro217@r1"]["cycles"]
        cycles[metric] = cycles[metric] + 1
        perturbed = tmp_path / f"BENCH_{metric}.json"
        perturbed.write_text(json.dumps(payload))
        code = main(
            ["bench", "compare", str(artifact), str(perturbed)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert metric in out
        assert "REGRESSION" in out

    def test_metric_on_one_side_only_fails(self, artifact, tmp_path, capsys):
        payload = json.loads(artifact.read_text())
        del payload["benchmarks"]["Bro217@r1"]["cycles"]["pap_cycles"]
        fewer = tmp_path / "BENCH_fewer.json"
        fewer.write_text(json.dumps(payload))
        assert main(["bench", "compare", str(artifact), str(fewer)]) == 1
        assert "[REMOVED] Bro217@r1 cycles.pap_cycles" in capsys.readouterr().out
        assert main(["bench", "compare", str(fewer), str(artifact)]) == 1
        assert "[NEW] Bro217@r1 cycles.pap_cycles" in capsys.readouterr().out

    def test_workload_on_one_side_only_fails(self, artifact, tmp_path, capsys):
        payload = json.loads(artifact.read_text())
        payload["benchmarks"]["Extra@r1"] = payload["benchmarks"]["Bro217@r1"]
        more = tmp_path / "BENCH_more.json"
        more.write_text(json.dumps(payload))
        assert main(["bench", "compare", str(artifact), str(more)]) == 1
        assert "[NEW] Extra@r1" in capsys.readouterr().out
        assert main(["bench", "compare", str(more), str(artifact)]) == 1
        assert "[REMOVED] Extra@r1" in capsys.readouterr().out

    def test_missing_baseline_is_usage_error(self, artifact, capsys):
        code = main(
            ["bench", "compare", "/nonexistent/BENCH.json", str(artifact)]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_schema_is_usage_error(self, artifact, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"schema_version": 99, "label": "?", "benchmarks": {}}
            )
        )
        code = main(["bench", "compare", str(bad), str(artifact)])
        assert code == 2
        assert "schema_version" in capsys.readouterr().err

    def test_json_format(self, artifact, capsys):
        code = main(
            [
                "bench",
                "compare",
                str(artifact),
                str(artifact),
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True


class TestBenchReport:
    def test_text_report(self, artifact, capsys):
        assert main(["bench", "report", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "Bro217@r1" in out
        assert "geomean" in out

    def test_markdown_report(self, artifact, capsys):
        code = main(
            ["bench", "report", str(artifact), "--format", "markdown"]
        )
        assert code == 0
        assert "| benchmark |" in capsys.readouterr().out

    def test_missing_artifact_is_usage_error(self, capsys):
        assert main(["bench", "report", "/nonexistent.json"]) == 2
