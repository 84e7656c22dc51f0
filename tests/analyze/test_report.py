"""Suite reports, the baseline comparison gate, renderers, and the
``repro analyze`` CLI wiring."""

import json

import pytest

from repro.analyze.render import (
    CODE_MISSING_BASELINE,
    CODE_OUT_OF_TOLERANCE,
    CODE_PREDICTION,
    analysis_diagnostics,
    render_analysis_sarif,
    render_analysis_text,
)
from repro.analyze.report import (
    analyze_suite,
    analyze_workload,
    compare_to_baseline,
    load_baseline,
)
from repro.cli import main
from repro.errors import ConfigurationError
from repro.workloads.suite import build_benchmark


@pytest.fixture(scope="module")
def report():
    return analyze_suite(
        ("ExactMatch", "Ranges05"),
        label="test",
        scale=0.05,
        seed=7,
        trace_bytes=8192,
        modeled_bytes=None,
    )


def baseline_from(report, *, skew=1.0, drop=()):
    """A synthetic BENCH payload that matches ``report`` exactly (or
    with every actual skewed by ``skew``)."""
    benchmarks = {}
    for workload in report.workloads:
        if workload.name in drop:
            continue
        benchmarks[workload.key] = {
            "cycles": {
                "enumeration_cycles": int(
                    workload.prediction.enumeration_cycles * skew
                ),
                "speedup": workload.prediction.speedup,
            }
        }
    return {"benchmarks": benchmarks}


class TestWorkloadAnalysis:
    def test_key_matches_bench_artifact_convention(self):
        bench = build_benchmark("ExactMatch", scale=0.05, seed=7)
        row = analyze_workload(bench, ranks=1, trace_bytes=8192)
        assert row.key == "ExactMatch@r1"
        payload = row.to_dict()
        assert payload["name"] == "ExactMatch"
        assert payload["prediction"]["predicted_cycles"] > 0
        assert payload["half_cores"] == bench.half_cores
        assert "plan" not in payload

    def test_report_serializes(self, report):
        payload = report.to_dict()
        assert payload["label"] == "test"
        assert payload["summary"]["workloads"] == 2
        assert set(payload["workloads"]) == {
            "ExactMatch@r1",
            "Ranges05@r1",
        }
        round_tripped = json.loads(report.to_json())
        assert round_tripped["parameters"]["scale"] == 0.05

    def test_workload_lookup(self, report):
        assert report.workload("ExactMatch").name == "ExactMatch"
        with pytest.raises(KeyError):
            report.workload("NoSuch")


class TestCompareToBaseline:
    def test_exact_baseline_passes(self, report):
        compared = compare_to_baseline(report, baseline_from(report))
        assert compared.compared
        assert compared.passed
        assert compared.max_abs_error == 0.0
        assert len(compared.comparison) == 2
        assert not compared.missing_from_baseline

    def test_skewed_baseline_fails(self, report):
        compared = compare_to_baseline(
            report, baseline_from(report, skew=2.0)
        )
        assert not compared.passed
        assert all(not row.passed for row in compared.comparison)
        # Predictions are half the skewed actuals: error -50%.
        assert compared.max_abs_error == pytest.approx(0.5)

    def test_missing_workload_fails_the_gate(self, report):
        compared = compare_to_baseline(
            report, baseline_from(report, drop=("Ranges05",))
        )
        assert not compared.passed
        assert compared.missing_from_baseline == ("Ranges05@r1",)
        assert len(compared.comparison) == 1

    def test_tolerance_must_be_positive(self, report):
        with pytest.raises(ConfigurationError, match="tolerance"):
            compare_to_baseline(report, baseline_from(report), tolerance=0)

    def test_input_report_unchanged(self, report):
        compare_to_baseline(report, baseline_from(report))
        assert not report.compared

    def test_load_baseline_rejects_non_artifacts(self, tmp_path):
        path = tmp_path / "notbench.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ConfigurationError, match="benchmarks"):
            load_baseline(path)


class TestRenderers:
    def test_text_lists_every_workload(self, report):
        text = render_analysis_text(report)
        assert "ExactMatch" in text and "Ranges05" in text
        assert "comparison" not in text  # no baseline attached

    def test_text_shows_gate_verdict(self, report):
        passing = compare_to_baseline(report, baseline_from(report))
        assert "PASS" in render_analysis_text(passing)
        failing = compare_to_baseline(
            report, baseline_from(report, skew=2.0)
        )
        text = render_analysis_text(failing)
        assert "FAIL" in text and "OUT OF TOLERANCE" in text

    def test_sarif_is_valid_and_carries_predictions(self, report):
        log = json.loads(render_analysis_sarif(report))
        assert log["version"] == "2.1.0"
        [run] = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        codes = {result["ruleId"] for result in run["results"]}
        assert CODE_PREDICTION in codes

    def test_diagnostics_cover_the_finding_kinds(self, report):
        clean = analysis_diagnostics(report)
        assert {d.code for d in clean} == {CODE_PREDICTION}

        failing = compare_to_baseline(
            report, baseline_from(report, skew=2.0, drop=("Ranges05",))
        )
        codes = {d.code for d in analysis_diagnostics(failing)}
        assert CODE_OUT_OF_TOLERANCE in codes
        assert CODE_MISSING_BASELINE in codes


class TestAnalyzeCli:
    ARGS = [
        "analyze",
        "ExactMatch",
        "--scale",
        "0.05",
        "--seed",
        "7",
        "--trace-bytes",
        "8192",
    ]

    def test_text_output(self, capsys):
        exit_code = main(self.ARGS)
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "ExactMatch" in out

    def test_json_output_and_report_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        exit_code = main(
            [*self.ARGS, "--format", "json", "--out", str(out_path)]
        )
        assert exit_code == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(out_path.read_text())
        assert (
            stdout_payload["workloads"].keys()
            == file_payload["workloads"].keys()
        )

    def test_sarif_output(self, capsys):
        exit_code = main([*self.ARGS, "--format", "sarif"])
        assert exit_code == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"]

    def test_baseline_gate_failure_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "benchmarks": {
                        "ExactMatch@r1": {
                            "cycles": {
                                "enumeration_cycles": 1,
                                "speedup": 1.0,
                            }
                        }
                    }
                }
            )
        )
        exit_code = main([*self.ARGS, "--baseline", str(path)])
        capsys.readouterr()
        assert exit_code == 1

    def test_bad_baseline_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        exit_code = main([*self.ARGS, "--baseline", str(path)])
        assert exit_code == 2
        assert "not a BENCH artifact" in capsys.readouterr().err

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "NoSuchBenchmark"])
