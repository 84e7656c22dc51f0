"""Tests for the BENCH_*.json artifact schema and (de)serialization."""

import json
from pathlib import Path

import pytest

from repro.errors import ArtifactError
from repro.perf.artifact import (
    SCHEMA_VERSION,
    BenchmarkRecord,
    PerfReport,
    load_report,
    report_from_runs,
    run_key,
)
from repro.perf.bench import run_bench_suite
from repro.perf.compare import compare_reports
from repro.sim.runner import run_benchmark
from repro.workloads.suite import build_benchmark

SMOKE_ANCHOR = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "baselines" / "smoke.json"
)


@pytest.fixture(scope="module")
def run():
    bench = build_benchmark("Bro217", scale=0.05, seed=0)
    return run_benchmark(bench, ranks=1, trace_bytes=4_096)


def make_record(key="Synth@r1", **cycles) -> BenchmarkRecord:
    base = {"pap_cycles": 100, "baseline_cycles": 400, "speedup": 4.0}
    base.update(cycles)
    return BenchmarkRecord(
        key=key,
        name=key.split("@")[0],
        ranks=1,
        trace_bytes=4_096,
        cycles=base,
    )


class TestRecord:
    def test_from_run_lifts_cycle_metrics(self, run):
        record = BenchmarkRecord.from_run(run)
        assert record.key == "Bro217@r1"
        assert record.cycles["pap_cycles"] == run.pap.total_cycles
        assert record.cycles["baseline_cycles"] == run.baseline.total_cycles
        assert record.speedup == run.speedup

    def test_run_key_with_suffix(self):
        assert run_key("Snort", 4) == "Snort@r4"
        assert run_key("Snort", 4, "10MB") == "Snort@r4/10MB"

    def test_round_trip(self, run):
        record = BenchmarkRecord.from_run(run)
        again = BenchmarkRecord.from_dict(record.key, record.to_dict())
        assert again == record

    def test_legacy_wall_block_is_not_read(self, run):
        """Artifacts written when records timed their runs carry a
        ``wall`` block; it loads, is dropped, and compares clean."""
        record = BenchmarkRecord.from_run(run)
        legacy = record.to_dict()
        legacy["wall"] = {
            "median_s": 0.5,
            "mad_s": 0.01,
            "repeats": 3,
            "warmup": 1,
            "samples_s": [0.49, 0.5, 0.51],
        }
        loaded = BenchmarkRecord.from_dict(record.key, legacy)
        assert loaded == record
        assert "wall" not in loaded.to_dict()
        old, new = PerfReport(label="old"), PerfReport(label="new")
        old.add(loaded)
        new.add(record)
        assert compare_reports(old, new).clean

    def test_malformed_record_raises(self):
        with pytest.raises(ArtifactError, match="malformed"):
            BenchmarkRecord.from_dict("x", {"name": "x"})


class TestPerfReport:
    def test_write_and_load(self, run, tmp_path):
        report = PerfReport(label="unit")
        report.add(BenchmarkRecord.from_run(run))
        path = report.write(tmp_path / "BENCH_unit.json")
        loaded = load_report(path)
        assert loaded.label == "unit"
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.benchmarks.keys() == report.benchmarks.keys()
        assert (
            loaded.benchmarks["Bro217@r1"].cycles
            == report.benchmarks["Bro217@r1"].cycles
        )

    def test_serialized_keys_are_sorted(self, tmp_path):
        report = PerfReport(label="order")
        report.add(make_record("Zeta@r1"))
        report.add(make_record("Alpha@r1"))
        payload = json.loads(
            report.write(tmp_path / "b.json").read_text()
        )
        assert list(payload["benchmarks"]) == ["Alpha@r1", "Zeta@r1"]
        cycles = payload["benchmarks"]["Alpha@r1"]["cycles"]
        assert list(cycles) == sorted(cycles)

    def test_geomean_speedup(self):
        report = PerfReport(label="g")
        report.add(make_record("A@r1", speedup=2.0))
        report.add(make_record("B@r1", speedup=8.0))
        assert report.geomean_speedup == pytest.approx(4.0)

    def test_geomean_none_when_empty(self):
        assert PerfReport(label="empty").geomean_speedup is None

    def test_unsupported_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps(
                {"schema_version": 999, "label": "x", "benchmarks": {}}
            )
        )
        with pytest.raises(ArtifactError, match="schema_version"):
            load_report(path)

    def test_non_object_benchmarks_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(
            json.dumps(
                {"schema_version": 1, "label": "x", "benchmarks": []}
            )
        )
        with pytest.raises(ArtifactError, match="must be an object"):
            load_report(path)

    def test_missing_file_raises_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            load_report(tmp_path / "absent.json")

    def test_invalid_json_raises_artifact_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_report(path)

    def test_report_from_runs_uses_given_keys(self, run):
        report = report_from_runs(
            {"full": run, "no-fiv": run}, label="sweep"
        )
        assert set(report.benchmarks) == {"full", "no-fiv"}


class TestSweepHook:
    def test_sweep_report_serializes(self, tmp_path):
        from repro.sim.sweep import sweep_report, tdm_slice_sweep

        bench = build_benchmark("Bro217", scale=0.05, seed=0)
        sweep = tdm_slice_sweep(
            bench, slice_sizes=(64, 128), trace_bytes=2_048
        )
        report = sweep_report(sweep, label="tdm")
        assert set(report.benchmarks) == {"64", "128"}
        loaded = load_report(report.write(tmp_path / "sweep.json"))
        assert set(loaded.benchmarks) == {"64", "128"}


class TestCommittedAnchor:
    def test_smoke_anchor_is_current(self):
        """The smoke baseline equals what today's code records at its
        own parameters, and it holds cycles only (no wall block)."""
        anchor_payload = json.loads(SMOKE_ANCHOR.read_text())
        params = anchor_payload["parameters"]
        fresh = run_bench_suite(
            tuple(params["benchmarks"]),
            label="fresh",
            scale=params["scale"],
            seed=params["seed"],
            trace_bytes=params["trace_bytes"],
            modeled_bytes=params["modeled_bytes"],
        )
        diff = compare_reports(load_report(SMOKE_ANCHOR), fresh)
        assert diff.clean, [change.describe() for change in diff.changes]
        assert all(
            "wall" not in record
            for record in anchor_payload["benchmarks"].values()
        )
