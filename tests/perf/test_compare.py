"""Tests for the exact comparison engine."""

from repro.perf.artifact import BenchmarkRecord, PerfReport
from repro.perf.compare import ChangeKind, PerfDiff, compare_reports


def record(key="A@r1", **cycles):
    base = {
        "baseline_cycles": 4_000,
        "pap_cycles": 1_000,
        "speedup": 4.0,
        "reports_match": True,
    }
    base.update(cycles)
    return BenchmarkRecord(
        key=key,
        name=key.split("@")[0],
        ranks=1,
        trace_bytes=8_192,
        cycles=base,
    )


def report(label, *records):
    out = PerfReport(label=label)
    for rec in records:
        out.add(rec)
    return out


class TestCycleDomain:
    def test_identical_reports_are_clean(self):
        diff = compare_reports(
            report("a", record()), report("b", record())
        )
        assert diff.clean
        assert diff.changes == []

    def test_any_cycle_drift_is_a_regression(self):
        diff = compare_reports(
            report("a", record(pap_cycles=1_000)),
            report("b", record(pap_cycles=1_001)),
        )
        assert [c.kind for c in diff.changes] == [ChangeKind.REGRESSION]
        change = diff.regressions[0]
        assert change.metric == "pap_cycles"
        assert change.domain == "cycles"
        assert "pap_cycles" in change.describe()

    def test_faster_cycles_still_flagged(self):
        # Cycle metrics are fidelity: an unexplained improvement is
        # still drift and must force a deliberate re-baseline.
        diff = compare_reports(
            report("a", record(pap_cycles=1_000)),
            report("b", record(pap_cycles=900)),
        )
        assert len(diff.regressions) == 1

    def test_zero_cycle_runs_compare_without_error(self):
        base = record(pap_cycles=0, baseline_cycles=0, speedup=1.0)
        diff = compare_reports(report("a", base), report("b", base))
        assert diff.clean
        drifted = record(pap_cycles=5, baseline_cycles=0, speedup=1.0)
        diff = compare_reports(report("a", base), report("b", drifted))
        assert len(diff.regressions) == 1
        assert "baseline was 0" in diff.regressions[0].detail

    def test_metric_added_and_removed(self):
        diff = compare_reports(
            report("a", record(old_metric=7)),
            report("b", record(new_metric=9)),
        )
        kinds = {c.metric: c.kind for c in diff.changes}
        assert kinds["old_metric"] is ChangeKind.REMOVED
        assert kinds["new_metric"] is ChangeKind.NEW
        assert not diff.regressions


class TestSuiteMembership:
    def test_benchmark_added_and_removed(self):
        diff = compare_reports(
            report("a", record("Old@r1")),
            report("b", record("New@r1")),
        )
        assert [c.benchmark for c in diff.added] == ["New@r1"]
        assert [c.benchmark for c in diff.removed] == ["Old@r1"]
        assert not diff.regressions
        assert not diff.clean


class TestDiffShape:
    def test_to_dict_counts(self):
        diff = compare_reports(
            report("a", record(pap_cycles=1_000), record("B@r1")),
            report("b", record(pap_cycles=2_000)),
        )
        payload = diff.to_dict()
        assert payload["clean"] is False
        assert payload["counts"]["regression"] == 1
        assert payload["counts"]["removed"] == 1
        assert {c["kind"] for c in payload["changes"]} == {
            "regression",
            "removed",
        }

    def test_clean_to_dict(self):
        payload = compare_reports(
            PerfReport(label="x"), PerfReport(label="y")
        ).to_dict()
        assert payload["clean"] is True
        assert payload["counts"]["regression"] == 0

    def test_empty_diff_is_clean(self):
        diff = PerfDiff(baseline_label="a", candidate_label="b")
        assert diff.clean
