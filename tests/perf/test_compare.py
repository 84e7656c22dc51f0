"""Tests for the dual-domain comparison engine."""

from repro.perf.artifact import BenchmarkRecord, PerfReport
from repro.perf.compare import (
    ChangeKind,
    PerfDiff,
    TolerancePolicy,
    compare_reports,
)
from repro.perf.measure import WallClockStats


def record(key="A@r1", wall=None, **cycles):
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
        wall=wall,
    )


def report(label, *records):
    out = PerfReport(label=label)
    for rec in records:
        out.add(rec)
    return out


def wall(median, mad=0.0):
    return WallClockStats(median, mad, repeats=3, warmup=1)


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


class TestWallDomain:
    POLICY = TolerancePolicy(wall_rel_tolerance=0.10, mad_factor=3.0)

    def compare(self, base_wall, cand_wall):
        return compare_reports(
            report("a", record(wall=base_wall)),
            report("b", record(wall=cand_wall)),
            policy=self.POLICY,
        )

    def test_noise_inside_threshold_is_clean(self):
        # Band: 10% of 1.0 plus 3*(0.01+0.01) = 0.16.
        diff = self.compare(wall(1.0, 0.01), wall(1.16, 0.01))
        assert diff.clean

    def test_slowdown_outside_threshold_regresses(self):
        diff = self.compare(wall(1.0, 0.01), wall(1.17, 0.01))
        assert len(diff.regressions) == 1
        change = diff.regressions[0]
        assert change.domain == "wall"
        assert change.metric == "median_s"

    def test_speedup_outside_threshold_improves(self):
        diff = self.compare(wall(1.0, 0.01), wall(0.83, 0.01))
        assert [c.kind for c in diff.changes] == [ChangeKind.IMPROVEMENT]

    def test_missing_wall_stats_skip_wall_compare(self):
        diff = compare_reports(
            report("a", record(wall=wall(1.0))),
            report("b", record(wall=None)),
        )
        assert diff.clean

    def test_noisy_runs_widen_the_band(self):
        # Same +17% move is forgiven when the MADs say it's noise.
        diff = self.compare(wall(1.0, 0.05), wall(1.17, 0.05))
        assert diff.clean


class TestDiffShape:
    def test_exit_semantics_by_domain(self):
        diff = compare_reports(
            report("a", record(pap_cycles=1_000, wall=wall(1.0))),
            report("b", record(pap_cycles=1_000, wall=wall(5.0))),
        )
        assert diff.regressions_in(("wall",))
        assert not diff.regressions_in(("cycles", "suite"))

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
