"""Tests for the experiment harness (runner, sweeps, report rendering)."""

import json

import pytest

from repro.errors import ExecutionError
from repro.sim.report import (
    format_figure3,
    format_figure8,
    format_figure9,
    format_figure10,
    format_figure11,
    format_figure12,
    format_table1,
)
from repro.sim.runner import geometric_mean, run_benchmark
from repro.sim.sweep import ablation_sweep, context_switch_sweep, tdm_slice_sweep
from repro.workloads.suite import build_benchmark
from repro.core.ranges import range_profile
from repro.automata.analysis import AutomatonAnalysis


@pytest.fixture(scope="module")
def bench():
    return build_benchmark("Bro217", scale=0.05, seed=0)


@pytest.fixture(scope="module")
def run(bench):
    return run_benchmark(bench, ranks=1, trace_bytes=8_192)


class TestRunBenchmark:
    def test_reports_verified(self, run):
        assert run.reports_match

    def test_speedup_bounds(self, run):
        assert 0.99 <= run.speedup <= run.ideal_speedup * 1.02 + 0.5

    def test_ideal_is_segment_count(self, run):
        assert run.ideal_speedup == run.pap.num_segments

    def test_modeled_bytes_scales_overheads(self, bench):
        raw = run_benchmark(bench, ranks=1, trace_bytes=8_192)
        scaled = run_benchmark(
            bench, ranks=1, trace_bytes=8_192, modeled_bytes=1_048_576
        )
        # Scaled per-segment constants can only help.
        assert scaled.speedup >= raw.speedup * 0.99

    def test_extra_transitions_at_least_baseline(self, run):
        assert run.extra_transitions_per_symbol >= 0.99

    def test_ranks_change_segments(self, bench):
        four = run_benchmark(bench, ranks=4, trace_bytes=8_192)
        assert four.ideal_speedup == 64

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_empty_raises(self):
        # A silent 0.0 would poison any baseline comparison.
        with pytest.raises(ValueError, match="empty"):
            geometric_mean([])

    def test_to_dict_round_trips_through_json(self, run):
        payload = run.to_dict()
        decoded = json.loads(json.dumps(payload))
        assert decoded == payload
        assert payload["name"] == "Bro217"
        cycles = payload["cycles"]
        assert cycles["baseline_cycles"] == run.baseline.total_cycles
        assert cycles["pap_cycles"] == run.pap.total_cycles
        assert cycles["speedup"] == run.speedup
        assert cycles["reports_match"] is True

    def test_reference_memo_in_telemetry_not_cycles(self, run):
        """What the reference check's memo did moves the wall, never the
        cycles: it rides in BENCH telemetry, outside the gated payload."""
        from repro.perf.artifact import BenchmarkRecord

        record = BenchmarkRecord.from_run(run)
        memo = record.telemetry["reference"]
        assert memo == run.baseline.reference.to_dict()
        assert memo["hits"] + memo["misses"] == run.trace_bytes - 1
        assert memo["dfa_states"] > 0 and memo["memo_bytes"] > 0
        assert record.telemetry["reference_reason"] == (
            "lazy-dfa: memo kept to the end"
        )
        assert not any(
            "reference" in key or "memo" in key for key in record.cycles
        )

    def test_to_dict_is_deterministic(self, bench):
        first = run_benchmark(bench, ranks=1, trace_bytes=8_192)
        second = run_benchmark(bench, ranks=1, trace_bytes=8_192)
        assert first.to_dict() == second.to_dict()


class TestSweeps:
    def test_context_switch_monotone(self, bench):
        sweep = context_switch_sweep(
            bench, factors=(1, 4), trace_bytes=8_192
        )
        assert sweep[4].speedup <= sweep[1].speedup + 1e-9

    def test_ablations_preserve_reports(self, bench):
        sweep = ablation_sweep(
            bench,
            trace_bytes=4_096,
            toggles=("use_asg", "use_deactivation"),
        )
        assert set(sweep) == {"full", "no-asg", "no-deactivation"}
        for run in sweep.values():
            assert run.reports_match

    def test_tdm_slice_sweep_keys(self, bench):
        sweep = tdm_slice_sweep(
            bench, slice_sizes=(32, 256), trace_bytes=4_096
        )
        assert set(sweep) == {32, 256}
        assert all(r.reports_match for r in sweep.values())


class TestReportFormatting:
    def test_table1_renders(self, bench):
        analysis = AutomatonAnalysis(bench.automaton)
        text = format_table1(
            [(bench, bench.automaton.num_states, 3, 7)]
        )
        assert "Bro217" in text
        assert "Paper:States" in text
        del analysis

    def test_figure3_renders(self, bench):
        profile = range_profile(AutomatonAnalysis(bench.automaton))
        text = format_figure3(
            [("Bro217", bench.automaton.num_states, profile)]
        )
        assert "RangeAvg" in text

    def test_figure8_renders_with_geomean(self, run):
        text = format_figure8([run], label="test")
        assert "geomean" in text
        assert "Bro217" in text

    def test_figure9_through_12_render(self, run):
        for formatter in (
            format_figure9,
            format_figure10,
            format_figure11,
            format_figure12,
        ):
            text = formatter([run])
            assert "Bro217" in text


class TestVerification:
    def test_divergence_raises(self, bench, monkeypatch):
        """A baseline/PAP mismatch must abort the measurement."""
        from dataclasses import replace as dc_replace

        from repro.automata.execution import Report
        from repro.sim import runner as runner_module

        real = runner_module.run_sequential

        def corrupted(*args, **kwargs):
            result = real(*args, **kwargs)
            poisoned = result.reports | {
                Report(offset=10**9, element=0, code=0)
            }
            return dc_replace(result, reports=frozenset(poisoned))

        monkeypatch.setattr(runner_module, "run_sequential", corrupted)
        with pytest.raises(ExecutionError, match="diverged"):
            run_benchmark(bench, ranks=1, trace_bytes=2_048)

    def test_verify_reports_flag_suppresses_raise(self, bench, monkeypatch):
        from dataclasses import replace as dc_replace

        from repro.automata.execution import Report
        from repro.sim import runner as runner_module

        real = runner_module.run_sequential

        def corrupted(*args, **kwargs):
            result = real(*args, **kwargs)
            poisoned = result.reports | {
                Report(offset=10**9, element=0, code=0)
            }
            return dc_replace(result, reports=frozenset(poisoned))

        monkeypatch.setattr(runner_module, "run_sequential", corrupted)
        run = run_benchmark(
            bench, ranks=1, trace_bytes=2_048, verify_reports=False
        )
        assert not run.reports_match
