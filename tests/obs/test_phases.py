"""Phase-attribution profiler tests (repro.obs.phases).

The load-bearing property is exactness: per-phase cycle totals are not
sampled estimates but re-derivations of the scheduler's own accounting,
so they must sum to the run's totals to the cycle — on every workload
in the evaluation suite.  Wall-phase capture rides the observer and is
only checked for presence/consistency (host time is noise).
"""

import json

import pytest

from repro.obs import Tracer
from repro.obs.phases import (
    CYCLE_PHASES,
    NULL_PHASES,
    PHASE_COMPOSE,
    PHASE_CONVERGENCE,
    PHASE_DECODE,
    PHASE_REPORT,
    PHASE_SWITCH,
    PHASE_TRANSITION,
    PhaseAccountingError,
    PhaseAccumulator,
    hot_phase,
    render_phase_profile,
    summarize_run_phases,
    to_folded,
    to_speedscope,
    validate_speedscope,
    verify_phase_totals,
)
from repro.sim.runner import run_benchmark
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark


@pytest.fixture(scope="module")
def snort_run():
    """One instrumented run shared by the read-only assertions."""
    bench = build_benchmark("Snort", scale=0.05, seed=0)
    return run_benchmark(
        bench, trace_bytes=8192, trace_seed=1, observer=Tracer()
    )


class TestPhaseAccumulator:
    def test_null_recorder_is_disabled_and_inert(self):
        assert NULL_PHASES.enabled is False
        NULL_PHASES.add(PHASE_TRANSITION, 0, 123)
        assert NULL_PHASES.items() == ()
        assert NULL_PHASES.totals() == {}

    def test_accumulates_per_segment_and_phase(self):
        acc = PhaseAccumulator()
        acc.add(PHASE_TRANSITION, 0, 10)
        acc.add(PHASE_TRANSITION, 0, 5)
        acc.add(PHASE_SWITCH, 1, 7)
        assert acc.items() == (
            (0, PHASE_TRANSITION, 15),
            (1, PHASE_SWITCH, 7),
        )
        assert acc.totals() == {PHASE_TRANSITION: 15, PHASE_SWITCH: 7}

    def test_merge_folds_shipped_rows(self):
        acc = PhaseAccumulator()
        acc.add(PHASE_TRANSITION, 0, 1)
        acc.merge([(0, PHASE_TRANSITION, 2), (2, PHASE_COMPOSE, 3)])
        assert acc.totals() == {PHASE_TRANSITION: 3, PHASE_COMPOSE: 3}


class TestHotPhase:
    def test_largest_wins(self):
        assert hot_phase({PHASE_TRANSITION: 1, PHASE_DECODE: 9}) == (
            PHASE_DECODE
        )

    def test_ties_resolve_in_display_order(self):
        assert hot_phase({PHASE_SWITCH: 5, PHASE_TRANSITION: 5}) == (
            PHASE_TRANSITION
        )


class TestSummarize:
    def test_run_carries_phase_summary(self, snort_run):
        phases = snort_run.pap.phases
        assert phases["schema"] == 1
        assert set(CYCLE_PHASES) <= set(phases["cycles"])
        assert phases["accounted_cycles"] == (
            phases["segment_cycles"]
            + phases["cycles"][PHASE_DECODE]
            + phases["cycles"][PHASE_REPORT]
        )
        assert len(phases["per_segment"]) == snort_run.pap.num_segments

    def test_wall_rows_present_with_tracer(self, snort_run):
        phases = snort_run.pap.phases
        assert phases["wall_ns"][PHASE_TRANSITION] > 0
        measured = [
            entry for entry in phases["per_segment"] if "wall_ns" in entry
        ]
        assert measured

    def test_wall_rows_absent_without_observer(self):
        bench = build_benchmark("Snort", scale=0.05, seed=0)
        run = run_benchmark(bench, trace_bytes=8192, trace_seed=1)
        phases = run.pap.phases
        assert "wall_ns" not in phases
        assert all("wall_ns" not in e for e in phases["per_segment"])

    def test_summary_is_strict_json(self, snort_run):
        payload = json.dumps(snort_run.pap.phases, allow_nan=False)
        assert json.loads(payload) == snort_run.pap.phases


class TestVerify:
    def test_verifies_real_run(self, snort_run):
        check = verify_phase_totals(snort_run.pap)
        assert check["segments"] == snort_run.pap.num_segments
        assert check["checks"] >= check["segments"] + 6
        assert check["accounted_cycles"] == (
            snort_run.pap.phases["accounted_cycles"]
        )

    def test_missing_summary_raises(self, snort_run):
        with pytest.raises(PhaseAccountingError, match="no phase summary"):
            verify_phase_totals(snort_run.pap, phases={})

    def test_perturbed_segment_row_raises(self, snort_run):
        phases = json.loads(json.dumps(snort_run.pap.phases))
        phases["per_segment"][0][PHASE_SWITCH] += 1
        with pytest.raises(PhaseAccountingError, match="segment 0"):
            verify_phase_totals(snort_run.pap, phases=phases)

    def test_perturbed_report_total_raises(self, snort_run):
        phases = json.loads(json.dumps(snort_run.pap.phases))
        phases["cycles"][PHASE_REPORT] += 1
        with pytest.raises(PhaseAccountingError, match="report"):
            verify_phase_totals(snort_run.pap, phases=phases)


def test_phase_totals_sum_exactly_on_every_workload():
    """The acceptance criterion: on all 19 evaluation workloads the
    per-phase cycle totals sum exactly (zero tolerance) to the run's
    cycle totals — segment identity, availability-chain refold, and the
    enumeration total."""
    assert len(BENCHMARK_NAMES) == 19
    for name in BENCHMARK_NAMES:
        bench = build_benchmark(name, scale=0.05, seed=0)
        run = run_benchmark(bench, trace_bytes=4096, trace_seed=1)
        check = verify_phase_totals(run.pap)
        assert check["segments"] == run.pap.num_segments, name
        phases = run.pap.phases
        per_segment_sum = sum(
            e[PHASE_TRANSITION] + e[PHASE_SWITCH] + e[PHASE_CONVERGENCE]
            for e in phases["per_segment"]
        )
        assert per_segment_sum == phases["segment_cycles"], name


def test_cycle_payload_is_observer_invariant():
    """Attaching the profiler must not perturb the simulation: the
    cycle-domain artifact payload is identical with and without it."""
    bench = build_benchmark("Snort", scale=0.05, seed=0)
    bare = run_benchmark(bench, trace_bytes=4096, trace_seed=1)
    traced = run_benchmark(
        bench, trace_bytes=4096, trace_seed=1, observer=Tracer()
    )
    assert bare.to_dict() == traced.to_dict()
    assert bare.pap.phases["cycles"] == traced.pap.phases["cycles"]


class TestRenderers:
    def test_table_shows_phases_and_totals(self, snort_run):
        text = render_phase_profile(snort_run.pap.phases)
        for phase in CYCLE_PHASES:
            assert phase in text
        assert "accounted" in text
        assert "hot=" in text
        assert "enumerated" in text  # per-segment rows present

    def test_folded_lines_parse_and_cover_segment_cycles(self, snort_run):
        phases = snort_run.pap.phases
        total = 0
        for line in to_folded(phases).splitlines():
            stack, count = line.rsplit(" ", 1)
            assert stack.startswith("pap;")
            total += int(count)
        assert total == phases["accounted_cycles"]

    def test_speedscope_validates_and_sums(self, snort_run):
        phases = snort_run.pap.phases
        payload = to_speedscope(phases, name="snort")
        validate_speedscope(payload)
        profile = payload["profiles"][0]
        assert profile["endValue"] == phases["accounted_cycles"]
        assert profile["name"] == "snort"


class TestValidateSpeedscope:
    def _valid(self):
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": [{"name": "a"}]},
            "profiles": [
                {
                    "type": "evented",
                    "name": "p",
                    "unit": "none",
                    "startValue": 0,
                    "endValue": 2,
                    "events": [
                        {"type": "O", "frame": 0, "at": 0},
                        {"type": "C", "frame": 0, "at": 2},
                    ],
                }
            ],
        }

    def test_valid_passes(self):
        validate_speedscope(self._valid())

    def test_missing_schema_rejected(self):
        payload = self._valid()
        payload["$schema"] = "https://example.com"
        with pytest.raises(ValueError, match="schema"):
            validate_speedscope(payload)

    def test_unbalanced_stack_rejected(self):
        payload = self._valid()
        payload["profiles"][0]["events"] = [
            {"type": "O", "frame": 0, "at": 0}
        ]
        with pytest.raises(ValueError, match="left open"):
            validate_speedscope(payload)

    def test_mismatched_close_rejected(self):
        payload = self._valid()
        payload["shared"]["frames"].append({"name": "b"})
        payload["profiles"][0]["events"][1]["frame"] = 1
        with pytest.raises(ValueError, match="innermost"):
            validate_speedscope(payload)

    def test_decreasing_at_rejected(self):
        payload = self._valid()
        payload["profiles"][0]["events"][1]["at"] = -1
        with pytest.raises(ValueError, match="non-decreasing"):
            validate_speedscope(payload)

    def test_frame_out_of_range_rejected(self):
        payload = self._valid()
        payload["profiles"][0]["events"][0]["frame"] = 7
        with pytest.raises(ValueError, match="out of range"):
            validate_speedscope(payload)
