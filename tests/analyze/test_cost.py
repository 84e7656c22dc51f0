"""Cost-model tests: the committed-artifact gate plus live
prediction-vs-simulation checks on small workloads."""

import json
from pathlib import Path

import pytest

from repro.analyze.cost import WorkloadPrediction, predict_workload
from repro.analyze.report import DEFAULT_TOLERANCE, analyze_workload
from repro.ap.geometry import BoardGeometry
from repro.ap.placement import segments_available
from repro.automata.anml import Automaton, StartKind
from repro.automata.charclass import CharClass
from repro.sim.runner import run_benchmark
from repro.workloads.suite import build_benchmark

REPO_ROOT = Path(__file__).resolve().parents[2]
SEED_REPORT = REPO_ROOT / "benchmarks" / "analysis" / "ANALYZE_seed.json"
SEED_BASELINE = REPO_ROOT / "BENCH_seed.json"


class TestCommittedArtifact:
    """The committed ANALYZE_seed.json must itself satisfy the gate it
    documents: every BENCH_seed workload predicted within tolerance."""

    @pytest.fixture(scope="class")
    def payload(self):
        return json.loads(SEED_REPORT.read_text())

    def test_artifact_exists_and_passed(self, payload):
        comparison = payload["comparison"]
        assert comparison["passed"] is True
        assert comparison["missing_from_baseline"] == []

    def test_every_baseline_workload_compared(self, payload):
        baseline = json.loads(SEED_BASELINE.read_text())
        compared = {row["key"] for row in payload["comparison"]["rows"]}
        assert compared == set(baseline["benchmarks"])

    def test_max_error_within_documented_tolerance(self, payload):
        comparison = payload["comparison"]
        assert comparison["tolerance"] == DEFAULT_TOLERANCE
        assert comparison["max_abs_error"] <= DEFAULT_TOLERANCE
        for row in comparison["rows"]:
            assert row["passed"] is True
            assert abs(row["error"]) <= DEFAULT_TOLERANCE

    def test_rows_state_the_run_footprint(self, payload):
        """Each row's footprint is the one the run places, and its
        segment count is Table 1's rule applied to that footprint."""
        parameters = payload["parameters"]
        for record in payload["workloads"].values():
            bench = build_benchmark(
                record["name"],
                scale=parameters["scale"],
                seed=parameters["seed"],
            )
            assert record["half_cores"] == bench.half_cores
            assert record["prediction"]["num_segments"] == segments_available(
                BoardGeometry(ranks=record["ranks"]), record["half_cores"]
            )


class TestLivePrediction:
    """Model vs simulator on fast workloads, end to end."""

    @pytest.mark.parametrize("name", ["ExactMatch", "Ranges05"])
    def test_prediction_tracks_simulator(self, name):
        bench = build_benchmark(name, scale=0.05, seed=7)
        row = analyze_workload(bench, ranks=1, trace_bytes=16384, trace_seed=8)
        run = run_benchmark(bench, ranks=1, trace_bytes=16384, trace_seed=8)
        predicted = row.prediction.predicted_cycles
        actual = run.pap.total_cycles
        assert actual > 0
        assert abs(predicted - actual) / actual <= DEFAULT_TOLERANCE

    def test_speedup_prediction_is_sane(self):
        bench = build_benchmark("ExactMatch", scale=0.05, seed=7)
        row = analyze_workload(bench, ranks=1, trace_bytes=16384, trace_seed=8)
        prediction = row.prediction
        assert 1.0 <= prediction.speedup <= prediction.ideal_speedup
        assert 0.0 < prediction.parallel_efficiency <= 1.0


class TestPredictWorkload:
    def _automaton(self):
        automaton = Automaton("tiny")
        prev = automaton.add_state(
            CharClass.single("a"), start=StartKind.START_OF_DATA
        )
        for symbol in "bc":
            nxt = automaton.add_state(CharClass.single(symbol))
            automaton.add_edge(prev, nxt)
            prev = nxt
        return automaton

    def test_empty_input_predicts_zero(self):
        prediction = predict_workload(self._automaton(), b"", num_segments=4)
        assert prediction.num_segments == 0
        assert prediction.enumeration_cycles == 0
        assert prediction.predicted_cycles == 0
        assert prediction.speedup == 1.0

    def test_single_segment_is_sequential(self):
        data = b"abcabc" * 32
        prediction = predict_workload(self._automaton(), data, num_segments=1)
        assert prediction.num_segments == 1
        assert prediction.segments[0].finish_cycles == len(data)
        assert prediction.segments[0].flow_count == 0
        # One segment means no enumeration anywhere: cost is the input
        # plus report drain, and the golden path cannot beat it.
        assert prediction.enumeration_cycles >= len(data)
        assert not prediction.golden_fallback or (
            prediction.golden_cycles == prediction.enumeration_cycles
        )

    def test_no_trials_is_pessimistic(self):
        data = b"abcabc" * 64
        with_trials = predict_workload(
            self._automaton(), data, num_segments=4, use_trials=True
        )
        without = predict_workload(
            self._automaton(), data, num_segments=4, use_trials=False
        )
        assert without.trials == 0
        assert without.enumeration_cycles >= with_trials.enumeration_cycles

    def test_to_dict_round_trips_key_fields(self):
        data = b"abcabc" * 32
        prediction = predict_workload(self._automaton(), data, num_segments=2)
        payload = prediction.to_dict()
        assert payload["predicted_cycles"] == prediction.predicted_cycles
        assert payload["num_segments"] == prediction.num_segments
        assert len(payload["segments"]) == prediction.num_segments
        json.dumps(payload)  # artifact-safe


class TestPredictionProperties:
    def _prediction(self, enumeration, golden, baseline, segments=4):
        return WorkloadPrediction(
            name="x",
            input_bytes=1024,
            num_segments=segments,
            segments=(),
            enumeration_cycles=enumeration,
            golden_cycles=golden,
            baseline_cycles=baseline,
            raw_events=0,
            event_rate=0.0,
            trials=0,
        )

    def test_golden_fallback_picks_the_minimum(self):
        prediction = self._prediction(2000, 1000, 4000)
        assert prediction.golden_fallback
        assert prediction.predicted_cycles == 1000
        assert prediction.speedup == pytest.approx(4.0)

    def test_enumeration_wins_when_cheaper(self):
        prediction = self._prediction(500, 1000, 4000)
        assert not prediction.golden_fallback
        assert prediction.predicted_cycles == 500
        assert prediction.speedup == pytest.approx(8.0)
        assert prediction.parallel_efficiency == pytest.approx(2.0)

    def test_zero_cycles_degenerate(self):
        prediction = self._prediction(0, 0, 0, segments=0)
        assert prediction.speedup == 1.0
        assert prediction.ideal_speedup == 1
