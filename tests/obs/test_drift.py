"""Drift-monitor tests (AP401-AP404): predicted-vs-actual divergence.

The quiet/noisy contract is the acceptance criterion from ISSUE 7: all
19 committed BENCH_seed workloads must stay quiet against the committed
ANALYZE_seed predictions, and a prediction perturbed by at least twice
the tolerance must fire.  Synthetic predictions then pin each check
(cycles, flows, per-segment finish, identity mismatch) in isolation.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.ap.geometry import BoardGeometry
from repro.automata.random_gen import random_automaton
from repro.core.config import PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.errors import ArtifactError, ConfigurationError
from repro.obs import Tracer
from repro.obs.drift import (
    DEFAULT_DRIFT_TOLERANCE,
    DriftMonitor,
    DriftObservation,
)

REPO = Path(__file__).resolve().parents[2]
ANALYZE_SEED = REPO / "benchmarks" / "analysis" / "ANALYZE_seed.json"
BENCH_SEED = REPO / "BENCH_seed.json"


def _prediction(**overrides) -> dict:
    """A small synthetic two-segment prediction."""
    base = {
        "name": "Synthetic",
        "enumeration_cycles": 1000,
        "input_bytes": 2000,
        "num_segments": 2,
        "segments": [
            {"index": 0, "finish_cycles": 1000, "flows_at_end": 3},
            {"index": 1, "finish_cycles": 900, "flows_at_end": 5},
        ],
    }
    base.update(overrides)
    return base


def _clean_observation(**overrides) -> DriftObservation:
    values = {
        "enumeration_cycles": 1000,
        "input_bytes": 2000,
        "num_segments": 2,
        "flows_at_end": 8,
        "segment_finish_cycles": (1000, 900),
    }
    values.update(overrides)
    return DriftObservation(**values)


class TestAgainstCommittedArtifacts:
    """ANALYZE_seed predictions vs BENCH_seed actuals, per workload."""

    def _pairs(self):
        analysis = json.loads(ANALYZE_SEED.read_text())["workloads"]
        bench = json.loads(BENCH_SEED.read_text())["benchmarks"]
        assert set(analysis) == set(bench)
        for key in sorted(analysis):
            yield key, analysis[key]["prediction"], bench[key]["cycles"]

    def test_all_seed_workloads_stay_quiet(self):
        pairs = list(self._pairs())
        assert len(pairs) == 19
        for key, prediction, cycles in pairs:
            monitor = DriftMonitor(prediction, workload=key)
            observation = DriftObservation(
                enumeration_cycles=cycles["enumeration_cycles"]
            )
            assert monitor.check(observation) == (), key

    def test_perturbed_prediction_fires_ap401(self):
        key, prediction, cycles = next(self._pairs())
        perturbed = dict(prediction)
        # 2x the tolerance past the observed value: must fire.
        perturbed["enumeration_cycles"] = int(
            cycles["enumeration_cycles"]
            * (1 + 2 * DEFAULT_DRIFT_TOLERANCE)
        )
        monitor = DriftMonitor(perturbed, workload=key)
        diagnostics = monitor.check(
            DriftObservation(
                enumeration_cycles=cycles["enumeration_cycles"]
            )
        )
        assert [d.code for d in diagnostics] == ["AP401"]
        assert diagnostics[0].automaton == key


class TestChecks:
    def test_clean_observation_is_quiet(self):
        monitor = DriftMonitor(_prediction())
        assert monitor.check(_clean_observation()) == ()

    def test_within_tolerance_is_quiet(self):
        monitor = DriftMonitor(_prediction(), tolerance=0.10)
        observation = _clean_observation(enumeration_cycles=1090)
        assert monitor.check(observation) == ()

    def test_ap401_cycles_drift(self):
        monitor = DriftMonitor(_prediction(), tolerance=0.10)
        diagnostics = monitor.check(
            _clean_observation(enumeration_cycles=1300)
        )
        assert [d.code for d in diagnostics] == ["AP401"]
        assert diagnostics[0].data["observed"] == 1300
        assert diagnostics[0].data["predicted"] == 1000

    def test_ap402_flow_drift(self):
        monitor = DriftMonitor(_prediction(), tolerance=0.10)
        diagnostics = monitor.check(_clean_observation(flows_at_end=16))
        assert [d.code for d in diagnostics] == ["AP402"]
        assert diagnostics[0].data["predicted"] == 8  # 3 + 5

    def test_ap403_segment_finish_drift_names_indices(self):
        monitor = DriftMonitor(_prediction(), tolerance=0.10)
        diagnostics = monitor.check(
            _clean_observation(segment_finish_cycles=(1000, 1800))
        )
        assert [d.code for d in diagnostics] == ["AP403"]
        assert diagnostics[0].states == (1,)
        assert diagnostics[0].data["segments"][0]["observed"] == 1800

    def test_ap404_mismatch_skips_other_checks(self):
        monitor = DriftMonitor(_prediction(), tolerance=0.10)
        # Wildly drifted cycles AND a different shape: only AP404.
        diagnostics = monitor.check(
            _clean_observation(
                enumeration_cycles=9999, input_bytes=1, num_segments=7
            )
        )
        assert [d.code for d in diagnostics] == ["AP404"]
        assert set(diagnostics[0].data) == {"input_bytes", "num_segments"}

    def test_none_fields_skip_their_checks(self):
        monitor = DriftMonitor(_prediction(), tolerance=0.10)
        # Only cycles observed; everything else unobserved -> quiet
        # even though totals would drift if they were compared.
        observation = DriftObservation(enumeration_cycles=1000)
        assert monitor.check(observation) == ()

    def test_zero_prediction_nonzero_observation_drifts(self):
        monitor = DriftMonitor(
            _prediction(enumeration_cycles=0), tolerance=0.10
        )
        diagnostics = monitor.check(
            _clean_observation(enumeration_cycles=5)
        )
        assert "AP401" in [d.code for d in diagnostics]

    def test_all_diagnostics_are_warnings(self):
        monitor = DriftMonitor(_prediction(), tolerance=0.01)
        diagnostics = monitor.check(
            _clean_observation(
                enumeration_cycles=1300,
                flows_at_end=16,
                segment_finish_cycles=(1500, 1800),
            )
        )
        assert {d.code for d in diagnostics} == {
            "AP401",
            "AP402",
            "AP403",
        }
        assert all(d.severity.name == "WARNING" for d in diagnostics)


class TestObserverEmission:
    def test_counters_and_instants(self):
        tracer = Tracer()
        monitor = DriftMonitor(
            _prediction(), tolerance=0.10, observer=tracer
        )
        monitor.check(_clean_observation())  # quiet
        monitor.check(_clean_observation(enumeration_cycles=1300))
        assert tracer.metrics.counter("drift.checks").value == 2
        assert tracer.metrics.counter("drift.events").value == 1
        instants = [
            e for e in tracer.events if e.name.startswith("drift:")
        ]
        assert len(instants) == 1
        assert instants[0].name == "drift:AP401"
        assert instants[0].track == "drift"
        assert instants[0].args["code"] == "AP401"


class TestConstruction:
    def test_rejects_non_positive_tolerance(self):
        with pytest.raises(ConfigurationError, match="tolerance"):
            DriftMonitor(_prediction(), tolerance=0.0)
        with pytest.raises(ConfigurationError, match="tolerance"):
            DriftMonitor(_prediction(), tolerance=-0.5)

    def test_from_analysis_artifact_loads_workload(self):
        monitor = DriftMonitor.from_analysis_artifact(
            str(ANALYZE_SEED), "Bro217"
        )
        assert monitor.workload == "Bro217"
        assert monitor.prediction["name"] == "Bro217"
        assert monitor.tolerance == DEFAULT_DRIFT_TOLERANCE

    def test_from_analysis_artifact_unknown_workload(self):
        with pytest.raises(ArtifactError, match="no prediction"):
            DriftMonitor.from_analysis_artifact(
                str(ANALYZE_SEED), "NoSuchWorkload"
            )

    def test_from_analysis_artifact_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot load"):
            DriftMonitor.from_analysis_artifact(
                str(tmp_path / "nope.json"), "Bro217"
            )

    def test_from_analysis_artifact_not_an_analysis(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"benchmarks": {}}')
        with pytest.raises(ConfigurationError, match="workloads"):
            DriftMonitor.from_analysis_artifact(str(path), "Bro217")


class TestCheckRun:
    """Live end-to-end: a run checked against its own analysis."""

    def _run(self):
        automaton = random_automaton(5, num_states=8, alphabet=b"abc")
        config = PAPConfig(
            geometry=BoardGeometry(ranks=1, devices_per_rank=2)
        )
        pap = ParallelAutomataProcessor(automaton, config=config)
        data = bytes(b"abc"[i % 3] for i in range(400))
        return pap.run(data)

    def _self_prediction(self, result) -> dict:
        """A perfect prediction, derived from the run itself."""
        observation = DriftObservation.from_run(result)
        return {
            "name": "self",
            "enumeration_cycles": observation.enumeration_cycles,
            "input_bytes": observation.input_bytes,
            "num_segments": observation.num_segments,
            "segments": [
                {
                    "index": index,
                    "finish_cycles": finish,
                    "flows_at_end": segment.metrics.flows_at_end,
                }
                for index, (finish, segment) in enumerate(
                    zip(
                        observation.segment_finish_cycles,
                        result.segment_results,
                    )
                )
            ],
        }

    def test_run_quiet_against_exact_prediction(self):
        result = self._run()
        monitor = DriftMonitor(self._self_prediction(result))
        assert monitor.check_run(result) == ()

    def test_run_drifts_against_perturbed_prediction(self):
        result = self._run()
        prediction = self._self_prediction(result)
        perturbed = copy.deepcopy(prediction)
        scale = 1 + 2 * DEFAULT_DRIFT_TOLERANCE
        perturbed["enumeration_cycles"] = max(
            1, int(prediction["enumeration_cycles"] * scale)
        )
        for segment in perturbed["segments"]:
            segment["finish_cycles"] = max(
                1, int(segment["finish_cycles"] * scale)
            )
        monitor = DriftMonitor(perturbed)
        codes = {d.code for d in monitor.check_run(result)}
        assert "AP401" in codes
        assert "AP403" in codes

    def test_observation_from_run_is_consistent(self):
        result = self._run()
        observation = DriftObservation.from_run(result)
        assert observation.input_bytes == 400
        assert observation.num_segments == len(result.segment_results)
        assert len(observation.segment_finish_cycles) == (
            observation.num_segments
        )
        assert observation.enumeration_cycles == (
            result.enumeration_cycles
        )
