"""Live predicted-vs-actual drift detection (AP401-AP404).

PR 6's cost model (:mod:`repro.analyze.cost`) predicts a workload's
enumeration cycles, per-segment finish times, and flow counts before it
runs; its validation against BENCH_seed is *static* — checked once,
offline.  The drift monitor makes that check *live*: load a prediction
at run start, observe the actual execution, and emit structured
diagnostics the moment reality diverges past a tolerance — the same
predicted-vs-actual framing the DFA-vs-NFA crossover papers use, run
continuously.

Drift diagnostics reuse the lint :class:`~repro.lint.diagnostics.Diagnostic`
model with a dedicated AP4xx family (all ``WARNING`` — drift means the
model is stale or the run is anomalous, never that results are wrong):

* ``AP401`` ``predicted-cycles-drift`` — observed enumeration cycles
  diverge from the predicted total by more than the tolerance.
* ``AP402`` ``flow-count-drift`` — total end-of-segment flow count
  diverges from the prediction.
* ``AP403`` ``segment-finish-drift`` — any single segment's finish
  cycles diverge from its predicted finish.
* ``AP404`` ``prediction-mismatch`` — the prediction does not describe
  this run (different input size or segment count); comparisons are
  skipped because they would be meaningless.

Every check also feeds the observer: a ``drift.checks`` counter, a
``drift.events`` counter, and one ``drift`` instant per diagnostic on a
dedicated ``drift`` track, so ledgers and OpenMetrics exports carry the
drift story alongside the run's own telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.metrics import PAPRunResult
from repro.errors import ArtifactError, ConfigurationError
from repro.lint.diagnostics import Diagnostic, Severity
from repro.obs.tracer import NULL_OBSERVER, Observer

#: Default relative drift tolerance.  Looser than the cost model's
#: offline validation bound (``repro.analyze.report.DEFAULT_TOLERANCE``
#: = 0.05): live runs may legitimately differ from the modeled
#: configuration in small ways, and drift warnings should mark genuine
#: divergence, not modeling noise.
DEFAULT_DRIFT_TOLERANCE = 0.10

#: Ledger/trace track drift instants are recorded on.
DRIFT_TRACK = "drift"


def _relative_error(observed: float, predicted: float) -> float:
    if predicted == 0:
        return 0.0 if observed == 0 else float("inf")
    return abs(observed - predicted) / abs(predicted)


@dataclass(frozen=True)
class DriftObservation:
    """What a live run actually did, in the cost model's terms.

    Only ``enumeration_cycles`` is mandatory; ``None`` elsewhere means
    "not observed" and skips the corresponding check — artifact-level
    observations (built from BENCH cycles payloads) carry totals only,
    while :meth:`from_run` fills everything.
    """

    enumeration_cycles: int
    input_bytes: int | None = None
    num_segments: int | None = None
    flows_at_end: int | None = None
    segment_finish_cycles: tuple[int, ...] | None = None

    @classmethod
    def from_run(cls, result: PAPRunResult) -> "DriftObservation":
        """Observe a completed :class:`~repro.core.metrics.PAPRunResult`."""
        segments = result.segment_results
        return cls(
            enumeration_cycles=result.enumeration_cycles,
            input_bytes=sum(r.plan.segment.length for r in segments),
            num_segments=len(segments),
            flows_at_end=sum(r.metrics.flows_at_end for r in segments),
            segment_finish_cycles=tuple(
                r.metrics.finish_cycles for r in segments
            ),
        )


class DriftMonitor:
    """Compare live observations against one cost-model prediction.

    Parameters
    ----------
    prediction:
        A prediction payload in the ANALYZE artifact shape — the
        ``["prediction"]`` dict of one workload entry (see
        :meth:`repro.analyze.cost.WorkloadPrediction.to_dict`).
    tolerance:
        Relative divergence beyond which a drift diagnostic fires;
        must be positive (:class:`~repro.errors.ConfigurationError`).
    observer:
        Telemetry sink; drift instants and counters go here.  The
        default null observer keeps the monitor side-effect-free.
    workload:
        Name stamped into diagnostics (the ``automaton`` field).
    """

    def __init__(
        self,
        prediction: Mapping[str, Any],
        *,
        tolerance: float = DEFAULT_DRIFT_TOLERANCE,
        observer: Observer = NULL_OBSERVER,
        workload: str = "",
    ) -> None:
        if not tolerance > 0:
            raise ConfigurationError(
                f"drift tolerance must be positive, got {tolerance}"
            )
        self.prediction = dict(prediction)
        self.tolerance = tolerance
        self.observer = observer
        self.workload = workload

    @classmethod
    def from_analysis_artifact(
        cls,
        path: str,
        workload: str,
        *,
        ranks: int = 1,
        tolerance: float = DEFAULT_DRIFT_TOLERANCE,
        observer: Observer = NULL_OBSERVER,
    ) -> "DriftMonitor":
        """Load the prediction for ``workload@r<ranks>`` from an
        ``ANALYZE_*.json`` artifact (raises
        :class:`~repro.errors.ArtifactError` when absent)."""
        from repro.analyze.report import load_analysis

        payload = load_analysis(path)
        key = f"{workload}@r{ranks}"
        entry = payload["workloads"].get(key)
        if entry is None or "prediction" not in entry:
            known = ", ".join(sorted(payload["workloads"])) or "none"
            raise ArtifactError(
                f"{path}: no prediction for {key!r} (workloads: {known})"
            )
        return cls(
            entry["prediction"],
            tolerance=tolerance,
            observer=observer,
            workload=workload,
        )

    # -- checking ---------------------------------------------------------

    def check(
        self, observation: DriftObservation
    ) -> tuple[Diagnostic, ...]:
        """Compare one observation; emit and return drift diagnostics."""
        diagnostics: list[Diagnostic] = []
        mismatch = self._check_identity(observation, diagnostics)
        if not mismatch:
            self._check_cycles(observation, diagnostics)
            self._check_flows(observation, diagnostics)
            self._check_segments(observation, diagnostics)
        self.observer.metrics.counter("drift.checks").inc()
        if diagnostics:
            self.observer.metrics.counter("drift.events").inc(
                len(diagnostics)
            )
            for diagnostic in diagnostics:
                if self.observer.enabled:
                    self.observer.instant(
                        f"drift:{diagnostic.code}",
                        track=DRIFT_TRACK,
                        args=diagnostic.to_dict(),
                    )
        return tuple(diagnostics)

    def check_run(self, result: PAPRunResult) -> tuple[Diagnostic, ...]:
        """Convenience: observe ``result`` and :meth:`check` it."""
        return self.check(DriftObservation.from_run(result))

    # -- individual checks ------------------------------------------------

    def _check_identity(
        self,
        observation: DriftObservation,
        diagnostics: list[Diagnostic],
    ) -> bool:
        """AP404: does the prediction describe this run at all?"""
        mismatches: dict[str, Any] = {}
        predicted_bytes = self.prediction.get("input_bytes")
        if (
            observation.input_bytes is not None
            and predicted_bytes is not None
            and observation.input_bytes != predicted_bytes
        ):
            mismatches["input_bytes"] = {
                "predicted": predicted_bytes,
                "observed": observation.input_bytes,
            }
        predicted_segments = self.prediction.get("num_segments")
        if (
            observation.num_segments is not None
            and predicted_segments is not None
            and observation.num_segments != predicted_segments
        ):
            mismatches["num_segments"] = {
                "predicted": predicted_segments,
                "observed": observation.num_segments,
            }
        if not mismatches:
            return False
        diagnostics.append(
            Diagnostic(
                code="AP404",
                rule="prediction-mismatch",
                severity=Severity.WARNING,
                message=(
                    "prediction does not describe this run "
                    f"({', '.join(sorted(mismatches))} differ); "
                    "drift checks skipped"
                ),
                automaton=self.workload,
                data=mismatches,
            )
        )
        return True

    def _check_cycles(
        self,
        observation: DriftObservation,
        diagnostics: list[Diagnostic],
    ) -> None:
        predicted = self.prediction.get("enumeration_cycles")
        if predicted is None:
            return
        error = _relative_error(observation.enumeration_cycles, predicted)
        if error > self.tolerance:
            diagnostics.append(
                Diagnostic(
                    code="AP401",
                    rule="predicted-cycles-drift",
                    severity=Severity.WARNING,
                    message=(
                        f"enumeration cycles drifted {error:.1%} from "
                        f"prediction ({observation.enumeration_cycles} "
                        f"observed vs {predicted} predicted, "
                        f"tolerance {self.tolerance:.0%})"
                    ),
                    automaton=self.workload,
                    data={
                        "predicted": predicted,
                        "observed": observation.enumeration_cycles,
                        "relative_error": round(error, 4),
                        "tolerance": self.tolerance,
                    },
                )
            )

    def _check_flows(
        self,
        observation: DriftObservation,
        diagnostics: list[Diagnostic],
    ) -> None:
        if observation.flows_at_end is None:
            return
        segments = self.prediction.get("segments")
        if not segments:
            return
        predicted = sum(
            segment.get("flows_at_end", 0) for segment in segments
        )
        error = _relative_error(observation.flows_at_end, predicted)
        if error > self.tolerance:
            diagnostics.append(
                Diagnostic(
                    code="AP402",
                    rule="flow-count-drift",
                    severity=Severity.WARNING,
                    message=(
                        f"end-of-segment flow count drifted {error:.1%} "
                        f"from prediction ({observation.flows_at_end} "
                        f"observed vs {predicted} predicted, "
                        f"tolerance {self.tolerance:.0%})"
                    ),
                    automaton=self.workload,
                    data={
                        "predicted": predicted,
                        "observed": observation.flows_at_end,
                        "relative_error": round(error, 4),
                        "tolerance": self.tolerance,
                    },
                )
            )

    def _check_segments(
        self,
        observation: DriftObservation,
        diagnostics: list[Diagnostic],
    ) -> None:
        observed = observation.segment_finish_cycles
        segments = self.prediction.get("segments")
        if observed is None or not segments:
            return
        predicted_by_index = {
            segment.get("index"): segment.get("finish_cycles")
            for segment in segments
        }
        drifted: list[dict[str, Any]] = []
        worst = 0.0
        for index, finish in enumerate(observed):
            predicted = predicted_by_index.get(index)
            if predicted is None:
                continue
            error = _relative_error(finish, predicted)
            if error > self.tolerance:
                worst = max(worst, error)
                drifted.append(
                    {
                        "index": index,
                        "predicted": predicted,
                        "observed": finish,
                        "relative_error": round(error, 4),
                    }
                )
        if drifted:
            diagnostics.append(
                Diagnostic(
                    code="AP403",
                    rule="segment-finish-drift",
                    severity=Severity.WARNING,
                    message=(
                        f"{len(drifted)} segment(s) finished more than "
                        f"{self.tolerance:.0%} away from predicted "
                        f"(worst {worst:.1%})"
                    ),
                    automaton=self.workload,
                    states=tuple(d["index"] for d in drifted),
                    data={
                        "segments": drifted,
                        "tolerance": self.tolerance,
                    },
                )
            )
