"""Suite-level analysis and the prediction-vs-actual tolerance gate.

:func:`analyze_suite` runs the fact pass and the cost model over the
evaluation benchmarks at exactly the budgets ``repro bench`` uses (same
scale/seed/trace parameters, same heavy-workload trace divisors, same
half-core footprint), so the resulting :class:`AnalysisReport` is
directly comparable to a committed ``BENCH_*.json`` artifact.
:func:`compare_to_baseline` performs that comparison and applies the
documented tolerance — the CI ``analysis-gate`` job fails when any
workload's predicted enumeration cycles drift further from the
simulator's than :data:`DEFAULT_TOLERANCE` allows.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.analyze.cost import WorkloadPrediction, predict_workload
from repro.analyze.facts import gather_facts
from repro.ap.geometry import BoardGeometry
from repro.ap.placement import segments_available
from repro.automata.analysis import AutomatonAnalysis
from repro.automata.execution import CompiledAutomaton
from repro.core.config import DEFAULT_CONFIG, PAPConfig
from repro.errors import ConfigurationError
from repro.perf.bench import trace_budget
from repro.workloads.suite import (
    BENCHMARK_NAMES,
    BenchmarkInstance,
    build_benchmark,
)

DEFAULT_TOLERANCE = 0.05
"""The documented prediction error budget (relative, per workload).

The committed ``benchmarks/analysis/ANALYZE_seed.json`` sits at a
maximum absolute error of ~3% against ``BENCH_seed.json``; 5% leaves
headroom for profile jitter without letting real model regressions
through.
"""

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class WorkloadAnalysis:
    """Everything the analysis pass derived for one workload."""

    name: str
    ranks: int
    half_cores: int
    """The FSM footprint the run places (``bench.half_cores``); the
    segment count is ``prediction.num_segments``."""
    trace_bytes: int
    num_states: int
    num_components: int
    partition_symbol: int
    boundary_flows: int
    unit_bound: int
    prediction: WorkloadPrediction

    @property
    def key(self) -> str:
        """The ``BENCH_*.json`` benchmark key this row compares against."""
        return f"{self.name}@r{self.ranks}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "ranks": self.ranks,
            "half_cores": self.half_cores,
            "trace_bytes": self.trace_bytes,
            "num_states": self.num_states,
            "num_components": self.num_components,
            "partition_symbol": self.partition_symbol,
            "boundary_flows": self.boundary_flows,
            "unit_bound": self.unit_bound,
            "prediction": self.prediction.to_dict(),
        }


@dataclass(frozen=True)
class ComparisonRow:
    """One workload's prediction measured against a committed artifact."""

    name: str
    key: str
    predicted_cycles: int
    actual_cycles: int
    predicted_speedup: float
    actual_speedup: float
    tolerance: float

    @property
    def error(self) -> float:
        """Signed relative error of predicted enumeration cycles."""
        if self.actual_cycles == 0:
            return 0.0 if self.predicted_cycles == 0 else float("inf")
        return (
            self.predicted_cycles - self.actual_cycles
        ) / self.actual_cycles

    @property
    def passed(self) -> bool:
        return abs(self.error) <= self.tolerance

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "key": self.key,
            "predicted_cycles": self.predicted_cycles,
            "actual_cycles": self.actual_cycles,
            "error": round(self.error, 6),
            "predicted_speedup": round(self.predicted_speedup, 4),
            "actual_speedup": round(self.actual_speedup, 4),
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class AnalysisReport:
    """One full-suite analysis run, comparable and serializable."""

    label: str
    parameters: Mapping[str, Any]
    workloads: tuple[WorkloadAnalysis, ...]
    comparison: tuple[ComparisonRow, ...] = ()
    missing_from_baseline: tuple[str, ...] = ()
    tolerance: float = DEFAULT_TOLERANCE
    created_at: str | None = field(default=None, compare=False)

    @property
    def compared(self) -> bool:
        return bool(self.comparison) or bool(self.missing_from_baseline)

    @property
    def passed(self) -> bool:
        """True when every compared workload is within tolerance and no
        analyzed workload was missing from the baseline."""
        if not self.compared:
            return True
        if self.missing_from_baseline:
            return False
        return all(row.passed for row in self.comparison)

    @property
    def max_abs_error(self) -> float:
        if not self.comparison:
            return 0.0
        return max(abs(row.error) for row in self.comparison)

    def workload(self, name: str) -> WorkloadAnalysis:
        for w in self.workloads:
            if w.name == name:
                return w
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "label": self.label,
            "parameters": dict(self.parameters),
            "environment": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": platform.system().lower(),
                "machine": platform.machine(),
            },
            "summary": {
                "workloads": len(self.workloads),
                "total_trials": sum(
                    w.prediction.trials for w in self.workloads
                ),
            },
            "workloads": {w.key: w.to_dict() for w in self.workloads},
        }
        if self.created_at is not None:
            payload["created_at"] = self.created_at
        if self.compared:
            payload["comparison"] = {
                "tolerance": self.tolerance,
                "passed": self.passed,
                "max_abs_error": round(self.max_abs_error, 6),
                "missing_from_baseline": list(self.missing_from_baseline),
                "rows": [row.to_dict() for row in self.comparison],
            }
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def analyze_workload(
    bench: BenchmarkInstance,
    *,
    ranks: int = 1,
    trace_bytes: int = 65_536,
    modeled_bytes: int | None = None,
    trace_seed: int = 1,
    config: PAPConfig = DEFAULT_CONFIG,
    use_trials: bool = True,
) -> WorkloadAnalysis:
    """Run the full analysis stack for one benchmark instance.

    Mirrors :func:`repro.sim.runner.run_benchmark`'s configuration
    derivation — board geometry from ``ranks``, segment count from the
    benchmark's half-core footprint — without ever executing the
    simulator beyond the fact pass's bounded profile prefix and trials.
    """
    board = BoardGeometry(ranks=ranks)
    num_segments = segments_available(board, bench.half_cores)
    if num_segments < 1:
        raise ConfigurationError(
            f"{bench.name}: {bench.half_cores} half-cores exceed the "
            f"{board.half_cores} the board provides"
        )
    data = bench.trace(trace_bytes, trace_seed)
    analysis = AutomatonAnalysis(bench.automaton)
    compiled = CompiledAutomaton(bench.automaton)
    facts = gather_facts(
        bench.automaton,
        data,
        num_segments=num_segments,
        analysis=analysis,
        compiled=compiled,
    )
    prediction = predict_workload(
        bench.automaton,
        data,
        num_segments=num_segments,
        config=config,
        modeled_bytes=modeled_bytes,
        analysis=analysis,
        facts=facts,
        use_trials=use_trials,
    )
    boundary = facts.boundary(facts.partition_symbol, at_offset_zero=False)
    return WorkloadAnalysis(
        name=bench.name,
        ranks=ranks,
        half_cores=bench.half_cores,
        trace_bytes=len(data),
        num_states=facts.num_states,
        num_components=facts.num_components,
        partition_symbol=facts.partition_symbol,
        boundary_flows=boundary.flow_count,
        unit_bound=boundary.unit_bound,
        prediction=prediction,
    )


def analyze_suite(
    names: tuple[str, ...] = BENCHMARK_NAMES,
    *,
    label: str = "local",
    scale: float = 0.1,
    seed: int = 0,
    ranks: int = 1,
    trace_bytes: int = 65_536,
    modeled_bytes: int | None = 1_048_576,
    use_trials: bool = True,
    progress: Callable[[str], None] | None = None,
) -> AnalysisReport:
    """Analyze ``names`` at the standard bench-suite budgets.

    Defaults replicate the committed ``BENCH_seed.json`` parameters
    (scale 0.1, seed 0, one rank, 64 KiB traces modeling 1 MB inputs),
    including the per-workload heavy-trace divisors, so the report is
    comparable against that artifact without further alignment.
    """
    workloads: list[WorkloadAnalysis] = []
    for name in names:
        budget, modeled = trace_budget(name, trace_bytes, modeled_bytes)
        bench = build_benchmark(name, scale=scale, seed=seed)
        row = analyze_workload(
            bench,
            ranks=ranks,
            trace_bytes=budget,
            modeled_bytes=modeled,
            trace_seed=seed + 1,
            use_trials=use_trials,
        )
        workloads.append(row)
        if progress is not None:
            progress(
                f"{row.name}: predicted "
                f"{row.prediction.predicted_cycles} cycles "
                f"({row.prediction.speedup:.2f}x), "
                f"{row.prediction.trials} trial(s)"
            )
    return AnalysisReport(
        label=label,
        parameters={
            "benchmarks": list(names),
            "scale": scale,
            "seed": seed,
            "ranks": ranks,
            "trace_bytes": trace_bytes,
            "modeled_bytes": modeled_bytes,
            "use_trials": use_trials,
        },
        workloads=tuple(workloads),
    )


def compare_to_baseline(
    report: AnalysisReport,
    baseline: Mapping[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> AnalysisReport:
    """Attach a prediction-vs-actual comparison to ``report``.

    ``baseline`` is a parsed ``BENCH_*.json`` payload (see
    :mod:`repro.perf.artifact`).  Every analyzed workload must appear in
    it under its ``Name@rN`` key; absentees are recorded and fail the
    gate, because a silently unchecked prediction is how model rot
    starts.  Returns a new report; the input is unchanged.
    """
    if tolerance <= 0:
        raise ConfigurationError("tolerance must be positive")
    benchmarks = baseline.get("benchmarks", {})
    rows: list[ComparisonRow] = []
    missing: list[str] = []
    for workload in report.workloads:
        record = benchmarks.get(workload.key)
        if record is None:
            missing.append(workload.key)
            continue
        cycles = record["cycles"]
        rows.append(
            ComparisonRow(
                name=workload.name,
                key=workload.key,
                predicted_cycles=workload.prediction.enumeration_cycles,
                actual_cycles=cycles["enumeration_cycles"],
                predicted_speedup=workload.prediction.speedup,
                actual_speedup=cycles["speedup"],
                tolerance=tolerance,
            )
        )
    return replace(
        report,
        comparison=tuple(rows),
        missing_from_baseline=tuple(missing),
        tolerance=tolerance,
    )


def load_baseline(path: str | Path) -> dict[str, Any]:
    """Parse a committed ``BENCH_*.json`` artifact."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "benchmarks" not in payload:
        raise ConfigurationError(
            f"{path}: not a BENCH artifact (no 'benchmarks' key)"
        )
    return payload


def load_analysis(path: str | Path) -> dict[str, Any]:
    """Parse a committed ``ANALYZE_*.json`` artifact.

    The drift monitor (:mod:`repro.obs.drift`) loads predictions from
    here by their ``Name@rN`` workload key.  Unreadable or malformed
    files raise :class:`ConfigurationError` so CLI callers exit 1 with
    a one-line message instead of a traceback.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise ConfigurationError(
            f"cannot load analysis artifact {path}: {error}"
        ) from error
    if not isinstance(payload, dict) or "workloads" not in payload:
        raise ConfigurationError(
            f"{path}: not an ANALYZE artifact (no 'workloads' key)"
        )
    return payload
