"""Rendering for ``repro analyze``: text, JSON, and SARIF.

The SARIF form reuses :mod:`repro.lint.sarif` — analysis findings are
expressed as plain :class:`~repro.lint.diagnostics.Diagnostic` values
under ``AN``-prefixed codes (``AN001`` prediction summary, ``AN101``
out-of-tolerance prediction, ``AN102`` missing baseline entry).  One
artifact therefore carries both the predictions and everything that
gates on them; capacity findings are ``repro lint``'s (AP201–AP208).
"""

from __future__ import annotations

import json

from repro.analyze.report import AnalysisReport
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.sarif import SARIF_SCHEMA, SARIF_VERSION, sarif_run

CODE_PREDICTION = "AN001"
CODE_OUT_OF_TOLERANCE = "AN101"
CODE_MISSING_BASELINE = "AN102"


def analysis_diagnostics(report: AnalysisReport) -> list[Diagnostic]:
    """The analysis run as a flat diagnostic list (SARIF payload)."""
    diagnostics: list[Diagnostic] = []
    rows = {row.key: row for row in report.comparison}
    for workload in report.workloads:
        prediction = workload.prediction
        message = (
            f"predicted {prediction.predicted_cycles} cycles "
            f"({prediction.speedup:.2f}x of ideal "
            f"{prediction.ideal_speedup}x) over "
            f"{prediction.num_segments} segments; "
            f"{workload.boundary_flows} enumeration flows, "
            f"{prediction.trials} trial(s)"
        )
        if prediction.golden_fallback:
            message += "; golden fallback predicted to win"
        diagnostics.append(
            Diagnostic(
                code=CODE_PREDICTION,
                rule="workload-prediction",
                severity=Severity.INFO,
                message=message,
                automaton=workload.name,
                data=prediction.to_dict() | {"key": workload.key},
            )
        )
        row = rows.get(workload.key)
        if row is not None and not row.passed:
            diagnostics.append(
                Diagnostic(
                    code=CODE_OUT_OF_TOLERANCE,
                    rule="prediction-out-of-tolerance",
                    severity=Severity.ERROR,
                    message=(
                        f"predicted {row.predicted_cycles} vs actual "
                        f"{row.actual_cycles} enumeration cycles: "
                        f"{row.error:+.2%} exceeds the "
                        f"{row.tolerance:.0%} tolerance"
                    ),
                    automaton=workload.name,
                    data=row.to_dict(),
                )
            )
    for key in report.missing_from_baseline:
        diagnostics.append(
            Diagnostic(
                code=CODE_MISSING_BASELINE,
                rule="missing-baseline-entry",
                severity=Severity.ERROR,
                message=(
                    f"workload {key} has no entry in the baseline "
                    f"artifact; its prediction is unchecked"
                ),
                automaton=key.split("@", 1)[0],
            )
        )
    return diagnostics


def render_analysis_text(report: AnalysisReport) -> str:
    """Human-readable analysis summary (one line per workload)."""
    lines: list[str] = []
    header = (
        f"{'workload':<18}{'segments':>9}{'flows':>7}{'cycles':>10}"
        f"{'speedup':>9}{'trials':>7}  plan"
    )
    lines.append(header)
    rows = {row.key: row for row in report.comparison}
    for workload in report.workloads:
        prediction = workload.prediction
        line = (
            f"{workload.name:<18}{prediction.num_segments:>9}"
            f"{workload.boundary_flows:>7}"
            f"{prediction.predicted_cycles:>10}"
            f"{prediction.speedup:>8.2f}x{prediction.trials:>7}  "
            f"{workload.half_cores}hc"
        )
        if prediction.golden_fallback:
            line += "  [golden fallback]"
        row = rows.get(workload.key)
        if row is not None:
            status = "ok" if row.passed else "OUT OF TOLERANCE"
            line += (
                f"  vs actual {row.actual_cycles} "
                f"({row.error:+.2%}, {status})"
            )
        lines.append(line)
    for key in report.missing_from_baseline:
        lines.append(f"{key}: MISSING from baseline artifact")
    if report.compared:
        verdict = "PASS" if report.passed else "FAIL"
        lines.append(
            f"comparison: {len(report.comparison)} workload(s), "
            f"max |error| {report.max_abs_error:.2%} vs tolerance "
            f"{report.tolerance:.0%} -> {verdict}"
        )
    return "\n".join(lines)


def render_analysis_sarif(
    report: AnalysisReport, *, indent: int | None = 2
) -> str:
    """The analysis run as one SARIF 2.1.0 log."""
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            sarif_run(
                analysis_diagnostics(report), tool_name="repro-analyze"
            )
        ],
    }
    return json.dumps(log, indent=indent, sort_keys=False)
