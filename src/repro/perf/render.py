"""Text / markdown / JSON renderers for artifacts and diffs."""

from __future__ import annotations

import json

from repro.perf.artifact import PerfReport
from repro.perf.compare import ChangeKind, PerfDiff

FORMATS = ("text", "markdown", "json")

_REPORT_COLUMNS = (
    ("benchmark", "{:<22}"),
    ("ranks", "{:>5}"),
    ("segments", "{:>8}"),
    ("pap cycles", "{:>12}"),
    ("speedup", "{:>8}"),
)


def _report_rows(report: PerfReport) -> list[tuple[str, ...]]:
    rows = []
    for key in sorted(report.benchmarks):
        record = report.benchmarks[key]
        rows.append(
            (
                key,
                str(record.ranks),
                str(record.cycles.get("segments", "-")),
                str(record.cycles.get("pap_cycles", "-")),
                f"{record.speedup:.2f}x",
            )
        )
    return rows


def _report_footer(report: PerfReport) -> str:
    geomean = report.geomean_speedup
    mean = f"{geomean:.2f}x" if geomean is not None else "n/a"
    return (
        f"{len(report.benchmarks)} benchmark(s), geomean speedup {mean} "
        f"[label {report.label}, schema v{report.schema_version}]"
    )


def render_report_text(report: PerfReport) -> str:
    header = "".join(
        fmt.format(title) for title, fmt in _REPORT_COLUMNS
    )
    lines = [header, "-" * len(header)]
    for row in _report_rows(report):
        lines.append(
            "".join(
                fmt.format(cell)
                for cell, (_, fmt) in zip(row, _REPORT_COLUMNS)
            )
        )
    lines.append(_report_footer(report))
    return "\n".join(lines)


def render_report_markdown(report: PerfReport) -> str:
    titles = [title for title, _ in _REPORT_COLUMNS]
    lines = [
        "| " + " | ".join(titles) + " |",
        "| " + " | ".join("---" for _ in titles) + " |",
    ]
    for row in _report_rows(report):
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append(_report_footer(report))
    return "\n".join(lines)


def render_report(report: PerfReport, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2)
    if fmt == "markdown":
        return render_report_markdown(report)
    return render_report_text(report)


_KIND_ORDER = (
    ChangeKind.REGRESSION,
    ChangeKind.REMOVED,
    ChangeKind.NEW,
)


def _diff_summary(diff: PerfDiff) -> str:
    if diff.clean:
        return (
            f"clean: {diff.candidate_label!r} matches "
            f"{diff.baseline_label!r} exactly"
        )
    counts = ", ".join(
        f"{len(diff.of_kind(kind))} {kind.value}"
        for kind in _KIND_ORDER
        if diff.of_kind(kind)
    )
    return f"{diff.baseline_label!r} -> {diff.candidate_label!r}: {counts}"


def render_diff_text(diff: PerfDiff) -> str:
    lines = []
    for kind in _KIND_ORDER:
        lines.extend(c.describe() for c in diff.of_kind(kind))
    lines.append(_diff_summary(diff))
    return "\n".join(lines)


def render_diff_markdown(diff: PerfDiff) -> str:
    lines = [
        "| kind | benchmark | metric | baseline | candidate | detail |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for kind in _KIND_ORDER:
        for c in diff.of_kind(kind):
            base = "-" if c.baseline is None else c.baseline
            cand = "-" if c.candidate is None else c.candidate
            lines.append(
                f"| {c.kind.value} | {c.benchmark} "
                f"| {c.metric or '-'} | {base} | {cand} "
                f"| {c.detail or '-'} |"
            )
    lines.append("")
    lines.append(_diff_summary(diff))
    return "\n".join(lines)


def render_diff(diff: PerfDiff, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(diff.to_dict(), indent=2)
    if fmt == "markdown":
        return render_diff_markdown(diff)
    return render_diff_text(diff)
