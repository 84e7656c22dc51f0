"""Comparison engine: exact diff of two benchmark artifacts.

The simulator is deterministic, so every cycle-domain metric must match
its baseline bit-for-bit.  Any drift means the *model* changed (a
fidelity regression, or a deliberate change that must re-baseline) and
is always reported as a regression, even when the number moved in the
"good" direction.  A metric or a benchmark present on one side only is
``new`` or ``removed``.  ``repro bench compare`` exits 1 on any change
at all: an artifact is either equal to its baseline or it is not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.perf.artifact import CYCLE_DOMAIN, BenchmarkRecord, PerfReport


class ChangeKind(enum.Enum):
    REGRESSION = "regression"
    NEW = "new"
    REMOVED = "removed"


@dataclass(frozen=True)
class MetricChange:
    """One observed difference between baseline and candidate."""

    benchmark: str
    metric: str | None
    domain: str
    kind: ChangeKind
    baseline: object = None
    candidate: object = None
    detail: str = ""

    def describe(self) -> str:
        where = self.benchmark
        if self.metric:
            where = f"{where} {self.domain}.{self.metric}"
        tail = f" ({self.detail})" if self.detail else ""
        if self.kind in (ChangeKind.NEW, ChangeKind.REMOVED):
            return f"[{self.kind.value.upper()}] {where}{tail}"
        return (
            f"[{self.kind.value.upper()}] {where}: "
            f"{self.baseline} -> {self.candidate}{tail}"
        )


@dataclass
class PerfDiff:
    """Typed result of comparing two :class:`PerfReport` artifacts."""

    baseline_label: str
    candidate_label: str
    changes: list[MetricChange] = field(default_factory=list)

    def of_kind(self, kind: ChangeKind) -> list[MetricChange]:
        return [c for c in self.changes if c.kind is kind]

    @property
    def regressions(self) -> list[MetricChange]:
        return self.of_kind(ChangeKind.REGRESSION)

    @property
    def added(self) -> list[MetricChange]:
        return self.of_kind(ChangeKind.NEW)

    @property
    def removed(self) -> list[MetricChange]:
        return self.of_kind(ChangeKind.REMOVED)

    @property
    def clean(self) -> bool:
        """No changes at all — the all-green outcome."""
        return not self.changes

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline_label,
            "candidate": self.candidate_label,
            "clean": self.clean,
            "counts": {
                kind.value: len(self.of_kind(kind)) for kind in ChangeKind
            },
            "changes": [
                {
                    "benchmark": c.benchmark,
                    "metric": c.metric,
                    "domain": c.domain,
                    "kind": c.kind.value,
                    "baseline": c.baseline,
                    "candidate": c.candidate,
                    "detail": c.detail,
                }
                for c in self.changes
            ],
        }


def _relative(base: object, cand: object) -> str:
    if isinstance(base, (int, float)) and isinstance(cand, (int, float)) \
            and not isinstance(base, bool) and not isinstance(cand, bool):
        if base:
            return f"{(cand - base) / base:+.2%}"
        return "baseline was 0"
    return ""


def _compare_cycles(
    diff: PerfDiff, base: BenchmarkRecord, cand: BenchmarkRecord
) -> None:
    for metric in sorted(set(base.cycles) | set(cand.cycles)):
        if metric not in cand.cycles:
            diff.changes.append(
                MetricChange(
                    benchmark=base.key,
                    metric=metric,
                    domain=CYCLE_DOMAIN,
                    kind=ChangeKind.REMOVED,
                    baseline=base.cycles[metric],
                    detail="metric absent from candidate",
                )
            )
            continue
        if metric not in base.cycles:
            diff.changes.append(
                MetricChange(
                    benchmark=base.key,
                    metric=metric,
                    domain=CYCLE_DOMAIN,
                    kind=ChangeKind.NEW,
                    candidate=cand.cycles[metric],
                    detail="metric absent from baseline",
                )
            )
            continue
        before, after = base.cycles[metric], cand.cycles[metric]
        if before != after:
            diff.changes.append(
                MetricChange(
                    benchmark=base.key,
                    metric=metric,
                    domain=CYCLE_DOMAIN,
                    kind=ChangeKind.REGRESSION,
                    baseline=before,
                    candidate=after,
                    detail=_relative(before, after) or "cycle-domain drift",
                )
            )


def compare_reports(baseline: PerfReport, candidate: PerfReport) -> PerfDiff:
    """Diff two artifacts benchmark-by-benchmark, metric-by-metric."""
    diff = PerfDiff(
        baseline_label=baseline.label, candidate_label=candidate.label
    )
    keys = sorted(set(baseline.benchmarks) | set(candidate.benchmarks))
    for key in keys:
        base = baseline.benchmarks.get(key)
        cand = candidate.benchmarks.get(key)
        if cand is None:
            diff.changes.append(
                MetricChange(
                    benchmark=key,
                    metric=None,
                    domain="suite",
                    kind=ChangeKind.REMOVED,
                    detail="benchmark absent from candidate",
                )
            )
            continue
        if base is None:
            diff.changes.append(
                MetricChange(
                    benchmark=key,
                    metric=None,
                    domain="suite",
                    kind=ChangeKind.NEW,
                    detail="benchmark absent from baseline",
                )
            )
            continue
        _compare_cycles(diff, base, cand)
    return diff
