"""Phase-attribution profiling: where a run's cycles and wall time go.

ROADMAP item 1 calls the symbol-at-a-time execution loop the ~10^3x
bottleneck, and PaREM-style vectorization should be *aimed by
measurement*.  This module attributes a run's cost to a small, fixed
set of phases in both time domains:

* **cycles** — derived exactly from the cycle accounting the scheduler
  already keeps (:class:`~repro.core.scheduler.SegmentMetrics`), so
  per-phase totals provably sum to the run's totals.  Per segment,
  ``transition + switch + convergence == finish_cycles`` holds *by
  construction* (the scheduler computes ``context_switch_cycles`` as
  the residual of the segment clock), and the run-level chain
  ``enumeration_cycles == fold(finish, tcpu) + report`` is re-derived
  and checked by :func:`verify_phase_totals`.
* **wall** — host ``perf_counter_ns`` accounting captured by a
  :class:`PhaseAccumulator` hanging off the active observer
  (``observer.phases``).  Every measured region runs through
  :meth:`PhaseRecorder.timed`, once per slice or flow (never per
  symbol); the disabled recorder's ``timed`` is a plain call that never
  reads the clock, so it stays inside the pinned <5% observer budget.

The phases:

``transition``
    Symbol processing — the NFA transition walk (every flow).
``switch``
    Context-switch machinery: SVC save/restore, deactivation compares,
    FIV application.
``convergence``
    Convergence sweeps (state-vector comparisons at period boundaries).
``compose``
    Host-side truth masking / composition (wall domain only; the cycle
    model charges composition inside ``tcpu``).
``decode``
    Host decode of final state vectors (``T_cpu``; cycle domain only).
``report``
    Draining the output event buffer on the host.

Renderers: a text table (:func:`render_phase_profile`), a
collapsed-stack export (:func:`to_folded`), and a speedscope JSON
profile (:func:`to_speedscope`, checked by
:func:`validate_speedscope`).
"""

from __future__ import annotations

import math
from time import perf_counter_ns
from typing import Any, Callable, Iterable, TypeVar

T = TypeVar("T")

PHASE_TRANSITION = "transition"
PHASE_SWITCH = "switch"
PHASE_CONVERGENCE = "convergence"
PHASE_COMPOSE = "compose"
PHASE_DECODE = "decode"
PHASE_REPORT = "report"

#: Phases with exact cycle-domain accounting, in display order.
CYCLE_PHASES = (
    PHASE_TRANSITION,
    PHASE_SWITCH,
    PHASE_CONVERGENCE,
    PHASE_DECODE,
    PHASE_REPORT,
)
#: Phases the wall-domain accumulator may carry (a superset is fine —
#: unknown phases render after the known ones).
WALL_PHASES = (
    PHASE_TRANSITION,
    PHASE_SWITCH,
    PHASE_CONVERGENCE,
    PHASE_COMPOSE,
)

#: Segment index used for run-level (not per-segment) wall phases.
RUN_SCOPE = -1

PHASES_SCHEMA_VERSION = 1


class PhaseAccountingError(Exception):
    """A phase summary failed its sums-to-totals identity check."""


class PhaseRecorder:
    """Null wall-phase recorder: :meth:`add` is a no-op and
    :meth:`timed` a plain call that never reads the clock."""

    enabled: bool = False

    def add(self, phase: str, segment: int, wall_ns: int) -> None:
        """Charge ``wall_ns`` host nanoseconds to ``(segment, phase)``."""

    def timed(
        self, phase: str, segment: int, fn: Callable[..., T], *args, **kwargs
    ) -> T:
        """``fn(*args, **kwargs)``, its wall charged to ``(segment, phase)``."""
        return fn(*args, **kwargs)

    def items(self) -> tuple[tuple[int, str, int], ...]:
        """Recorded ``(segment, phase, wall_ns)`` rows, sorted."""
        return ()

    def totals(self) -> dict[str, int]:
        """Per-phase wall totals (ns) across all segments."""
        return {}


NULL_PHASES = PhaseRecorder()


class PhaseAccumulator(PhaseRecorder):
    """Recording wall-phase accumulator: a ``(segment, phase)`` -> ns map.

    Deliberately minimal — one dict update per measured region, no
    event objects — so enabling phase profiling stays cheap even in the
    TDM loop.
    """

    enabled = True

    def __init__(self) -> None:
        self._acc: dict[tuple[int, str], int] = {}

    def add(self, phase: str, segment: int, wall_ns: int) -> None:
        key = (segment, phase)
        self._acc[key] = self._acc.get(key, 0) + wall_ns

    def timed(
        self, phase: str, segment: int, fn: Callable[..., T], *args, **kwargs
    ) -> T:
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        self.add(phase, segment, perf_counter_ns() - start)
        return result

    def items(self) -> tuple[tuple[int, str, int], ...]:
        return tuple(
            (segment, phase, ns)
            for (segment, phase), ns in sorted(self._acc.items())
        )

    def totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_segment, phase), ns in self._acc.items():
            out[phase] = out.get(phase, 0) + ns
        return out

    def merge(self, items: Iterable[tuple[int, str, int]]) -> None:
        """Fold shipped ``(segment, phase, wall_ns)`` rows (e.g. from a
        worker's :class:`~repro.obs.remote.RecordBatch`) into this
        accumulator."""
        for segment, phase, ns in items:
            self.add(phase, int(segment), int(ns))


# -- summarizing a run -----------------------------------------------------


def summarize_run_phases(result: Any, wall: PhaseRecorder | None = None) -> dict:
    """Build the ``PAPRunResult.extra["phases"]`` payload.

    ``result`` is a :class:`~repro.core.metrics.PAPRunResult` (typed as
    ``Any`` to keep this module import-light).  Cycle attribution comes
    from the segment metrics; ``wall`` contributes host-nanosecond rows
    when phase recording was enabled.  The payload is strict-JSON-safe.
    """
    from repro.host.reporting import report_processing_cycles

    wall_rows: dict[tuple[int, str], int] = {}
    if wall is not None and wall.enabled:
        for segment, phase, ns in wall.items():
            wall_rows[(segment, phase)] = ns

    per_segment: list[dict] = []
    cycles: dict[str, int] = {phase: 0 for phase in CYCLE_PHASES}
    segment_cycles = 0
    for seg_result, tcpu in zip(result.segment_results, result.tcpu_cycles):
        metrics = seg_result.metrics
        index = seg_result.plan.segment.index
        entry: dict = {
            "segment": index,
            "kind": "golden" if seg_result.plan.is_golden else "enumerated",
            PHASE_TRANSITION: metrics.symbol_cycles,
            PHASE_SWITCH: metrics.context_switch_cycles,
            PHASE_CONVERGENCE: metrics.convergence_check_cycles,
            "finish_cycles": metrics.finish_cycles,
            "tcpu_cycles": tcpu,
        }
        seg_wall = {
            phase: ns
            for (seg, phase), ns in wall_rows.items()
            if seg == index
        }
        if seg_wall:
            entry["wall_ns"] = dict(sorted(seg_wall.items()))
        per_segment.append(entry)
        cycles[PHASE_TRANSITION] += metrics.symbol_cycles
        cycles[PHASE_SWITCH] += metrics.context_switch_cycles
        cycles[PHASE_CONVERGENCE] += metrics.convergence_check_cycles
        segment_cycles += metrics.finish_cycles

    decode = sum(result.tcpu_cycles)
    report = report_processing_cycles(result.raw_events)
    cycles[PHASE_DECODE] = decode
    cycles[PHASE_REPORT] = report

    payload: dict = {
        "schema": PHASES_SCHEMA_VERSION,
        "cycles": cycles,
        "segment_cycles": segment_cycles,
        "accounted_cycles": segment_cycles + decode + report,
        "enumeration_cycles": result.enumeration_cycles,
        "golden_cycles": result.golden_cycles,
        "total_cycles": result.total_cycles,
        "hot_phase": hot_phase(cycles),
        "per_segment": per_segment,
    }
    wall_totals = {}
    if wall is not None and wall.enabled:
        wall_totals = wall.totals()
    if wall_totals:
        payload["wall_ns"] = dict(sorted(wall_totals.items()))
    return payload


def hot_phase(cycles: dict[str, int]) -> str:
    """The phase with the largest cycle total (ties resolve in
    :data:`CYCLE_PHASES` display order)."""
    ordered = [p for p in CYCLE_PHASES if p in cycles]
    ordered += [p for p in sorted(cycles) if p not in CYCLE_PHASES]
    if not ordered:
        return PHASE_TRANSITION
    return max(ordered, key=lambda p: cycles.get(p, 0))


def verify_phase_totals(result: Any, phases: dict | None = None) -> dict:
    """Prove a run's phase attribution sums to its cycle totals.

    Checks, exactly (no tolerance):

    1. per segment: ``transition + switch + convergence == finish``;
    2. run: phase segment totals equal ``sum(finish_cycles)``;
    3. the availability chain refolds: ``A[j] = max(A[j-1], finish[j])
       + tcpu[j]`` reproduces ``truth_times``; and
    4. ``enumeration_cycles == A[-1] + report`` (report-drain cycles of
       the run's raw event count).

    Returns ``{"segments": n, "accounted_cycles": ..., "checks": m}``
    on success; raises :class:`PhaseAccountingError` naming the first
    identity that fails.
    """
    from repro.host.reporting import report_processing_cycles

    summary = phases if phases is not None else result.extra.get("phases")
    if not summary:
        raise PhaseAccountingError("run carries no phase summary")
    checks = 0
    for entry in summary["per_segment"]:
        accounted = (
            entry[PHASE_TRANSITION]
            + entry[PHASE_SWITCH]
            + entry[PHASE_CONVERGENCE]
        )
        if accounted != entry["finish_cycles"]:
            raise PhaseAccountingError(
                f"segment {entry['segment']}: phases sum to {accounted} "
                f"but finish_cycles is {entry['finish_cycles']}"
            )
        checks += 1
    cycles = summary["cycles"]
    segment_total = sum(
        entry["finish_cycles"] for entry in summary["per_segment"]
    )
    phase_total = (
        cycles[PHASE_TRANSITION]
        + cycles[PHASE_SWITCH]
        + cycles[PHASE_CONVERGENCE]
    )
    if phase_total != segment_total:
        raise PhaseAccountingError(
            f"segment phase totals sum to {phase_total}, "
            f"segments ran {segment_total} cycles"
        )
    checks += 1
    if segment_total != summary["segment_cycles"]:
        raise PhaseAccountingError(
            f"summary claims {summary['segment_cycles']} segment cycles, "
            f"recomputed {segment_total}"
        )
    checks += 1
    availability = 0
    for entry in summary["per_segment"]:
        availability = (
            max(availability, entry["finish_cycles"]) + entry["tcpu_cycles"]
        )
    truth_tail = result.truth_times[-1] if result.truth_times else 0
    if availability != truth_tail:
        raise PhaseAccountingError(
            f"refolded availability chain ends at {availability}, "
            f"run recorded {truth_tail}"
        )
    checks += 1
    report = report_processing_cycles(result.raw_events)
    if cycles[PHASE_REPORT] != report:
        raise PhaseAccountingError(
            f"report phase carries {cycles[PHASE_REPORT]} cycles, "
            f"event drain costs {report}"
        )
    checks += 1
    if availability + report != result.enumeration_cycles:
        raise PhaseAccountingError(
            f"chain + report = {availability + report} cycles, "
            f"enumeration_cycles is {result.enumeration_cycles}"
        )
    checks += 1
    if cycles[PHASE_DECODE] != sum(result.tcpu_cycles):
        raise PhaseAccountingError(
            f"decode phase carries {cycles[PHASE_DECODE]} cycles, "
            f"tcpu chain charged {sum(result.tcpu_cycles)}"
        )
    checks += 1
    return {
        "segments": len(summary["per_segment"]),
        "accounted_cycles": summary["accounted_cycles"],
        "checks": checks,
    }


# -- renderers -------------------------------------------------------------


def _share(value: int, total: int) -> str:
    if total <= 0:
        return "-"
    return f"{100.0 * value / total:5.1f}%"


def render_phase_profile(summary: dict) -> str:
    """Human-readable phase table for one run's phase summary."""
    cycles = summary["cycles"]
    accounted = summary["accounted_cycles"]
    wall_totals: dict[str, int] = summary.get("wall_ns", {})
    wall_total = sum(wall_totals.values())
    lines = ["== phase profile =="]
    lines.append(
        f"{'phase':<14} {'cycles':>14} {'share':>7} "
        f"{'wall_ms':>10} {'share':>7}"
    )
    phases = [p for p in CYCLE_PHASES]
    phases += [p for p in sorted(wall_totals) if p not in phases]
    for phase in phases:
        cyc = cycles.get(phase)
        wall = wall_totals.get(phase)
        lines.append(
            f"{phase:<14} "
            f"{cyc if cyc is not None else '-':>14} "
            f"{_share(cyc, accounted) if cyc is not None else '-':>7} "
            f"{f'{wall / 1e6:.3f}' if wall is not None else '-':>10} "
            f"{_share(wall, wall_total) if wall is not None else '-':>7}"
        )
    lines.append(
        f"{'accounted':<14} {accounted:>14} {'100.0%':>7} "
        f"{f'{wall_total / 1e6:.3f}' if wall_total else '-':>10} "
        f"{'100.0%' if wall_total else '-':>7}"
    )
    lines.append(
        f"enumeration={summary['enumeration_cycles']} "
        f"golden={summary['golden_cycles']} "
        f"total={summary['total_cycles']} "
        f"hot={summary['hot_phase']}"
    )
    if summary["per_segment"]:
        lines.append("")
        lines.append(
            f"{'seg':>4} {'kind':<10} {'transition':>12} {'switch':>12} "
            f"{'convergence':>12} {'finish':>12} {'tcpu':>10}"
        )
        for entry in summary["per_segment"]:
            lines.append(
                f"{entry['segment']:>4} {entry['kind']:<10} "
                f"{entry[PHASE_TRANSITION]:>12} {entry[PHASE_SWITCH]:>12} "
                f"{entry[PHASE_CONVERGENCE]:>12} "
                f"{entry['finish_cycles']:>12} {entry['tcpu_cycles']:>10}"
            )
    return "\n".join(lines)


def to_folded(summary: dict, *, root: str = "pap") -> str:
    """Collapsed-stack ("folded") export of the cycle-domain phases.

    One line per stack, ``root;frame;frame count`` — the format
    flamegraph tooling and speedscope both ingest.
    """
    lines: list[str] = []
    for entry in summary["per_segment"]:
        seg = f"segment[{entry['segment']}]"
        for phase in (PHASE_TRANSITION, PHASE_SWITCH, PHASE_CONVERGENCE):
            if entry[phase] > 0:
                lines.append(f"{root};{seg};{phase} {entry[phase]}")
        if entry["tcpu_cycles"] > 0:
            lines.append(f"{root};{seg};{PHASE_DECODE} {entry['tcpu_cycles']}")
    report = summary["cycles"].get(PHASE_REPORT, 0)
    if report > 0:
        lines.append(f"{root};{PHASE_REPORT} {report}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(summary: dict, *, name: str = "pap run") -> dict:
    """Speedscope "evented" profile of the cycle-domain attribution.

    Segments are laid out sequentially (this is an *attribution*
    profile — per-segment costs concatenated — not the run's concurrent
    timeline, which lives in the Chrome export).  The value unit is
    symbol cycles, which speedscope displays unitless (``"none"``).
    """
    frames: list[dict] = []
    frame_index: dict[str, int] = {}

    def frame(label: str) -> int:
        if label not in frame_index:
            frame_index[label] = len(frames)
            frames.append({"name": label})
        return frame_index[label]

    events: list[dict] = []
    at = 0

    def emit(label: str, weight: int) -> None:
        nonlocal at
        if weight <= 0:
            return
        idx = frame(label)
        events.append({"type": "O", "frame": idx, "at": at})
        at += weight
        events.append({"type": "C", "frame": idx, "at": at})

    for entry in summary["per_segment"]:
        seg_label = f"segment[{entry['segment']}]"
        seg_weight = entry["finish_cycles"] + entry["tcpu_cycles"]
        if seg_weight <= 0:
            continue
        idx = frame(seg_label)
        events.append({"type": "O", "frame": idx, "at": at})
        for phase in (PHASE_TRANSITION, PHASE_SWITCH, PHASE_CONVERGENCE):
            emit(phase, entry[phase])
        emit(PHASE_DECODE, entry["tcpu_cycles"])
        events.append({"type": "C", "frame": idx, "at": at})
    emit(PHASE_REPORT, summary["cycles"].get(PHASE_REPORT, 0))

    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": at,
                "events": events,
            }
        ],
        "exporter": "repro.obs.phases",
    }


def validate_speedscope(payload: dict) -> None:
    """Structural validation of a speedscope JSON object.

    Checks the shape CI and tests rely on: the schema URL, the shared
    frame table, and — for every evented profile — that open/close
    events balance like a proper stack, reference real frames, and
    carry monotonically non-decreasing ``at`` values bounded by
    ``endValue``.  Raises ``ValueError`` on the first violation.
    """
    if not isinstance(payload, dict):
        raise ValueError("speedscope profile must be a JSON object")
    schema = payload.get("$schema", "")
    if "speedscope" not in str(schema):
        raise ValueError(f"not a speedscope profile: $schema={schema!r}")
    shared = payload.get("shared")
    if not isinstance(shared, dict) or not isinstance(
        shared.get("frames"), list
    ):
        raise ValueError("speedscope 'shared.frames' must be a list")
    frames = shared["frames"]
    for i, entry in enumerate(frames):
        if not isinstance(entry, dict) or not isinstance(
            entry.get("name"), str
        ):
            raise ValueError(f"frame {i} must be an object with a 'name'")
    profiles = payload.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ValueError("speedscope 'profiles' must be a non-empty list")
    for p, profile in enumerate(profiles):
        if not isinstance(profile, dict):
            raise ValueError(f"profile {p} must be an object")
        if profile.get("type") != "evented":
            continue
        end_value = profile.get("endValue")
        if not isinstance(end_value, (int, float)) or math.isnan(
            float(end_value)
        ):
            raise ValueError(f"profile {p}: endValue must be a number")
        last_at = profile.get("startValue", 0)
        stack: list[int] = []
        events = profile.get("events")
        if not isinstance(events, list):
            raise ValueError(f"profile {p}: 'events' must be a list")
        for e, event in enumerate(events):
            kind = event.get("type")
            idx = event.get("frame")
            at = event.get("at")
            if kind not in ("O", "C"):
                raise ValueError(
                    f"profile {p} event {e}: type must be 'O' or 'C'"
                )
            if not isinstance(idx, int) or not 0 <= idx < len(frames):
                raise ValueError(
                    f"profile {p} event {e}: frame {idx!r} out of range"
                )
            if not isinstance(at, (int, float)) or at < last_at:
                raise ValueError(
                    f"profile {p} event {e}: 'at' must be "
                    f"non-decreasing (got {at!r} after {last_at!r})"
                )
            last_at = at
            if kind == "O":
                stack.append(idx)
            else:
                if not stack or stack[-1] != idx:
                    raise ValueError(
                        f"profile {p} event {e}: close of frame {idx} "
                        "does not match the innermost open frame"
                    )
                stack.pop()
        if stack:
            raise ValueError(
                f"profile {p}: {len(stack)} frame(s) left open"
            )
        if last_at > end_value:
            raise ValueError(
                f"profile {p}: events run to {last_at}, past "
                f"endValue {end_value}"
            )
