"""Chrome trace-event JSON export (Perfetto-loadable).

The exporter turns a tracer's event list into the Trace Event Format
(the ``{"traceEvents": [...]}`` object understood by ``chrome://tracing``
and https://ui.perfetto.dev): one *thread* per track — ``run``, one
track per segment, ``host`` — with ``X`` (complete) events for spans,
``i`` instants for flow lifecycle / FIV / golden-fallback markers, and
``C`` counter events for slice occupancy and cache fill.

Two export domains mirror the tracer's dual clocks:

* ``cycles`` (default) — timestamps are simulated symbol cycles,
  rendered 1 cycle = 1 µs so Perfetto's microsecond ruler reads as a
  cycle count.  Events without cycle timestamps are dropped.
* ``wall`` — timestamps are host nanoseconds rebased to the first
  event; this profiles the simulator itself.

:func:`validate_chrome_trace` is the shape check used by tests and the
CI smoke job before a trace is uploaded as an artifact.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import ConfigurationError
from repro.obs.tracer import COUNTER, INSTANT, SPAN, TraceEvent

DOMAINS = ("cycles", "wall")

PROCESS_NAME = "PAP"
_PID = 1

#: Nesting tolerance in exported microseconds (1 ns): timestamps reach
#: Perfetto as floats, so exact containment computed in nanoseconds can
#: drift by one ulp after the /1000 conversion.
_NEST_EPS_US = 1e-3


def _timestamps(
    event: TraceEvent, domain: str, wall_base_ns: int
) -> tuple[float, float | None] | None:
    """(ts, dur) in microseconds for ``event``, or ``None`` to skip."""
    if domain == "cycles":
        if event.cycle_start is None:
            return None
        start = float(event.cycle_start)
        if event.kind != SPAN:
            return start, None
        end = event.cycle_end
        return start, (float(end) - start if end is not None else 0.0)
    start = (event.wall_start_ns - wall_base_ns) / 1_000.0
    if event.kind != SPAN:
        return start, None
    if event.wall_end_ns is None:
        return start, 0.0
    return start, (event.wall_end_ns - event.wall_start_ns) / 1_000.0


def export_chrome_trace(
    events: Iterable[TraceEvent],
    *,
    domain: str = "cycles",
    metrics: dict[str, Any] | None = None,
) -> dict:
    """Render ``events`` as a Chrome trace-event JSON object."""
    if domain not in DOMAINS:
        raise ConfigurationError(
            f"unknown trace domain {domain!r}: expected one of {DOMAINS}"
        )
    events = list(events)
    wall_base_ns = min(
        (event.wall_start_ns for event in events), default=0
    )

    # Tracks map to Perfetto threads, but one tid can only render
    # properly *nested* spans — and some tracks legitimately carry
    # partially overlapping spans (concurrent dispatches on ``exec``
    # under the pool's prefetch, repeated runs reusing one seg track).
    # Spans therefore get a greedy per-track *lane*: a span that would
    # partially overlap an open span spills to the next lane, keyed
    # ``(track, lane)`` -> tid, so every tid holds a clean span stack
    # (the invariant validate_chrome_trace enforces).
    tids: dict[tuple[str, int], int] = {}
    lane_stacks: dict[tuple[str, int], list[float]] = {}

    def tid_for(track: str, lane: int) -> int:
        key = (track, lane)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len(tids) + 1
        return tid

    def lane_for(track: str, ts: float, end: float) -> int:
        lane = 0
        while True:
            stack = lane_stacks.setdefault((track, lane), [])
            while stack and ts >= stack[-1] - _NEST_EPS_US:
                stack.pop()
            if stack and end > stack[-1] + _NEST_EPS_US:
                lane += 1
                continue
            stack.append(end)
            return lane

    trace_events: list[dict] = []
    for event in events:
        stamps = _timestamps(event, domain, wall_base_ns)
        if stamps is None:
            # Domain dropped the event, but the track still appears as
            # a named (empty) thread — matching historical exports.
            tid_for(event.track, 0)
            continue
        ts, dur = stamps
        if event.kind == SPAN:
            tid = tid_for(
                event.track, lane_for(event.track, ts, ts + (dur or 0.0))
            )
        else:
            tid = tid_for(event.track, 0)
        record: dict[str, Any] = {
            "name": event.name,
            "pid": _PID,
            "tid": tid,
            "ts": ts,
        }
        if event.kind == SPAN:
            record["ph"] = "X"
            record["dur"] = dur if dur is not None else 0.0
            if event.args:
                record["args"] = event.args
        elif event.kind == INSTANT:
            record["ph"] = "i"
            record["s"] = "t"
            if event.args:
                record["args"] = event.args
        elif event.kind == COUNTER:
            record["ph"] = "C"
            record["args"] = {event.name: event.value}
        else:  # pragma: no cover - tracer only emits the three kinds
            continue
        trace_events.append(record)

    metadata: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "args": {"name": PROCESS_NAME},
        }
    ]
    for (track, lane), tid in tids.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": track if lane == 0 else f"{track}/{lane}"},
            }
        )

    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "domain": domain,
            "timestampUnit": (
                "symbol cycles (1 cycle rendered as 1us)"
                if domain == "cycles"
                else "host microseconds"
            ),
            "metrics": metrics or {},
        },
    }


def validate_chrome_trace(trace: Any) -> list[dict]:
    """Check ``trace`` against the Chrome trace-event shape.

    Returns the (non-metadata) event records on success; raises
    ``ValueError`` naming the first offending record otherwise.  This
    is deliberately strict about the fields Perfetto needs — ``name``,
    ``ph``, ``ts``, ``pid``, ``tid``, and ``dur`` for complete events —
    and about the rendering invariant the exporter's lane assignment
    guarantees: no two open spans may share a track (complete events on
    one tid must nest properly, never partially overlap).
    """
    if not isinstance(trace, dict):
        raise ValueError("trace must be a JSON object")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace.traceEvents must be a list")
    payload: list[dict] = []
    for index, record in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(record, dict):
            raise ValueError(f"{where} is not an object")
        phase = record.get("ph")
        if not isinstance(phase, str) or not phase:
            raise ValueError(f"{where} missing phase 'ph'")
        if not isinstance(record.get("name"), str):
            raise ValueError(f"{where} missing 'name'")
        if not isinstance(record.get("pid"), int):
            raise ValueError(f"{where} missing integer 'pid'")
        if phase == "M":
            continue
        if not isinstance(record.get("tid"), int):
            raise ValueError(f"{where} missing integer 'tid'")
        if not isinstance(record.get("ts"), (int, float)):
            raise ValueError(f"{where} missing numeric 'ts'")
        if phase == "X" and not isinstance(
            record.get("dur"), (int, float)
        ):
            raise ValueError(f"{where} complete event missing 'dur'")
        if phase == "C" and not isinstance(record.get("args"), dict):
            raise ValueError(f"{where} counter event missing 'args'")
        payload.append(record)

    spans_by_tid: dict[int, list[tuple[float, float, int]]] = {}
    for index, record in enumerate(events):
        if isinstance(record, dict) and record.get("ph") == "X":
            spans_by_tid.setdefault(record["tid"], []).append(
                (record["ts"], record["dur"], index)
            )
    for tid, spans in spans_by_tid.items():
        # Longest-first on ties so a parent opening with its child at
        # the same timestamp is seen (and stacked) before the child.
        spans.sort(key=lambda item: (item[0], -item[1]))
        stack: list[float] = []
        for ts, dur, index in spans:
            end = ts + dur
            while stack and ts >= stack[-1] - _NEST_EPS_US:
                stack.pop()
            if stack and end > stack[-1] + _NEST_EPS_US:
                raise ValueError(
                    f"traceEvents[{index}]: two open spans share tid "
                    f"{tid} (span [{ts}, {end}] partially overlaps an "
                    f"open span ending at {stack[-1]})"
                )
            stack.append(end)
    return payload
