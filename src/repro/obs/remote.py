"""Worker-side telemetry capture and parent-side merge.

The process backend runs each segment in a spawned worker whose
scheduler would otherwise execute under the null observer — every
worker-side span, flow event, metric, and phase cost invisible to the
parent's ledger.  This module closes that gap with a ship-don't-stream
design (workers have no handle on the parent's ledger file, and
cross-process streaming would serialize the hot loop on a pipe):

* :class:`RecordingObserver` — a plain :class:`~repro.obs.tracer.Tracer`
  a worker attaches to its cached scheduler for the duration of one
  task.  Everything it captures is plain data.
* :class:`RecordBatch` — the pickle-safe container shipped back inside
  ``SegmentTaskResult``: the events, a metrics snapshot, wall-phase
  rows, and the worker's one-slot scheduler-cache behaviour
  (compile hit/miss + compile wall).
* :func:`merge_batch` — the parent-side fold: re-base worker
  ``perf_counter_ns`` timestamps into the parent's clock domain
  (the domains are *not* comparable across processes), land events on
  stable per-pid tracks, parent them under the ``dispatch[i]`` span,
  and fold the worker's host metrics into the registry prefixed
  ``worker.``.

Re-basing: the worker's capture window ``[wall_start_ns,
wall_end_ns]`` is right-aligned at the parent's dispatch-span end (the
moment the result — batch included — was observed by the parent).
That anchor is the only event both clocks witness, so worker records
always land *inside* their dispatch span, preserving the visual
parent/child containment in the wall-domain Chrome export.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.obs.tracer import TraceEvent, Tracer

#: args key carrying the originating worker pid on merged records.
ARG_PID = "pid"
#: args key carrying the parent dispatch-span handle on merged records.
ARG_PARENT_SPAN = "parent_span"
#: Instant recorded once per merged batch (the per-batch manifest).
BATCH_MARKER = "worker-batch"


def worker_track(pid: int, track: str) -> str:
    """The parent-side track a worker event lands on.

    Stable per pid — ``pid{pid}:{track}`` — so a pool worker that runs
    many segments across many runs keeps one track family instead of
    interleaving with the parent's ``exec`` spans.
    """
    return f"pid{pid}:{track}"


@dataclass(frozen=True)
class RecordBatch:
    """One worker task's shipped telemetry (pickle-safe, plain data)."""

    pid: int
    wall_start_ns: int
    """Worker-clock time the capture began (task entry)."""
    wall_end_ns: int
    """Worker-clock time the capture ended (batch sealed)."""
    events: tuple[TraceEvent, ...]
    metrics: dict = field(default_factory=dict)
    """``MetricsRegistry.snapshot()`` of the worker-side registry."""
    phases: tuple[tuple[int, str, int], ...] = ()
    """Wall-phase rows ``(segment, phase, wall_ns)``."""
    compile_hit: bool = False
    """Whether the one-slot scheduler cache served this task."""
    compile_wall_ns: int = 0
    """Wall spent building the scheduler on a miss (0 on a hit)."""

    @property
    def wall_ns(self) -> int:
        return self.wall_end_ns - self.wall_start_ns


class RecordingObserver(Tracer):
    """The observer a worker attaches to its cached scheduler.

    An ordinary :class:`Tracer` (events, metrics, wall phases) plus
    :meth:`to_batch`, which seals the capture into a pickle-safe
    :class:`RecordBatch`.  Workers create one per task: batches stay
    small (one segment's records) and carry an unambiguous capture
    window for parent-side re-basing.
    """

    def __init__(self) -> None:
        super().__init__()
        self.wall_start_ns = self.clock()

    def to_batch(
        self,
        *,
        compile_hit: bool = False,
        compile_wall_ns: int = 0,
    ) -> RecordBatch:
        """Seal the capture for shipping inside ``SegmentTaskResult``."""
        return RecordBatch(
            pid=os.getpid(),
            wall_start_ns=self.wall_start_ns,
            wall_end_ns=self.clock(),
            events=tuple(self.events),
            metrics=self.metrics.snapshot(),
            phases=self.phases.items(),
            compile_hit=compile_hit,
            compile_wall_ns=compile_wall_ns,
        )


def merge_batch(
    tracer: Tracer,
    batch: RecordBatch | None,
    *,
    span: int = -1,
    segment: int | None = None,
) -> None:
    """Fold one worker batch into the parent tracer (see module doc).

    ``span`` is the handle of the parent's ``dispatch[i]`` span (the
    batch's parent in the merged timeline); ``segment`` the segment
    index the task executed.  Safe to call with ``batch=None`` (workers
    only capture when asked).
    """
    if batch is None:
        return
    parent = (
        tracer.events[span] if 0 <= span < len(tracer.events) else None
    )
    anchor = (
        parent.wall_end_ns
        if parent is not None and parent.wall_end_ns is not None
        else tracer.clock()
    )
    offset = anchor - batch.wall_end_ns
    lineage = {ARG_PID: batch.pid, ARG_PARENT_SPAN: span}
    if tracer.run_id is not None:
        lineage["run"] = tracer.run_id
    for event in batch.events:
        args = dict(event.args) if event.args else {}
        args.update(lineage)
        tracer._ingest_event(
            TraceEvent(
                kind=event.kind,
                name=event.name,
                track=worker_track(batch.pid, event.track),
                wall_start_ns=event.wall_start_ns + offset,
                wall_end_ns=(
                    event.wall_end_ns + offset
                    if event.wall_end_ns is not None
                    else None
                ),
                cycle_start=event.cycle_start,
                cycle_end=event.cycle_end,
                value=event.value,
                args=args,
                depth=event.depth,
            )
        )
    tracer.instant(
        BATCH_MARKER,
        track=worker_track(batch.pid, "task"),
        args={
            **lineage,
            "segment": segment,
            "records": len(batch.events),
            "worker_wall_ms": round(batch.wall_ns / 1e6, 3),
            "compile_hit": batch.compile_hit,
            "compile_wall_ms": round(batch.compile_wall_ns / 1e6, 3),
        },
    )

    metrics = tracer.metrics
    # A worker counts only per-process host facts (its limb cache); the
    # cycle-domain and recovery series are derived in the parent from
    # the returned records (repro.obs.series).
    for name, payload in batch.metrics.items():
        target = f"worker.{name}"
        if payload["type"] == "counter":
            metrics.counter(target).inc(int(payload["value"]))
        else:  # a gauge: keep the worker's max, then its last value
            if payload["max"] is not None:
                metrics.gauge(target).set(payload["max"])
            metrics.gauge(target).set(payload["value"])
    metrics.counter("worker.batches").inc()
    metrics.counter("worker.records").inc(len(batch.events))
    metrics.counter("worker.compile_hits").inc(1 if batch.compile_hit else 0)
    metrics.counter("worker.compile_misses").inc(
        0 if batch.compile_hit else 1
    )
    if not batch.compile_hit:
        metrics.histogram("worker.compile_wall_ms").observe(
            batch.compile_wall_ns / 1e6
        )
    if tracer.phases.enabled and batch.phases:
        tracer.phases.merge(batch.phases)
