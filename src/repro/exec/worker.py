"""Spawn-safe worker entry points for :class:`ProcessPoolBackend`.

Everything in this module must be importable by a freshly spawned
interpreter (no closures, no lambdas, no state captured from the parent
process): ``multiprocessing``'s spawn start method pickles only the
function *reference* and its arguments, then re-imports this module in
the child.

Each task ships the full run payload (automaton, configuration, input)
alongside the segment plan, tagged with a per-run token.  Workers cache
the compiled scheduler keyed on that token, so within one run each
worker pays the :class:`CompiledAutomaton` build exactly once no matter
how many segments it executes.  Only the latest token is kept — pools
are reused across runs and automata, and a one-slot cache bounds worker
memory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton
from repro.automata.execution import CompiledAutomaton
from repro.core.config import PAPConfig
from repro.core.scheduler import SegmentPlan, SegmentResult, SegmentScheduler
from repro.exec.faults import CRASH, HANG, STRAGGLER, raise_fault
from repro.obs.remote import RecordBatch, RecordingObserver
from repro.obs.tracer import NULL_OBSERVER

#: Test hook: when set in the environment, every worker task hard-exits
#: instead of running, simulating a crashed worker process.  Used by the
#: test suite to pin the backend's crash surfacing; never set it in
#: production.
CRASH_ENV = "REPRO_EXEC_TEST_CRASH"


@dataclass(frozen=True)
class RunPayload:
    """Everything a worker needs to reconstruct one run's scheduler."""

    automaton: Automaton
    config: PAPConfig
    path_independent: frozenset[int]
    data: bytes
    engine: str = "set"
    """The engine the parent chose for this run; every segment of the
    run steps its flows on it."""


@dataclass(frozen=True)
class SegmentTaskResult:
    """One executed segment plus worker-side wall accounting.

    ``batch`` is the worker's shipped telemetry
    (:class:`~repro.obs.remote.RecordBatch`) when the parent asked for
    capture; ``None`` otherwise, so un-observed runs pickle nothing
    extra across the pool.
    """

    result: SegmentResult
    wall_ns: int
    pid: int
    batch: RecordBatch | None = None


_cached_token: object = None
_cached_scheduler: SegmentScheduler | None = None


def _scheduler_for(
    token: object, payload: RunPayload
) -> tuple[SegmentScheduler, bool, int]:
    """The worker-local scheduler for ``token``, compiled on first use
    and stepping flows on the run's engine.

    Returns ``(scheduler, cache_hit, compile_wall_ns)`` so shipped
    batches can expose the one-slot cache behaviour — pool reuse across
    runs shows up as hits, alternating tokens as thrash.
    """
    global _cached_token, _cached_scheduler
    if _cached_scheduler is None or _cached_token != token:
        start = time.perf_counter_ns()
        _cached_scheduler = SegmentScheduler(
            CompiledAutomaton(payload.automaton),
            AutomatonAnalysis(payload.automaton),
            payload.config,
            payload.path_independent,
            engine=payload.engine,
        )
        _cached_token = token
        return _cached_scheduler, False, time.perf_counter_ns() - start
    return _cached_scheduler, True, 0


def worker_ready() -> int:
    """A no-op task: once it returns, this worker process has started
    and imported everything :func:`run_segment_task` needs."""
    return os.getpid()


def run_segment_task(
    token: object,
    payload: RunPayload,
    plan: SegmentPlan,
    unit_truth: dict[int, bool] | None,
    fiv_time: int | None,
    fault: tuple[str, float] | None = None,
    capture: bool = False,
) -> SegmentTaskResult:
    """Execute one segment in this worker process.

    The cycle-domain outcome is bit-identical to running the same
    :meth:`SegmentScheduler.run_segment` call in the parent: the
    scheduler is deterministic and the observer plays no part in the
    returned :class:`SegmentResult`.

    ``capture`` (set when the parent's observer is enabled) attaches a
    :class:`~repro.obs.remote.RecordingObserver` to the cached
    scheduler for this task only, and ships everything it saw back as
    ``SegmentTaskResult.batch``.  The observer is detached in a
    ``finally`` so a fault mid-segment never leaks recording into the
    next task's un-observed run.

    ``fault`` is an injected ``(kind, delay_seconds)`` drawn by the
    parent's :class:`~repro.exec.faults.FaultInjector` for *this*
    attempt: ``crash`` hard-exits the process (breaking the pool, as a
    real crash would), ``hang`` and ``straggler`` sleep their delay
    before executing (``hang`` is sized to trip the parent's dispatch
    timeout, ``straggler`` to finish late enough that hedging beats
    it), and every other kind raises its modeled transient error back
    across the pool.
    """
    if os.environ.get(CRASH_ENV):
        os._exit(3)
    if fault is not None:
        kind, delay_s = fault
        if kind == CRASH:
            os._exit(3)
        elif kind in (HANG, STRAGGLER):
            time.sleep(delay_s)
        else:
            raise_fault(kind, plan.segment.index)
    start = time.perf_counter_ns()
    scheduler, cache_hit, compile_wall_ns = _scheduler_for(token, payload)
    recorder: RecordingObserver | None = None
    if capture:
        recorder = RecordingObserver()
        scheduler.observer = recorder
    try:
        result = scheduler.run_segment(
            payload.data, plan, unit_truth=unit_truth, fiv_time=fiv_time
        )
    finally:
        if recorder is not None:
            scheduler.observer = NULL_OBSERVER
    batch = None
    if recorder is not None:
        batch = recorder.to_batch(
            compile_hit=cache_hit, compile_wall_ns=compile_wall_ns
        )
    return SegmentTaskResult(
        result=result,
        wall_ns=time.perf_counter_ns() - start,
        pid=os.getpid(),
        batch=batch,
    )
