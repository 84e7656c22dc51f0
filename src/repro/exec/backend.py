"""Pluggable execution backends: where segments actually run.

:class:`ParallelAutomataProcessor.run` models the paper's cycle domain
faithfully, but *how the host drives the simulation* is a separate
concern.  This module puts that choice behind :class:`ExecutionBackend`,
whose :meth:`~ExecutionBackend.execute` is the one segment loop of the
paper's runtime (Section 3.4): resolve a segment's flow-invalidation
inputs from its composed predecessor, run it (or replay it from a
checkpoint), compose it on the host, and advance the availability
chain.  Around that loop :meth:`~ExecutionBackend.execute` also owns
the run lifecycle that :class:`RunOptions` drives: the admission guard,
the checkpoint, the fault injector, run health, and the observer's
``run_failed`` hook.  A backend supplies only *one attempt* at one
segment:

``SerialBackend``
    One in-process :class:`SegmentScheduler`, segments in index order.
    ``strategy`` picks how flows step: the active-set walk, or the
    bit-parallel executor of :mod:`repro.automata.vector` (the
    ``"vector"`` backend name).

``ProcessPoolBackend``
    Each attempt is dispatched to a worker process via
    :class:`concurrent.futures.ProcessPoolExecutor` (spawn-safe — see
    :mod:`repro.exec.worker`).  Dispatch is dependency-aware:

    * with ``use_fiv=True`` a segment's flow-invalidation inputs
      (``unit_truth``, ``fiv_time``) come from its predecessor's
      completed, composed result, so dispatch pipelines along the
      availability chain — each segment enters the pool the moment its
      inputs resolve;
    * with ``use_fiv=False`` no segment's *execution* depends on
      another's (truth only matters at composition time), so every
      first attempt is prefetched up front and the loop only collects.

Segments are fallible, so every attempt runs under
:func:`~repro.exec.resilience.run_with_retry`: a failed attempt (worker
crash, dispatch timeout, transient error — injected or real) is
re-executed under the run's :class:`~repro.exec.resilience.RetryPolicy`
with the same composed-predecessor inputs, so recovery is bit-exact.
The process backend also climbs a *failure ladder* on consecutive
worker crashes and dispatch timeouts — keep the pool width, halve it,
then run in-process until :meth:`ProcessPoolBackend.close` — instead
of failing the run.

**Bit-exactness contract**: for any automaton, input, and configuration,
every backend — including any recovered or degraded run — produces
identical cycle-domain ``SegmentResult`` metrics, identical composition
outcomes, and identical report sets.  Backends change *host wall-clock*
only; the property-based equivalence tests in ``tests/exec/`` pin this.

Host-side composition (truth decisions, ``T_cpu`` decode accounting)
always runs in the parent process — it is the host's job in the paper,
and it is what produces each segment's ``previous_matched`` dependency.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator

from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton
from repro.automata.execution import CompiledAutomaton
from repro.core.composition import (
    ComposedSegment,
    compose_segment,
    unit_truth_map,
)
from repro.core.config import PAPConfig
from repro.core.scheduler import SegmentPlan, SegmentResult, SegmentScheduler
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ExecutionError,
    RETRYABLE_ERRORS,
    ReproError,
    SegmentTimeoutError,
    WorkerCrashError,
)
from repro.exec.durability import (
    HEDGE_POLL_S,
    AdmissionPolicy,
    CheckpointRun,
    CheckpointStore,
    HedgePolicy,
    run_fingerprint,
)
from repro.exec.faults import (
    HANG,
    HOST_KINDS,
    STRAGGLER,
    FaultInjector,
    FaultPlan,
    raise_fault,
)
from repro.exec.resilience import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    RunHealth,
    TRACK_EXEC,
    run_with_retry,
)
from repro.exec.worker import RunPayload, run_segment_task, worker_ready
from repro.host.decode import false_path_decode_cycles
from repro.obs.phases import PHASE_COMPOSE
from repro.obs.tracer import NULL_OBSERVER, TRACK_HOST, TRACK_RUN, Observer

#: The spellable backend names accepted by :func:`resolve_backend` (and
#: the CLI's ``--backend`` flag).
BACKEND_NAMES = ("serial", "process", "vector")

#: One try at one segment: ``attempt(plan, unit_truth, fiv_time)``.
Attempt = Callable[[SegmentPlan, dict[int, bool], int | None], SegmentResult]


@dataclass(frozen=True)
class RunOptions:
    """How one run recovers and persists; none of it moves the cycle
    domain, since a segment's result is a pure function of its inputs.

    ``retry`` bounds recovery (default fail-fast); ``faults`` injects a
    deterministic :class:`~repro.exec.faults.FaultPlan`; ``checkpoint``
    (a store or directory) writes every finished segment through, and
    ``resume`` replays the segments it already holds; ``admission``
    checks the plan against a memory budget before anything runs.
    """

    retry: RetryPolicy = DEFAULT_RETRY_POLICY
    faults: FaultPlan | None = None
    checkpoint: CheckpointStore | str | None = None
    resume: bool = False
    admission: AdmissionPolicy | None = None

    def __post_init__(self) -> None:
        if self.resume and self.checkpoint is None:
            raise ConfigurationError("resume needs a checkpoint directory")


@dataclass(frozen=True)
class ExecutionContext:
    """Everything a backend needs to execute one planned input."""

    automaton: Automaton
    compiled: CompiledAutomaton
    analysis: AutomatonAnalysis
    config: PAPConfig
    path_independent: frozenset[int]
    observer: Observer = NULL_OBSERVER
    options: RunOptions = RunOptions()
    # The run's state, set by ExecutionBackend.execute from the options.
    health: RunHealth = field(default_factory=RunHealth)
    injector: FaultInjector | None = None
    checkpoint: CheckpointRun | None = None
    max_inflight: int | None = None
    """Admission-guard bound on concurrently in-flight segment
    dispatches (``None`` = unbounded).  Consumed by the process
    backend's independent (no-FIV) path, which otherwise prefetches
    every segment at once; serial execution is inherently one segment
    at a time."""


@dataclass(frozen=True)
class SegmentOutcome:
    """One segment's execution result plus its host-side composition."""

    result: SegmentResult
    composed: ComposedSegment
    decode_cycles: int
    """``T_cpu`` for this segment (Figure 11), charged on the
    availability chain by the orchestrator when actually consumed."""


@dataclass(frozen=True)
class Execution:
    """Per-segment outcomes, plus the run's ``health`` (and
    ``checkpoint``) records for ``PAPRunResult.extra``."""

    outcomes: list[SegmentOutcome]
    extra: dict


def _draw_fault(
    ctx: ExecutionContext, index: int, *, infrastructure: bool = True
) -> str | None:
    """One fault draw for this segment's next attempt (None = clean)."""
    if ctx.injector is None:
        return None
    kind = ctx.injector.draw(index, infrastructure=infrastructure)
    if kind is not None:
        obs = ctx.observer
        obs.metrics.counter("exec.faults_injected").inc()
        if obs.enabled:
            obs.instant(
                "fault-injected",
                track=TRACK_EXEC,
                args={"segment": index, "kind": kind},
            )
    return kind


def _in_process_attempt(
    ctx: ExecutionContext,
    data: bytes,
    strategy: str = "set",
    *,
    infrastructure: bool = True,
) -> Attempt:
    """The serial attempt: one in-process scheduler for the whole run.

    In-process, injected faults are modeled as their matching errors (a
    single process can only *model* worker crashes and hangs) and a
    straggler as a delay.  ``infrastructure=False`` is a degraded pool's
    fallback: worker faults (crash, hang) no longer apply — there are
    no workers — but segment-level faults still fire, and the retry
    loop still recovers them.
    """
    scheduler = SegmentScheduler(
        ctx.compiled,
        ctx.analysis,
        ctx.config,
        ctx.path_independent,
        observer=ctx.observer,
        strategy=strategy,
    )

    def attempt(
        plan: SegmentPlan, truth: dict[int, bool], fiv_time: int | None
    ) -> SegmentResult:
        index = plan.segment.index
        fault = _draw_fault(ctx, index, infrastructure=infrastructure)
        if fault == STRAGGLER:
            # Delay, then execute normally: there is nothing to hedge
            # against without a pool.
            assert ctx.injector is not None
            time.sleep(ctx.injector.plan.straggler_s)
        elif fault is not None:
            raise_fault(fault, index)
        ctx.observer.metrics.counter("exec.dispatches").inc()
        return scheduler.run_segment(
            data, plan, unit_truth=truth, fiv_time=fiv_time
        )

    return attempt


def _admit(
    ctx: ExecutionContext,
    health: RunHealth,
    plans: tuple[SegmentPlan, ...],
    data: bytes,
    *,
    all_in_flight: bool,
) -> int | None:
    """The admission guard's in-flight bound; raises if it refuses."""
    if ctx.options.admission is None:
        return None
    decision = ctx.options.admission.check(
        plans, input_bytes=len(data), all_in_flight=all_in_flight
    )
    health.admission = decision.to_dict()
    if ctx.observer.enabled:
        ctx.observer.instant(
            "admission", track=TRACK_RUN, args=health.admission
        )
    if decision.action == "refuse":
        raise AdmissionError(
            f"admission guard refused the run: {decision.reason}"
        )
    return decision.wave_size


def _open_checkpoint(
    ctx: ExecutionContext,
    health: RunHealth,
    plans: tuple[SegmentPlan, ...],
    data: bytes,
) -> CheckpointRun | None:
    """This run's checkpoint file, opened (and on resume loaded)."""
    options = ctx.options
    if options.checkpoint is None:
        return None
    store = options.checkpoint
    if not isinstance(store, CheckpointStore):
        store = CheckpointStore(store)
    checkpoint = store.open_run(
        run_fingerprint(
            ctx.automaton, ctx.config, data, num_segments=len(plans)
        ),
        resume=options.resume,
        meta={
            "automaton": ctx.automaton.name,
            "input_bytes": len(data),
            "segments": len(plans),
        },
    )
    # Into health up front: a crash bundle from any later point of this
    # run must name where the resumable state lives.
    health.checkpoint_path = str(checkpoint.path)
    if ctx.observer.enabled:
        ctx.observer.instant(
            "checkpoint-open",
            track=TRACK_RUN,
            args={
                "path": health.checkpoint_path,
                "resume": options.resume,
                "available": checkpoint.available,
            },
        )
    return checkpoint


class ExecutionBackend:
    """Strategy interface: run all segments of one planned input.

    :meth:`execute` owns the run lifecycle and the one segment loop;
    subclasses supply :meth:`_attempts`, one try at one segment.
    Keeping the host-side dependency chain (unit truth, FIV timing,
    checkpoints, composition) in one loop is what makes the
    bit-exactness contract cheap to uphold.
    """

    name = "abstract"

    def execute(
        self,
        ctx: ExecutionContext,
        data: bytes,
        plans: tuple[SegmentPlan, ...],
    ) -> Execution:
        """Run one planned input under ``ctx.options``.

        The options are checked against this backend first and the
        admission guard decides next, so a rejected or refused run
        never touches the checkpoint; then the checkpoint opens and the
        segment loop runs.  One ``finally`` settles health and closes
        the checkpoint on every exit; on failure the observer's
        ``run_failed`` hook (the flight recorder's crash bundle) then
        gets that settled health.
        """
        options = ctx.options
        self.check_options(options)
        health = RunHealth(run_id=ctx.observer.run_id)
        injector = FaultInjector(options.faults) if options.faults else None
        checkpoint: CheckpointRun | None = None
        failure: Exception | None = None
        try:
            max_inflight = _admit(
                ctx, health, plans, data, all_in_flight=self._prefetches(ctx)
            )
            checkpoint = _open_checkpoint(ctx, health, plans, data)
            ctx = replace(
                ctx,
                health=health,
                injector=injector,
                checkpoint=checkpoint,
                max_inflight=max_inflight,
            )
            outcomes = self._run_segments(ctx, data, plans)
        except Exception as error:
            failure = error
            raise
        finally:
            if injector is not None:
                health.injected = list(injector.injected)
            if checkpoint is not None:
                health.checkpoint_hits = checkpoint.hits
                health.checkpoint_writes = checkpoint.writes
                checkpoint.close()
            if failure is not None:
                ctx.observer.run_failed(failure, health=health)
        extra: dict = {"health": health.to_dict()}
        if checkpoint is not None:
            extra["checkpoint"] = dict(
                checkpoint.to_dict(), resumed=options.resume
            )
        return Execution(outcomes=outcomes, extra=extra)

    def _run_segments(
        self,
        ctx: ExecutionContext,
        data: bytes,
        plans: tuple[SegmentPlan, ...],
    ) -> list[SegmentOutcome]:
        """Run every segment and compose each result, in index order.

        Per segment: its FIV inputs from the composed predecessor; its
        proven result from the checkpoint, or else its attempts under
        :func:`run_with_retry` and a write-through; then host
        composition, whose decode time extends the availability chain
        that times the next segment's FIV.
        """
        if not plans:
            return []
        outcomes: list[SegmentOutcome] = []
        previous_matched: frozenset[int] = frozenset()
        fiv_chain = 0
        with self._attempts(ctx, data, plans) as attempt:
            for plan in plans:
                truth, fiv_time = self._segment_inputs(
                    ctx, plan, previous_matched, fiv_chain
                )
                result = self._checkpoint_load(ctx, plan)
                if result is None:
                    result = run_with_retry(
                        ctx.options.retry,
                        ctx.health,
                        ctx.observer,
                        plan.segment.index,
                        partial(attempt, plan, truth, fiv_time),
                        on_failure=partial(self._attempt_failed, ctx, plan),
                    )
                    self._checkpoint_store(ctx, plan, result)
                outcome = self._compose(ctx, result, truth)
                fiv_chain = (
                    max(fiv_chain, result.metrics.finish_cycles)
                    + outcome.decode_cycles
                )
                previous_matched = outcome.composed.final_matched
                outcomes.append(outcome)
        return outcomes

    def _attempts(
        self,
        ctx: ExecutionContext,
        data: bytes,
        plans: tuple[SegmentPlan, ...],
    ) -> AbstractContextManager[Attempt]:
        """This run's attempt function, built once per run, as a
        context manager whose exit releases any per-run dispatches."""
        raise NotImplementedError

    def check_options(self, options: RunOptions) -> None:
        """Raise :class:`ConfigurationError` for an option this backend
        cannot honour, so that none is silently ignored."""

    def _prefetches(self, ctx: ExecutionContext) -> bool:
        """Whether this run dispatches every segment at once (so the
        admission guard prices them all) instead of one at a time."""
        return False

    def _attempt_failed(
        self, ctx: ExecutionContext, plan: SegmentPlan, error: BaseException
    ) -> None:
        """Called on every retryable attempt failure, before the retry."""

    def close(self) -> None:
        """Release backend resources (worker pools).  Idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- shared host-side steps -------------------------------------------

    @staticmethod
    def _segment_inputs(
        ctx: ExecutionContext,
        plan: SegmentPlan,
        previous_matched: frozenset[int],
        fiv_chain: int,
    ) -> tuple[dict[int, bool], int | None]:
        """A segment's FIV inputs, resolved from its predecessor."""
        if plan.is_golden:
            return {}, None
        truth = unit_truth_map(plan.flows, previous_matched)
        fiv_time = (
            fiv_chain + ctx.config.timing.fiv_transfer_cycles
            if ctx.config.use_fiv
            else None
        )
        return truth, fiv_time

    @staticmethod
    def _compose(
        ctx: ExecutionContext,
        result: SegmentResult,
        truth: dict[int, bool],
    ) -> SegmentOutcome:
        """Host composition of one finished segment (always in-process)."""
        obs = ctx.observer
        index = result.plan.segment.index
        span = obs.begin_span(f"compose[{index}]", track=TRACK_HOST)
        composed = obs.phases.timed(
            PHASE_COMPOSE, index, compose_segment, result, truth, ctx.analysis
        )
        obs.end_span(
            span,
            args={
                "true_events": composed.true_events,
                "raw_events": composed.raw_events,
            },
        )
        decode = false_path_decode_cycles(
            max(1, result.metrics.flows_at_end), timing=ctx.config.timing
        )
        return SegmentOutcome(
            result=result, composed=composed, decode_cycles=decode
        )

    # -- durability (shared write-through checkpoint plumbing) ------------

    @staticmethod
    def _checkpoint_load(
        ctx: ExecutionContext, plan: SegmentPlan
    ) -> SegmentResult | None:
        """This segment's proven result, when the run has one on disk."""
        if ctx.checkpoint is None:
            return None
        result = ctx.checkpoint.load(plan)
        if result is None:
            return None
        obs = ctx.observer
        obs.metrics.counter("exec.checkpoint.hits").inc()
        if obs.enabled:
            obs.instant(
                "checkpoint-hit",
                track=TRACK_EXEC,
                args={"segment": plan.segment.index},
            )
        return result

    @staticmethod
    def _checkpoint_store(
        ctx: ExecutionContext, plan: SegmentPlan, result: SegmentResult
    ) -> None:
        """Write one completed segment through to the checkpoint file."""
        if ctx.checkpoint is None:
            return
        corrupt = (
            ctx.injector.draw_checkpoint(plan.segment.index)
            if ctx.injector is not None
            else False
        )
        ctx.checkpoint.record(plan, result, corrupt=corrupt)
        obs = ctx.observer
        obs.metrics.counter("exec.checkpoint.writes").inc()
        if obs.enabled:
            obs.instant(
                "checkpoint-write",
                track=TRACK_EXEC,
                args={"segment": plan.segment.index, "corrupt": corrupt},
            )


class SerialBackend(ExecutionBackend):
    """In-process execution: one scheduler, segments in index order,
    composition interleaved segment to segment.

    ``strategy`` selects how flows step (one of
    :data:`repro.core.scheduler.STRATEGY_NAMES`, checked by the
    scheduler): ``"set"`` walks active sets; ``"vector"`` advances
    packed-bitset state vectors through precompiled per-symbol-class
    tables, and names the backend ``"vector"``.  Cycle-domain results
    are bit-exact across strategies; the vector win is largest on
    transition-bound automata with wide active sets and can invert on
    large sparse-active ones (see :mod:`repro.automata.vector`).

    Recovery: retryable failures — in-process, injected faults modeled
    as their matching errors — re-execute the segment under the run's
    :class:`~repro.exec.resilience.RetryPolicy`.  Re-execution is
    deterministic, so a recovered run is bit-exact.
    """

    def __init__(self, strategy: str = "set") -> None:
        self.strategy = strategy
        self.name = "serial" if strategy == "set" else strategy

    def check_options(self, options: RunOptions) -> None:
        if options.retry.segment_timeout_s is not None:
            raise ConfigurationError(
                "a segment timeout needs the process backend (the "
                f"{self.name} backend runs segments in-process, where "
                "nothing can interrupt one)"
            )

    @contextmanager
    def _attempts(
        self,
        ctx: ExecutionContext,
        data: bytes,
        plans: tuple[SegmentPlan, ...],
    ) -> Iterator[Attempt]:
        if ctx.observer.enabled:
            ctx.observer.metrics.gauge("exec.workers").set(1)
        yield _in_process_attempt(ctx, data, self.strategy)


class ProcessPoolBackend(ExecutionBackend):
    """Host-parallel segment execution on a process pool.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the host CPU count.  Workers
        always start with ``spawn``, the only start method safe on
        every platform and the one the payload serialization is
        designed for.
    hedge:
        Straggler hedging (see :mod:`repro.exec.durability`): a dispatch
        outstanding past a MAD-based multiple of this run's completed
        dispatch walls is speculatively re-dispatched and the first
        result wins.  Both copies compute the identical pure function,
        so hedging cannot move the cycle domain.

    The pool is created lazily on first use, spawns its workers and
    runs one no-op task per worker before its first dispatch, and is
    *reused across runs* (a warmup pass through
    :func:`repro.perf.measure.measure_wall` therefore also warms the
    pool), so callers owning a backend instance should
    :meth:`close` it — or use it as a context manager — when done.

    Recovery: a broken pool (worker crash) or a tripped per-segment
    dispatch timeout tears the executor down *without waiting* (a hung
    worker cannot be joined), and the next dispatch lazily rebuilds a
    fresh pool.  Consecutive infrastructure failures climb the failure
    ladder (see :meth:`_attempt_failed`), whose state lives on the
    instance and persists across runs until :meth:`close`: a pool that
    degraded to in-process execution stays degraded, so later runs do
    not rebuild a pool that is known to be broken.
    """

    name = "process"

    #: The failure ladder's last rung: this many consecutive worker
    #: crashes or dispatch timeouts move execution in-process.
    DOWNGRADE_AFTER = 3

    def __init__(
        self,
        workers: int | None = None,
        *,
        hedge: HedgePolicy | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError("process backend needs >= 1 worker")
        self.workers = workers if workers is not None else os.cpu_count() or 1
        self.hedge = hedge
        self._executor: ProcessPoolExecutor | None = None
        self._run_counter = 0
        self._reset_ladder()

    # -- pool lifecycle ---------------------------------------------------

    def _reset_ladder(self) -> None:
        # The failure ladder: the width of the next (re)built pool, the
        # count of consecutive worker crashes and dispatch timeouts, and
        # why execution moved in-process (None while on the pool).
        self._dispatch_workers = self.workers
        self._consecutive = 0
        self._degraded: str | None = None

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._dispatch_workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
            # Spawn the workers and run one no-op task per worker before
            # the first dispatch is timed, so that dispatch does not wait
            # on a cold interpreter's imports (which every pool recycled
            # after a timeout would otherwise re-pay inside the retry's
            # budget).  A warm worker may answer several of these tasks
            # while another is still importing; that one can then delay
            # only a dispatch that finds every warm worker busy.  A
            # worker that dies starting up raises BrokenProcessPool
            # here, as a dispatch to it would.
            for ready in [
                self._executor.submit(worker_ready)
                for _ in range(self._dispatch_workers)
            ]:
                ready.result()
        return self._executor

    def _teardown(self, *, wait: bool) -> None:
        """Discard the executor; the next :meth:`_pool` call rebuilds it.

        ``wait=False`` is mandatory on breakage/timeout paths: a broken
        or hung pool may never join, and a blocking shutdown would turn
        one lost worker into a lost run.  Its workers are terminated
        instead, so a hung one cannot outlive the pool and hold the
        interpreter's exit, which joins every worker.
        """
        if self._executor is None:
            return
        # Python 3.14 spells this ProcessPoolExecutor.terminate_workers();
        # before that the private pid -> process map is the only handle
        # on the workers, and shutdown() drops it, so it is copied first.
        processes = list((self._executor._processes or {}).values())
        self._executor.shutdown(wait=wait, cancel_futures=True)
        self._executor = None
        if not wait:
            for process in processes:
                process.terminate()  # a no-op on one that has exited

    def close(self) -> None:
        """Shut the pool down and reset the failure ladder: the next run
        starts on a fresh pool at the configured width."""
        self._teardown(wait=True)
        self._reset_ladder()

    # -- the failure ladder -----------------------------------------------

    def _attempt_failed(
        self, ctx: ExecutionContext, plan: SegmentPlan, error: BaseException
    ) -> None:
        """Climb the failure ladder on a worker crash or dispatch timeout.

        The first consecutive infrastructure failure may be a one-off
        (one lost worker), so the rebuilt pool keeps its width; from the
        second on, re-dispatching at the same width is just re-arming
        the same failure, so each further one halves it (n → n/2 → … →
        1); the :attr:`DOWNGRADE_AFTER`-th moves execution in-process.  A
        successful pool attempt resets the count.  Transient errors
        retry in place and never count: they say nothing about the pool.
        Every rung is recorded in RunHealth.
        """
        if self._degraded is not None or not isinstance(
            error, (WorkerCrashError, SegmentTimeoutError)
        ):
            return
        self._consecutive += 1
        index = plan.segment.index
        kind = type(error).__name__
        obs = ctx.observer
        if self._consecutive >= 2 and self._dispatch_workers > 1:
            self._dispatch_workers //= 2
            ctx.health.worker_steps.append(
                {
                    "segment": index,
                    "workers": self._dispatch_workers,
                    "consecutive": self._consecutive,
                    "error": kind,
                }
            )
            obs.metrics.counter("exec.worker_stepdowns").inc()
            if obs.enabled:
                obs.metrics.gauge("exec.workers").set(self._dispatch_workers)
                obs.instant(
                    "worker-stepdown",
                    track=TRACK_EXEC,
                    args={
                        "segment": index,
                        "workers": self._dispatch_workers,
                        "consecutive_failures": self._consecutive,
                        "error": kind,
                    },
                )
        if self._consecutive < self.DOWNGRADE_AFTER:
            return
        self._degraded = (
            f"{self._consecutive} consecutive infrastructure failures "
            f"(last: {kind})"
        )
        self._record_downgrade(ctx, plan, self._degraded)
        # Workers are no longer needed; reclaim them without waiting on
        # whatever broke them.
        self._teardown(wait=False)

    @staticmethod
    def _record_downgrade(
        ctx: ExecutionContext, plan: SegmentPlan, reason: str
    ) -> None:
        health = ctx.health
        health.downgraded = True
        health.downgraded_at_segment = plan.segment.index
        health.downgrade_reason = reason
        obs = ctx.observer
        obs.metrics.counter("exec.downgrades").inc()
        if obs.enabled:
            obs.instant(
                "backend-downgrade",
                track=TRACK_EXEC,
                args={"segment": plan.segment.index, "reason": reason},
            )
            obs.metrics.gauge("exec.workers").set(1)

    # -- dispatch ---------------------------------------------------------

    def _prefetches(self, ctx: ExecutionContext) -> bool:
        return not ctx.config.use_fiv and self._degraded is None

    @contextmanager
    def _attempts(
        self,
        ctx: ExecutionContext,
        data: bytes,
        plans: tuple[SegmentPlan, ...],
    ) -> Iterator[Attempt]:
        obs = ctx.observer
        if self._degraded is not None:
            # The ladder's last rung outlives the run that reached it:
            # no pool build, no per-segment failure churn.
            self._record_downgrade(
                ctx,
                plans[0],
                f"degraded in an earlier run ({self._degraded}); "
                "in-process until close()",
            )
        elif obs.enabled:
            obs.metrics.gauge("exec.workers").set(self._dispatch_workers)
        self._run_counter += 1
        payload = RunPayload(
            automaton=ctx.automaton,
            config=ctx.config,
            path_independent=ctx.path_independent,
            data=data,
        )
        submit = partial(
            self._submit, ctx, (id(self), self._run_counter), payload
        )
        inline = _in_process_attempt(ctx, data, infrastructure=False)
        samples: list[float] = []  # completed dispatch walls, for hedging
        # Without the FIV every segment's first attempt is prefetched
        # (checkpointed segments never are); an admission bound turns
        # the prefetch into a window of at most that many outstanding
        # dispatches, refilled as each segment completes.
        window = ctx.max_inflight if (ctx.max_inflight or 0) > 0 else None
        prefetched: dict[int, tuple[Future, int] | BaseException] = {}
        unsent = {
            plan.segment.index: plan
            for plan in plans
            if self._prefetches(ctx)
            and (ctx.checkpoint is None or not ctx.checkpoint.has(plan))
        }

        def pump() -> None:
            while (
                unsent
                and self._degraded is None
                and (window is None or len(prefetched) < window)
            ):
                index = next(iter(unsent))
                try:
                    prefetched[index] = submit(unsent.pop(index), None, None)
                except RETRYABLE_ERRORS as error:
                    # Surfaces as this segment's attempt-1 failure when
                    # its turn to collect comes.
                    prefetched[index] = error

        def attempt(
            plan: SegmentPlan, truth: dict[int, bool], fiv_time: int | None
        ) -> SegmentResult:
            index = plan.segment.index
            # A segment whose window never came up is dispatched here.
            unsent.pop(index, None)
            entry = prefetched.pop(index, None)
            if isinstance(entry, BaseException):
                raise entry
            if entry is None:
                if self._degraded is not None:
                    return inline(plan, truth, fiv_time)
                entry = submit(plan, truth, fiv_time)
            future, span = entry
            result = self._collect(
                ctx,
                future,
                span,
                plan,
                partial(submit, plan, truth, fiv_time),
                samples,
            )
            self._consecutive = 0
            pump()
            return result

        try:
            pump()
            yield attempt
        except Exception as error:
            # A failed run leaves its prefetched dispatches uncollected:
            # cancel them and end their spans.
            for entry in prefetched.values():
                if not isinstance(entry, BaseException):
                    entry[0].cancel()
                    obs.end_span(
                        entry[1], args={"outcome": type(error).__name__}
                    )
            raise

    def _submit(
        self,
        ctx: ExecutionContext,
        token: object,
        payload: RunPayload,
        plan: SegmentPlan,
        truth: dict[int, bool] | None,
        fiv_time: int | None,
    ) -> tuple[Future, int]:
        """Draw this attempt's fault and dispatch it to the pool."""
        index = plan.segment.index
        fault = _draw_fault(ctx, index)
        if fault is not None and fault in HOST_KINDS:
            # Host-side faults (FIV-write failure) happen before any
            # dispatch: the FIV never reaches the segment.
            raise_fault(fault, index)
        obs = ctx.observer
        obs.metrics.counter("exec.dispatches").inc()
        span_args = {
            "kind": "golden" if plan.is_golden else "enumerated",
            "flows": len(plan.flows),
        }
        if obs.run_id is not None:
            # Correlate worker events with the run's ledger: every
            # dispatch span names the flight recorder's run id.
            span_args["run"] = obs.run_id
        span = obs.begin_span(
            f"dispatch[{index}]",
            track=TRACK_EXEC,
            args=span_args,
        )
        worker_fault = None
        if fault is not None and ctx.injector is not None:
            # hang and straggler both ship a sleep; only its magnitude
            # (relative to timeout/hedge thresholds) differs.
            plan_faults = ctx.injector.plan
            delay = (
                plan_faults.hang_s
                if fault == HANG
                else plan_faults.straggler_s
            )
            worker_fault = (fault, delay)
        try:
            future = self._pool().submit(
                run_segment_task,
                token,
                payload,
                plan,
                truth,
                fiv_time,
                worker_fault,
                # Capture worker-side telemetry only when someone is
                # listening; un-observed runs ship no extra pickles.
                obs.enabled,
            )
        except BrokenProcessPool as error:
            obs.end_span(span, args={"outcome": "WorkerCrashError"})
            self._teardown(wait=False)
            raise WorkerCrashError(
                f"process backend could not dispatch segment {index}: "
                f"worker pool is broken ({error})"
            ) from error
        return future, span

    def _collect(
        self,
        ctx: ExecutionContext,
        future: Future,
        span: int,
        plan: SegmentPlan,
        redispatch: Callable[[], tuple[Future, int]],
        samples: list[float],
    ) -> SegmentResult:
        """Wait out one dispatch, hedging it if it straggles.

        With a :class:`HedgePolicy` attached, a dispatch still
        outstanding past the MAD-based threshold over this run's
        completed dispatch walls (``samples``) is speculatively
        re-submitted through ``redispatch`` — a fresh attempt to the
        fault injector, so seeded first-attempt faults do not re-fire
        on the copy; whichever copy finishes first wins and the loser is
        cancelled.  Both copies compute the same pure function of the
        same inputs, so first-winner selection cannot change the cycle
        domain.  The per-segment dispatch timeout, when set, still
        bounds the *total* wait including the hedge.  A failed attempt
        ends the span of every copy it dispatched, naming the error.
        """
        obs = ctx.observer
        index = plan.segment.index
        timeout = ctx.options.retry.segment_timeout_s
        policy = self.hedge
        start = time.monotonic()
        threshold = policy.threshold_s(samples) if policy is not None else None
        outstanding: dict[Future, int] = {future: span}
        spans = [span]
        hedged = False
        task_result = None
        winner_span = span
        hedge_won = False
        try:
            while task_result is None:
                elapsed = time.monotonic() - start
                if timeout is not None and elapsed >= timeout:
                    # The worker may be genuinely hung; it cannot be
                    # reclaimed, so recycle the whole pool and let any
                    # retry start fresh.
                    for pending in outstanding:
                        pending.cancel()
                    self._teardown(wait=False)
                    raise SegmentTimeoutError(
                        f"segment {index} exceeded the {timeout:g}s "
                        "dispatch timeout; worker pool recycled"
                    )
                quanta = []
                if timeout is not None:
                    quanta.append(timeout - elapsed)
                if threshold is not None and not hedged:
                    quanta.append(max(threshold - elapsed, 0.0))
                    quanta.append(HEDGE_POLL_S)
                quantum = min(quanta) if quanta else None
                done, _ = wait(
                    outstanding, timeout=quantum, return_when=FIRST_COMPLETED
                )
                if not done:
                    if (
                        threshold is not None
                        and not hedged
                        and time.monotonic() - start >= threshold
                    ):
                        hedged = True
                        hedge_future, hedge_span = redispatch()
                        outstanding[hedge_future] = hedge_span
                        spans.append(hedge_span)
                        ctx.health.hedges += 1
                        obs.metrics.counter("exec.hedges").inc()
                        if obs.enabled:
                            obs.instant(
                                "segment-hedged",
                                track=TRACK_EXEC,
                                args={
                                    "segment": index,
                                    "threshold_ms": threshold * 1e3,
                                },
                            )
                    continue
                # Prefer the primary when both land in the same wait
                # slice; either result is bit-exact.
                finished = future if future in done else next(iter(done))
                finished_span = outstanding.pop(finished)
                try:
                    task_result = finished.result()
                    winner_span = finished_span
                    hedge_won = finished is not future
                except (BrokenProcessPool, CancelledError) as error:
                    # A broken pool takes every outstanding copy with
                    # it; a lone cancellation only loses one.
                    if (
                        isinstance(error, CancelledError)
                        and outstanding
                    ):
                        obs.end_span(
                            finished_span, args={"outcome": "cancelled"}
                        )
                        continue
                    self._teardown(wait=False)
                    raise WorkerCrashError(
                        f"process backend worker died while executing "
                        f"segment {index} (pool broken: {error})"
                    ) from error
                except ReproError as error:
                    # With a healthy hedge still out, its result may
                    # yet land — keep waiting instead of failing the
                    # attempt.
                    if outstanding:
                        obs.end_span(
                            finished_span,
                            args={"outcome": type(error).__name__},
                        )
                        continue
                    raise
                except Exception as error:  # noqa: BLE001 — worker errors vary
                    self._teardown(wait=True)
                    raise ExecutionError(
                        f"segment {index} failed in worker process: {error!r}"
                    ) from error
        except Exception as error:
            # Spans that already ended (a cancelled or failed copy while
            # another was still out) keep their own outcome.
            for handle in spans:
                obs.end_span(handle, args={"outcome": type(error).__name__})
            raise
        for loser, loser_span in outstanding.items():
            loser.cancel()
            obs.end_span(loser_span, args={"outcome": "hedge-loser"})
        if hedge_won:
            waited_ms = (time.monotonic() - start) * 1e3
            ctx.health.hedge_wins.append(
                {"segment": index, "waited_ms": waited_ms}
            )
            obs.metrics.counter("exec.hedge_wins").inc()
            if obs.enabled:
                obs.instant(
                    "hedge-win",
                    track=TRACK_EXEC,
                    args={"segment": index, "waited_ms": waited_ms},
                )
        samples.append(time.monotonic() - start)
        obs.end_span(
            winner_span,
            args={
                "pid": task_result.pid,
                "worker_wall_ms": task_result.wall_ns / 1e6,
            },
        )
        if task_result.batch is not None:
            # Merge the worker's shipped records under this dispatch
            # span: per-pid tracks, re-based timestamps, worker.*
            # metrics (see repro.obs.remote).
            obs.ingest_worker_batch(
                task_result.batch, span=winner_span, segment=index
            )
        return task_result.result


def resolve_backend(
    backend: "ExecutionBackend | str | None",
    *,
    workers: int | None = None,
    hedge: HedgePolicy | None = None,
) -> ExecutionBackend:
    """Turn a backend spec (instance, name, or ``None``) into an instance.

    ``None`` and ``"serial"`` yield a fresh :class:`SerialBackend`,
    ``"vector"`` one on the vector strategy; ``"process"`` yields a
    :class:`ProcessPoolBackend` with ``workers`` (plus the optional
    ``hedge`` policy).  An existing instance passes through untouched
    (``workers`` and ``hedge`` must then be ``None`` — the instance
    already owns its pool and policy).  ``workers``/``hedge`` on an
    in-process backend name is a configuration error: there is no pool
    to size and no dispatch to hedge.
    """
    if isinstance(backend, ExecutionBackend):
        if workers is not None:
            raise ConfigurationError(
                "workers cannot be overridden on an existing backend "
                "instance; construct the backend with the desired count"
            )
        if hedge is not None:
            raise ConfigurationError(
                "hedge cannot be overridden on an existing backend "
                "instance; construct the backend with it"
            )
        return backend
    if backend == "process":
        return ProcessPoolBackend(workers=workers, hedge=hedge)
    if backend not in (None, "serial", "vector"):
        raise ConfigurationError(
            f"unknown execution backend {backend!r} "
            f"(expected one of {', '.join(BACKEND_NAMES)})"
        )
    if workers is not None or hedge is not None:
        raise ConfigurationError(
            "workers and straggler hedging need the process backend "
            "(in-process execution has no pool to size and no "
            "dispatches to hedge)"
        )
    return SerialBackend("vector" if backend == "vector" else "set")
