"""Segment retry/backoff policy and run-health accounting.

The recovery contract rests on the AP's deterministic cycle model: a
segment's cycle-domain outcome depends only on (automaton, config,
input, plan, FIV inputs), so re-executing a failed segment is *bit
exact* — recovery can be verified against a fault-free run, not just
hoped for.  :func:`run_with_retry` is the shared driver both backends
wrap around one segment's execution attempts; :class:`RetryPolicy`
bounds it (attempt budget, capped exponential backoff, per-segment
dispatch timeout); :class:`RunHealth` records what actually happened
for ``PAPRunResult.extra["health"]`` and the ``exec.*`` series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.errors import (
    ConfigurationError,
    ExecutionError,
    RETRYABLE_ERRORS,
    SegmentTimeoutError,
    WorkerCrashError,
)
from repro.obs.tracer import Observer

#: Track name for backend dispatch/recovery records in repro.obs traces.
TRACK_EXEC = "exec"

T = TypeVar("T")

#: Capped exponential backoff: each failed attempt multiplies the sleep
#: by this factor, up to :data:`BACKOFF_MAX_S` seconds.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery policy for segment execution.

    Attributes
    ----------
    max_retries:
        Re-executions allowed per segment after its first attempt
        (``0`` — the default — preserves fail-fast behaviour).
    backoff_base_s:
        Sleep before the first retry; the sleep before retry ``n`` is
        ``min(BACKOFF_MAX_S, backoff_base_s * BACKOFF_FACTOR**(n-1))``.
        Deterministic (no jitter): retried runs must stay reproducible.
    segment_timeout_s:
        Per-dispatch timeout on the process backend.  A segment that
        does not return in time counts as a timeout failure (the worker
        pool is recycled, since a hung worker cannot be reclaimed).
    """

    max_retries: int = 0
    backoff_base_s: float = 0.05
    segment_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ConfigurationError("backoff_base_s must be >= 0")
        if self.segment_timeout_s is not None and self.segment_timeout_s <= 0:
            raise ConfigurationError("segment timeout must be positive")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def delay_s(self, attempt: int) -> float:
        """Backoff slept after failed attempt number ``attempt``."""
        return min(
            BACKOFF_MAX_S, self.backoff_base_s * BACKOFF_FACTOR ** (attempt - 1)
        )


#: Fail-fast: no retries, no timeout — the pre-existing backend
#: behaviour, and what :class:`~repro.exec.backend.RunOptions` defaults to.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class RunHealth:
    """What the recovery machinery actually did during one run."""

    run_id: str | None = None
    """Correlation id shared with the run's flight-recorder ledger
    (``None`` when no flight recorder is attached)."""
    engine: str | None = None
    """The engine every attempt stepped flows with (``set``/``vector``)."""
    engine_reason: str | None = None
    """Why: ``"<engine>: requested"``, or the ``auto`` rule's verdict
    such as ``"vector: 11 limbs <= 32"``."""
    attempts: dict[int, int] = field(default_factory=dict)
    """Execution attempts per segment index (1 everywhere on a clean run)."""
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    injected: list[dict] = field(default_factory=list)
    """Faults the injector fired: ``{"segment", "attempt", "kind"}``."""
    downgraded: bool = False
    downgrade_reason: str | None = None
    downgraded_at_segment: int | None = None
    hedges: int = 0
    """Speculative re-dispatches issued for straggling segments."""
    hedge_wins: list[dict] = field(default_factory=list)
    """Hedges whose speculative dispatch finished first:
    ``{"segment", "waited_ms"}``."""
    worker_steps: list[dict] = field(default_factory=list)
    """Pool step-downs under consecutive infrastructure failures:
    ``{"segment", "workers", "consecutive", "error"}``."""
    speculation_hits: int = 0
    """Segments run on the pool before their FIV arrived whose result
    was kept: the FIV lands after the segment finishes."""
    speculation_misses: int = 0
    """Segments sent again with their FIV because it could have fired
    inside the speculative run.  A miss is not a failure: it uses no
    retry and leaves :attr:`clean` alone."""
    checkpoint_path: str | None = None
    """Checkpoint file backing this run (``None`` without one).  The
    flight recorder's crash bundle carries the whole health dict, so a
    crashed run's bundle names where its resumable state lives."""
    checkpoint_hits: int = 0
    checkpoint_writes: int = 0

    def record_attempt(self, segment: int) -> None:
        self.attempts[segment] = self.attempts.get(segment, 0) + 1

    @property
    def total_attempts(self) -> int:
        return sum(self.attempts.values())

    @property
    def clean(self) -> bool:
        """True when no recovery machinery fired at all."""
        return not (
            self.retries
            or self.timeouts
            or self.crashes
            or self.injected
            or self.downgraded
            or self.hedges
            or self.worker_steps
        )

    def to_dict(self) -> dict:
        """JSON-ready view for ``PAPRunResult.extra["health"]``."""
        return {
            "run_id": self.run_id,
            "engine": self.engine,
            "engine_reason": self.engine_reason,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "downgraded": self.downgraded,
            "downgrade_reason": self.downgrade_reason,
            "downgraded_at_segment": self.downgraded_at_segment,
            "hedges": self.hedges,
            "hedge_wins": list(self.hedge_wins),
            "worker_steps": list(self.worker_steps),
            "speculation_hits": self.speculation_hits,
            "speculation_misses": self.speculation_misses,
            "checkpoint_path": self.checkpoint_path,
            "checkpoint_hits": self.checkpoint_hits,
            "checkpoint_writes": self.checkpoint_writes,
            "faults_injected": len(self.injected),
            "injected_faults": list(self.injected),
            "attempts": {
                str(segment): count
                for segment, count in sorted(self.attempts.items())
            },
            "total_attempts": self.total_attempts,
        }


def run_with_retry(
    policy: RetryPolicy,
    health: RunHealth,
    observer: Observer,
    segment_index: int,
    attempt_fn: Callable[[], T],
    *,
    on_failure: Callable[[BaseException], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Drive one segment's execution attempts under ``policy``.

    ``attempt_fn`` performs one full attempt (fault draw, dispatch,
    collect) and either returns the :class:`SegmentResult` or raises.
    Only :data:`~repro.errors.RETRYABLE_ERRORS` are retried — anything
    else (lint failures, configuration errors, deterministic worker
    bugs) propagates immediately.  When the attempt budget is
    exhausted, the last error is wrapped in an
    :class:`~repro.errors.ExecutionError` naming the segment and the
    attempt count.

    ``on_failure`` fires on every retryable failure *before* the
    exhaustion check — the process backend's failure ladder counts
    consecutive infrastructure failures with it, so it must run even
    for the failure that exhausts the budget.
    """
    attempt = 0
    while True:
        attempt += 1
        health.record_attempt(segment_index)
        try:
            return attempt_fn()
        except RETRYABLE_ERRORS as error:
            if isinstance(error, SegmentTimeoutError):
                health.timeouts += 1
            elif isinstance(error, WorkerCrashError):
                health.crashes += 1
            if on_failure is not None:
                on_failure(error)
            if attempt >= policy.max_attempts:
                raise ExecutionError(
                    f"segment {segment_index} failed after {attempt} "
                    f"attempt(s) (retries exhausted): {error}"
                ) from error
            health.retries += 1
            if observer.enabled:
                observer.instant(
                    "segment-retry",
                    track=TRACK_EXEC,
                    args={
                        "segment": segment_index,
                        "failed_attempt": attempt,
                        "error": type(error).__name__,
                    },
                )
            delay = policy.delay_s(attempt)
            if delay > 0:
                sleep(delay)
