"""Deterministic fault injection for execution backends.

Real parallel matching engines must tolerate partial failure, and the
PAP's per-chunk independence is exactly what makes re-execution of a
failed chunk cheap (PaREM and the Simultaneous-FA line make the same
observation).  This module provides the *controlled* failures used to
prove that: a :class:`FaultPlan` names which segments fail, how, and on
which attempts, and a :class:`FaultInjector` consumes the plan during
one run.  Everything is seeded and deterministic — given the same plan,
the same faults fire at the same (segment, attempt) coordinates on
every run, so recovered runs can be compared bit-exactly against
fault-free ones.

Fault kinds
-----------

``crash``
    The worker process hard-exits mid-segment (``os._exit``), breaking
    the pool.  The serial backend models it as an inline
    :class:`~repro.errors.WorkerCrashError`.
``hang``
    The worker sleeps ``hang_s`` before executing, tripping the
    per-segment dispatch timeout when one is configured.  The serial
    backend models it as an inline
    :class:`~repro.errors.SegmentTimeoutError` (an in-process call
    cannot be preempted).
``transient``
    A transient ``run_segment`` exception
    (:class:`~repro.errors.TransientSegmentError`).
``svc_exhaustion``
    State-vector-cache slot exhaustion mid-run, surfaced as a transient
    error (the modeled cache recovers on re-execution).
``fiv_write``
    The host fails to write the flow-invalidation vector for the
    segment; raised host-side *before* dispatch, so the retry re-derives
    the FIV inputs from the composed predecessor (the Section 3.4
    availability chain is re-walked, not guessed).
``straggler``
    The segment runs, but slowly: the worker sleeps ``straggler_s``
    before executing *and then completes normally*.  Unlike ``hang`` it
    is sized to finish well inside any dispatch timeout — it exists to
    exercise straggler *hedging* (speculative re-dispatch), not the
    deadline path.  The serial backend models it as an inline sleep.
``corrupt_checkpoint``
    A torn checkpoint write: the durability layer truncates that
    segment's checkpoint record mid-payload.  Drawn at checkpoint-write
    time (:meth:`FaultInjector.draw_checkpoint`), never at execution
    time — the run itself succeeds; what is under test is that the
    *next resume* drops the broken record and re-executes.

``crash`` and ``hang`` are *infrastructure* faults: they model worker
processes dying, so they stop firing once execution has degraded to
in-process (there are no workers left to kill).  The other
execution-time kinds fire wherever the segment executes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    SegmentTimeoutError,
    TransientSegmentError,
    WorkerCrashError,
)

CRASH = "crash"
HANG = "hang"
TRANSIENT = "transient"
SVC_EXHAUSTION = "svc_exhaustion"
FIV_WRITE = "fiv_write"
STRAGGLER = "straggler"
CORRUPT_CHECKPOINT = "corrupt_checkpoint"

#: Every spellable fault kind, in documentation order.
FAULT_KINDS = (
    CRASH,
    HANG,
    TRANSIENT,
    SVC_EXHAUSTION,
    FIV_WRITE,
    STRAGGLER,
    CORRUPT_CHECKPOINT,
)

#: Infrastructure-level kinds: they model worker processes failing and
#: are suppressed after a serial downgrade (no workers remain).
WORKER_KINDS = frozenset({CRASH, HANG})

#: Kinds applied host-side before dispatch (never shipped to a worker).
HOST_KINDS = frozenset({FIV_WRITE})

#: Kinds drawn at checkpoint-*write* time, not execution time: they
#: corrupt durability records and are invisible to the execution path
#: (see :meth:`FaultInjector.draw_checkpoint`).
CHECKPOINT_KINDS = frozenset({CORRUPT_CHECKPOINT})


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: ``segment`` fails with ``kind`` on its first
    ``times`` attempts, then succeeds."""

    segment: int
    kind: str
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})"
            )
        if self.segment < 0:
            raise ConfigurationError("fault segment index must be >= 0")
        if self.times < 1:
            raise ConfigurationError("fault times must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults for one run.

    Two layers compose:

    * explicit :class:`FaultSpec` entries pin faults to exact
      (segment, attempt) coordinates;
    * a seeded layer draws one-shot faults: each segment independently
      fails its *first* attempt with probability ``rate``, the kind
      drawn from ``kinds``.  The draw depends only on ``(seed,
      segment)`` — never on wall clock or interpreter hash state — so a
      plan fires identically on every run and machine.

    Seeded faults are deliberately first-attempt-only: any non-zero
    retry budget recovers them, which is what the chaos CI job relies
    on to assert that recovery does not move cycle fidelity.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int | None = None
    rate: float = 0.0
    kinds: tuple[str, ...] = (TRANSIENT,)
    hang_s: float = 30.0
    """Seconds an injected ``hang`` sleeps in the worker before
    executing; pair it with a smaller per-segment timeout."""
    straggler_s: float = 0.5
    """Seconds an injected ``straggler`` delays before executing
    normally; size it well under any dispatch timeout so the hedging
    path — not the deadline path — is what recovers it."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("fault rate must be within [0, 1]")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r} "
                    f"(expected one of {', '.join(FAULT_KINDS)})"
                )
        if not self.kinds:
            raise ConfigurationError("seeded fault plan needs >= 1 kind")
        if self.hang_s <= 0:
            raise ConfigurationError("hang_s must be positive")
        if self.straggler_s <= 0:
            raise ConfigurationError("straggler_s must be positive")

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI spec grammar.

        Comma-separated tokens, each either ``key=value`` (``seed``,
        ``rate``, ``kinds`` — ``+``-separated — ``hang``, and
        ``straggler``) or an explicit fault ``SEGMENT:KIND[*TIMES]``::

            seed=7,rate=0.25,kinds=crash+transient
            2:transient,3:crash*2
            seed=7,rate=0.1,1:fiv_write
            straggler=0.4,2:straggler
        """
        specs: list[FaultSpec] = []
        seed: int | None = None
        rate = 0.0
        kinds: tuple[str, ...] = (TRANSIENT,)
        hang_s = 30.0
        straggler_s = 0.5
        try:
            for token in filter(None, (t.strip() for t in text.split(","))):
                if "=" in token:
                    key, _, value = token.partition("=")
                    if key == "seed":
                        seed = int(value)
                    elif key == "rate":
                        rate = float(value)
                    elif key == "kinds":
                        kinds = tuple(filter(None, value.split("+")))
                    elif key == "hang":
                        hang_s = float(value)
                    elif key == "straggler":
                        straggler_s = float(value)
                    else:
                        raise ConfigurationError(
                            f"unknown fault-plan key {key!r} "
                            "(expected seed, rate, kinds, hang, "
                            "or straggler)"
                        )
                    continue
                if ":" not in token:
                    raise ConfigurationError(
                        f"bad fault token {token!r} "
                        "(expected SEGMENT:KIND[*TIMES] or key=value)"
                    )
                seg_text, _, kind_text = token.partition(":")
                times = 1
                if "*" in kind_text:
                    kind_text, _, times_text = kind_text.partition("*")
                    times = int(times_text)
                specs.append(
                    FaultSpec(segment=int(seg_text), kind=kind_text, times=times)
                )
        except ValueError as error:
            raise ConfigurationError(
                f"bad fault plan {text!r}: {error}"
            ) from error
        if seed is None and rate > 0.0:
            raise ConfigurationError(
                "a fault rate needs a seed (pass seed=<int>)"
            )
        return cls(
            specs=tuple(specs),
            seed=seed,
            rate=rate,
            kinds=kinds,
            hang_s=hang_s,
            straggler_s=straggler_s,
        )

    def fault_at(self, segment: int, attempt: int) -> str | None:
        """The execution fault firing at ``(segment, attempt)``, if any.

        Checkpoint-write kinds never fire here — they have their own
        draw path (:meth:`FaultInjector.draw_checkpoint`), so a
        ``corrupt_checkpoint`` spec or seeded draw is transparent to
        the execution attempt sequence.
        """
        for spec in self.specs:
            if spec.kind in CHECKPOINT_KINDS:
                continue
            if spec.segment == segment and attempt <= spec.times:
                return spec.kind
        if self.seed is not None and self.rate > 0.0 and attempt == 1:
            rng = random.Random(f"{self.seed}:{segment}")
            if rng.random() < self.rate:
                kind = self.kinds[rng.randrange(len(self.kinds))]
                if kind not in CHECKPOINT_KINDS:
                    return kind
        return None

    def checkpoint_fault_at(self, segment: int, write: int) -> str | None:
        """The checkpoint fault firing at ``(segment, write)``, if any."""
        for spec in self.specs:
            if (
                spec.kind in CHECKPOINT_KINDS
                and spec.segment == segment
                and write <= spec.times
            ):
                return spec.kind
        if self.seed is not None and self.rate > 0.0 and write == 1:
            checkpoint_kinds = [k for k in self.kinds if k in CHECKPOINT_KINDS]
            if checkpoint_kinds:
                rng = random.Random(f"{self.seed}:ckpt:{segment}")
                if rng.random() < self.rate:
                    return checkpoint_kinds[
                        rng.randrange(len(checkpoint_kinds))
                    ]
        return None

    def to_dict(self) -> dict:
        """Plain-data view for run records and artifact parameters."""
        return {
            "specs": [
                {"segment": s.segment, "kind": s.kind, "times": s.times}
                for s in self.specs
            ],
            "seed": self.seed,
            "rate": self.rate,
            "kinds": list(self.kinds),
            "hang_s": self.hang_s,
            "straggler_s": self.straggler_s,
        }


class FaultInjector:
    """Stateful consumer of one :class:`FaultPlan` during one run.

    The injector owns the per-segment attempt counters, so call
    :meth:`draw` exactly once per execution attempt.  Every fault it
    hands out is recorded in :attr:`injected` for the run's
    :class:`~repro.exec.resilience.RunHealth`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injected: list[dict] = []
        self._attempts: dict[int, int] = {}
        self._checkpoint_writes: dict[int, int] = {}

    def draw(self, segment: int, *, infrastructure: bool = True) -> str | None:
        """The fault (if any) for this segment's next attempt.

        ``infrastructure=False`` marks in-process execution after a
        serial downgrade: worker-level kinds (crash, hang) no longer
        apply there, but segment-level kinds still fire.
        """
        attempt = self._attempts.get(segment, 0) + 1
        self._attempts[segment] = attempt
        kind = self.plan.fault_at(segment, attempt)
        if kind is None:
            return None
        if kind in WORKER_KINDS and not infrastructure:
            return None
        self.injected.append(
            {"segment": segment, "attempt": attempt, "kind": kind}
        )
        return kind

    def draw_checkpoint(self, segment: int) -> bool:
        """One draw for this segment's checkpoint write (True = corrupt).

        Separate from :meth:`draw` on purpose: checkpoint faults are
        write-side, so drawing them must not consume (or shift) the
        execution attempt sequence — a run with only
        ``corrupt_checkpoint`` planned executes exactly like a clean
        one and differs only in what lands on disk.
        """
        write = self._checkpoint_writes.get(segment, 0) + 1
        self._checkpoint_writes[segment] = write
        kind = self.plan.checkpoint_fault_at(segment, write)
        if kind is None:
            return False
        self.injected.append(
            {"segment": segment, "attempt": write, "kind": kind}
        )
        return True


def raise_fault(kind: str, segment: int) -> None:
    """Raise the error an injected ``kind`` fault models.

    Used by the serial backend for every kind (a single process can
    only *model* crashes and hangs) and by workers for the segment-level
    kinds; real crash/hang behaviour in workers lives in
    :mod:`repro.exec.worker`.
    """
    if kind == CRASH:
        raise WorkerCrashError(
            f"injected worker crash while executing segment {segment}"
        )
    if kind == HANG:
        raise SegmentTimeoutError(
            f"injected hang: segment {segment} exceeded its dispatch timeout"
        )
    if kind == SVC_EXHAUSTION:
        raise TransientSegmentError(
            f"injected SVC slot exhaustion mid-run in segment {segment}",
            kind=SVC_EXHAUSTION,
            segment=segment,
        )
    if kind == FIV_WRITE:
        raise TransientSegmentError(
            f"injected FIV write failure for segment {segment}",
            kind=FIV_WRITE,
            segment=segment,
        )
    if kind == STRAGGLER:
        # Backends model stragglers as a delay, not an error; reaching
        # here means a call site forgot to — surface it as retryable so
        # the run still completes.
        raise TransientSegmentError(
            f"unmodeled straggler fault in segment {segment}",
            kind=STRAGGLER,
            segment=segment,
        )
    raise TransientSegmentError(
        f"injected transient fault in segment {segment}",
        kind=TRANSIENT,
        segment=segment,
    )
