"""Execution backends: serial and host-parallel segment execution.

See :mod:`repro.exec.backend` for the backend contract (dispatch and
dependency rules, bit-exactness) and :class:`RunOptions`, the one value
that says how a run steps its flows (the engine, independent of the
backend), recovers and persists; :mod:`repro.exec.worker`
for the spawn-safe worker protocol, :mod:`repro.exec.faults` for
deterministic fault injection, :mod:`repro.exec.resilience` for the
retry/backoff policy and run-health accounting, and
:mod:`repro.exec.durability` for the checkpoint/resume store, straggler
hedging, and admission guard.
"""

from repro.automata.vector import ENGINE_CHOICES
from repro.exec.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ExecutionContext,
    ProcessPoolBackend,
    RunOptions,
    SegmentOutcome,
    SerialBackend,
    TRACK_EXEC,
    resolve_backend,
)
from repro.exec.durability import (
    AdmissionDecision,
    AdmissionPolicy,
    CheckpointRun,
    CheckpointStore,
    HedgePolicy,
    cycle_fingerprint,
    run_fingerprint,
)
from repro.exec.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.exec.resilience import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    RunHealth,
)

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "BACKEND_NAMES",
    "CheckpointRun",
    "CheckpointStore",
    "DEFAULT_RETRY_POLICY",
    "ENGINE_CHOICES",
    "ExecutionBackend",
    "ExecutionContext",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "HedgePolicy",
    "ProcessPoolBackend",
    "RetryPolicy",
    "RunHealth",
    "RunOptions",
    "SegmentOutcome",
    "SerialBackend",
    "TRACK_EXEC",
    "cycle_fingerprint",
    "resolve_backend",
    "run_fingerprint",
]
