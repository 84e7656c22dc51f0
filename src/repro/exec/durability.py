"""Durability layer: checkpoint/resume, straggler hedging, admission.

A host-parallel run is only as durable as its weakest process: a worker
can die (the retry loop and the process backend's failure ladder
recover that), but a *parent* crash would discard every completed
segment, and a straggler could only be waited out or killed by the
per-segment deadline.  This module supplies the missing machinery, all
of it resting on the repo's bit-exactness contract — a segment's
cycle-domain result is a pure function of (automaton fingerprint,
configuration, input bytes, segment plan, FIV inputs), which is exactly
the property the SFA/PaREM line exploits and exactly what makes
segment-level checkpointing and speculative re-execution sound:

:class:`CheckpointStore` / :class:`CheckpointRun`
    A content-addressed segment-result store: one append-only JSONL
    file per *run fingerprint* (automaton × config × input digest ×
    segment count), each record fsync'd and checksummed.  The segment
    loop writes through as segments complete;
    ``RunOptions(checkpoint=..., resume=True)`` skips every segment
    whose proven result is already on disk — including after a
    ``kill -9`` of the parent, because records are durable the moment
    :meth:`CheckpointRun.record` returns.  Torn or corrupted
    records (a crash mid-write, a bad disk) fail their checksum and are
    silently dropped: the segment simply re-executes.

:class:`HedgePolicy`
    Straggler detection for the process backend: once
    :data:`HEDGE_MIN_SAMPLES` segments have completed, a segment whose
    dispatch wall exceeds ``median + mad_multiplier * MAD`` of the
    completed walls is speculatively re-dispatched and the first
    result wins.  Bit-exact by construction — both dispatches compute
    the same pure function.

:class:`AdmissionPolicy`
    A pre-execution resource guard: predicts the run's peak host memory
    from the plan's exact flow counts and either refuses the run or
    bounds how many segments may be in flight at once (the process
    backend's no-FIV path then dispatches in waves).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import statistics
from pathlib import Path
from typing import Any, Sequence

from repro.ap.events import OutputEvent
from repro.ap.geometry import STATE_VECTOR_BITS
from repro.automata.anml import Automaton
from repro.automata.serialization import automaton_to_dict
from repro.core.config import PAPConfig
from repro.core.scheduler import SegmentMetrics, SegmentPlan, SegmentResult
from repro.errors import CheckpointError, ConfigurationError

#: Checkpoint file schema version; bumped on any record-shape change so
#: a resume never misreads an older layout.
CHECKPOINT_SCHEMA = 1

#: Test/CI hook: when set to ``N``, the parent process SIGKILLs itself
#: after the Nth durable checkpoint record — *after* the fsync, so the
#: record survives — simulating a parent crash mid-run.  The CI
#: kill-parent-and-resume stage and the SIGKILL-resume tests use it;
#: never set it in production.
KILL_ENV = "REPRO_CHECKPOINT_TEST_KILL_AFTER"

def _canonical(payload: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace — digest-stable."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- fingerprints -----------------------------------------------------------


def run_fingerprint(
    automaton: Automaton,
    config: PAPConfig,
    data: bytes,
    *,
    num_segments: int,
) -> str:
    """Content address of one run's checkpoint file.

    Keyed on everything the cycle-domain outcome depends on — the
    canonical automaton serialization, the full configuration (geometry,
    timing, toggles), the input digest, and the partition parameters —
    and deliberately *not* on the backend: the bit-exactness contract
    makes a serial run's checkpoint valid for a process or vector
    resume and vice versa.
    """
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "automaton": automaton_to_dict(automaton),
        "config": dataclasses.asdict(config),
        "input_sha256": hashlib.sha256(data).hexdigest(),
        "input_bytes": len(data),
        "num_segments": num_segments,
    }
    return _digest(_canonical(payload))


def plan_digest(plan: SegmentPlan) -> str:
    """Digest of one segment plan's identity.

    Stored with each checkpoint record and re-derived on resume from
    the (deterministic) re-planning pass: a record whose plan digest no
    longer matches is stale — the planner moved — and is ignored rather
    than trusted.
    """
    segment = plan.segment
    payload = {
        "index": segment.index,
        "start": segment.start,
        "end": segment.end,
        "boundary": segment.boundary_symbol,
        "golden": plan.is_golden,
        "flows": [
            [flow.flow_id, sorted(unit.unit_id for unit in flow.units)]
            for flow in plan.flows
        ],
        "asg": sorted(plan.asg_initial),
    }
    return _digest(_canonical(payload))[:16]


def cycle_fingerprint(result: Any) -> str:
    """Digest of a run's complete cycle-domain outcome.

    Mirrors the property-test fingerprint in ``tests/exec``: reports,
    cycle totals, the availability chain, per-segment metrics, and the
    composition outcomes.  Two runs with equal fingerprints are
    bit-exact in every gated quantity; ``repro chaos`` compares every
    recovered run against the fault-free fingerprint with this.
    """
    payload = {
        "reports": sorted(
            (r.offset, r.element, r.code) for r in result.reports
        ),
        "enumeration_cycles": result.enumeration_cycles,
        "golden_cycles": result.golden_cycles,
        "truth_times": list(result.truth_times),
        "tcpu_cycles": list(result.tcpu_cycles),
        "svc_overflow": result.svc_overflow,
        "segment_metrics": [
            dataclasses.asdict(r.metrics) for r in result.segment_results
        ],
        "final_matched": [sorted(c.final_matched) for c in result.composed],
        "true_events": [c.true_events for c in result.composed],
    }
    return _digest(_canonical(payload))


# -- segment result (de)serialization ---------------------------------------


def segment_result_to_dict(result: SegmentResult) -> dict:
    """JSON-ready view of everything composition needs from a segment."""
    return {
        "events": [
            [e.offset, e.report_code, e.element, e.flow_id]
            for e in result.events
        ],
        "unit_history": {
            str(unit_id): [[flow_id, offset] for flow_id, offset in pairs]
            for unit_id, pairs in sorted(result.unit_history.items())
        },
        "final_currents": {
            str(flow_id): sorted(states)
            for flow_id, states in sorted(result.final_currents.items())
        },
        "asg_final": sorted(result.asg_final),
        "metrics": dataclasses.asdict(result.metrics),
    }


def segment_result_from_dict(
    payload: dict, plan: SegmentPlan
) -> SegmentResult:
    """Rebuild a :class:`SegmentResult` against its re-derived plan."""
    return SegmentResult(
        plan=plan,
        events=[
            OutputEvent(
                offset=offset,
                report_code=report_code,
                element=element,
                flow_id=flow_id,
            )
            for offset, report_code, element, flow_id in payload["events"]
        ],
        unit_history={
            int(unit_id): [(flow_id, offset) for flow_id, offset in pairs]
            for unit_id, pairs in payload["unit_history"].items()
        },
        final_currents={
            int(flow_id): frozenset(states)
            for flow_id, states in payload["final_currents"].items()
        },
        asg_final=frozenset(payload["asg_final"]),
        metrics=SegmentMetrics(**payload["metrics"]),
    )


# -- the checkpoint store ---------------------------------------------------


class CheckpointStore:
    """A directory of per-run checkpoint files, keyed by fingerprint."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise CheckpointError(
                f"checkpoint path {self.root} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint[:40]}.ckpt.jsonl"

    def open_run(
        self,
        fingerprint: str,
        *,
        meta: dict | None = None,
        resume: bool = False,
    ) -> "CheckpointRun":
        """Open (and on resume, load) the file for one run fingerprint.

        ``resume=False`` starts cold: any existing file for the
        fingerprint is discarded, matching the semantics of a fresh
        run.  ``resume=True`` loads every intact record first; loading
        *never* raises on bad data — a torn final record (parent killed
        mid-write), a corrupted line, or a stale plan digest just means
        that segment re-executes.
        """
        path = self.path_for(fingerprint)
        cached: dict[int, dict] = {}
        dropped = 0
        if resume and path.exists():
            cached, dropped = _read_records(path, fingerprint)
        elif path.exists():
            path.unlink()
        return CheckpointRun(
            path=path,
            fingerprint=fingerprint,
            cached=cached,
            dropped_records=dropped,
            meta=meta or {},
        )


def _read_records(path: Path, fingerprint: str) -> tuple[dict[int, dict], int]:
    """Load every intact segment record; count the ones dropped.

    The file is append-only, so any record that parses and passes its
    checksum is trustworthy regardless of what surrounds it; anything
    else — a torn final line from a killed writer, an injected
    corruption, a foreign fingerprint — is dropped, never raised.
    """
    records: dict[int, dict] = {}
    dropped = 0
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError:
        return {}, 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            dropped += 1
            continue
        if not isinstance(record, dict):
            dropped += 1
            continue
        kind = record.get("kind")
        if kind == "meta":
            if (
                record.get("fingerprint") != fingerprint
                or record.get("schema") != CHECKPOINT_SCHEMA
            ):
                # Wrong run or layout: nothing in this file is ours.
                return {}, dropped + 1
            continue
        if kind != "segment":
            dropped += 1
            continue
        payload = record.get("payload")
        if (
            not isinstance(record.get("index"), int)
            or not isinstance(payload, dict)
            or record.get("sum") != _digest(_canonical(payload))[:16]
        ):
            dropped += 1
            continue
        records[record["index"]] = record
    return records, dropped


class CheckpointRun:
    """One run's append-only checkpoint file.

    Writers call :meth:`record` as segments complete; each record is
    flushed and fsync'd before the call returns, so a parent killed at
    any instant loses at most the record being written — and that torn
    tail fails its checksum on the next resume and is re-executed.
    """

    def __init__(
        self,
        *,
        path: Path,
        fingerprint: str,
        cached: dict[int, dict],
        dropped_records: int = 0,
        meta: dict | None = None,
    ) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.dropped_records = dropped_records
        # Intact records loaded at open (the resumable segments); the
        # run's own writes do not count.
        self.available = len(cached)
        self.hits = 0
        self.writes = 0
        self._cached = cached
        self._meta = meta or {}
        self._handle = None
        self._recorded = 0
        kill_after = os.environ.get(KILL_ENV, "")
        self._kill_after = int(kill_after) if kill_after.isdigit() else 0

    def has(self, plan: SegmentPlan) -> bool:
        """Whether a matching record exists, without counting a hit."""
        entry = self._cached.get(plan.segment.index)
        return entry is not None and entry.get("plan") == plan_digest(plan)

    def load(self, plan: SegmentPlan) -> SegmentResult | None:
        """The proven result for ``plan``, or ``None`` to re-execute."""
        entry = self._cached.get(plan.segment.index)
        if entry is None or entry.get("plan") != plan_digest(plan):
            return None
        try:
            result = segment_result_from_dict(entry["payload"], plan)
        except (KeyError, TypeError, ValueError):
            # Checksummed but unreadable (schema drift): re-execute.
            del self._cached[plan.segment.index]
            return None
        self.hits += 1
        return result

    def record(
        self, plan: SegmentPlan, result: SegmentResult, *, corrupt: bool = False
    ) -> None:
        """Append one segment's result durably (fsync before return).

        ``corrupt=True`` is the ``corrupt_checkpoint`` fault: the line
        is deliberately truncated mid-payload, modeling a torn write.
        The *reader* is what is under test — the broken record must be
        dropped on resume, never crash it.
        """
        index = plan.segment.index
        payload = segment_result_to_dict(result)
        record = {
            "kind": "segment",
            "index": index,
            "plan": plan_digest(plan),
            "payload": payload,
            "sum": _digest(_canonical(payload))[:16],
        }
        line = _canonical(record)
        if corrupt:
            line = line[: max(16, len(line) // 2)]
        handle = self._open()
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        self.writes += 1
        if not corrupt:
            self._cached[index] = record
        self._recorded += 1
        if self._kill_after and self._recorded >= self._kill_after:
            # Simulated parent crash (see KILL_ENV): the fsync above
            # already made this record durable.
            os.kill(os.getpid(), signal.SIGKILL)

    def _open(self):
        if self._handle is None:
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._handle = open(  # noqa: SIM115 — held across records
                self.path, "a", encoding="utf-8"
            )
            if fresh:
                header = _canonical(
                    {
                        "kind": "meta",
                        "schema": CHECKPOINT_SCHEMA,
                        "fingerprint": self.fingerprint,
                        "meta": self._meta,
                    }
                )
                self._handle.write(header + "\n")
                self._handle.flush()
                os.fsync(self._handle.fileno())
        return self._handle

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointRun":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def to_dict(self) -> dict:
        """JSON-ready view for ``PAPRunResult.extra["checkpoint"]``."""
        return {
            "path": str(self.path),
            "fingerprint": self.fingerprint,
            "hits": self.hits,
            "writes": self.writes,
            "available": self.available,
            "dropped_records": self.dropped_records,
        }


# -- straggler hedging ------------------------------------------------------


#: Completed dispatch walls needed before any segment is hedged.
HEDGE_MIN_SAMPLES = 3
#: Floor of the hedge threshold: hedging microsecond segments buys
#: nothing and costs a dispatch.
HEDGE_MIN_THRESHOLD_S = 0.05
#: How often a dispatch wait wakes to check the hedge threshold.
HEDGE_POLL_S = 0.02


@dataclasses.dataclass(frozen=True)
class HedgePolicy:
    """When to speculatively re-dispatch a slow segment.

    The threshold is robust-statistics based, mirroring the repo's
    wall-clock methodology (:func:`repro.perf.measure.measure_wall`):
    with at least :data:`HEDGE_MIN_SAMPLES` completed dispatch walls, a
    segment still outstanding after ``median + mad_multiplier * MAD``
    seconds is hedged.  The MAD is floored at 5% of the median
    (all-equal samples otherwise collapse the threshold to the median
    itself) and the whole threshold at :data:`HEDGE_MIN_THRESHOLD_S`.
    """

    mad_multiplier: float = 4.0

    def __post_init__(self) -> None:
        if self.mad_multiplier <= 0:
            raise ConfigurationError("hedge mad_multiplier must be positive")

    def threshold_s(self, samples: Sequence[float]) -> float | None:
        """Hedge-after threshold, or ``None`` with too few samples."""
        if len(samples) < HEDGE_MIN_SAMPLES:
            return None
        median = statistics.median(samples)
        mad = statistics.median(abs(s - median) for s in samples)
        spread = max(mad, 0.05 * median)
        return max(
            HEDGE_MIN_THRESHOLD_S, median + self.mad_multiplier * spread
        )


# -- admission guard --------------------------------------------------------

#: Modeled resident bytes per flow: three state-vector-sized bitsets
#: (current, latched, SVC slot) on the board's state vector, plus
#: Python object bookkeeping.  Deliberately a round, documented figure:
#: admission is a guard rail, not an allocator.
BYTES_PER_FLOW = 3 * (STATE_VECTOR_BITS // 8) + 512


@dataclasses.dataclass(frozen=True)
class AdmissionDecision:
    """The admission guard's verdict for one planned run."""

    action: str
    """``admit``, ``chunk`` (bound in-flight segments), or ``refuse``."""
    predicted_peak_bytes: int
    max_segment_bytes: int
    budget_bytes: int | None
    wave_size: int | None
    reason: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class AdmissionPolicy:
    """Admit, chunk or refuse runs against a memory budget.

    The prediction uses the plan's *exact* per-segment flow counts (the
    same quantities ``repro.analyze``'s cost model predicts ahead of
    planning): each in-flight segment holds its flows' state vectors
    plus its input slice.  The no-FIV process path holds every segment
    in flight at once; every other run holds one at a time.  A run is
    admitted when its predicted peak fits, and refused when its input
    plus its largest segment does not.  In between — only on the no-FIV
    path — the run is chunked: the prediction becomes a bound on
    concurrently in-flight segments (the input is never split further —
    cross-boundary matches make input chunking semantically unsound).
    """

    memory_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        if (
            self.memory_budget_bytes is not None
            and self.memory_budget_bytes < 1
        ):
            raise ConfigurationError("memory budget must be positive")

    def segment_bytes(self, plan: SegmentPlan) -> int:
        """Predicted resident bytes for one in-flight segment."""
        flows = len(plan.flows) + 2  # + ASG flow + golden/report slack
        return flows * BYTES_PER_FLOW + plan.segment.length

    def check(
        self,
        plans: Sequence[SegmentPlan],
        *,
        input_bytes: int,
        all_in_flight: bool = False,
    ) -> AdmissionDecision:
        """The verdict on ``plans``; ``all_in_flight`` says the run
        holds every segment at once rather than one at a time."""
        budget = self.memory_budget_bytes
        per_segment = [self.segment_bytes(plan) for plan in plans]
        max_segment = max(per_segment, default=0)
        peak = input_bytes + (
            sum(per_segment) if all_in_flight else max_segment
        )
        if budget is None or peak <= budget:
            return AdmissionDecision(
                action="admit",
                predicted_peak_bytes=peak,
                max_segment_bytes=max_segment,
                budget_bytes=budget,
                wave_size=None,
                reason="predicted peak within budget",
            )
        if input_bytes + max_segment > budget:
            # Even one segment at a time cannot fit: chunking cannot
            # help (the input is never split further).
            return AdmissionDecision(
                action="refuse",
                predicted_peak_bytes=peak,
                max_segment_bytes=max_segment,
                budget_bytes=budget,
                wave_size=None,
                reason=(
                    f"largest segment needs ~{input_bytes + max_segment} "
                    f"bytes, over the {budget} byte budget"
                ),
            )
        wave = max(1, (budget - input_bytes) // max_segment)
        return AdmissionDecision(
            action="chunk",
            predicted_peak_bytes=peak,
            max_segment_bytes=max_segment,
            budget_bytes=budget,
            wave_size=wave,
            reason=(
                f"predicted peak ~{peak} bytes exceeds the {budget} byte "
                f"budget; bounding in-flight segments to {wave}"
            ),
        )
