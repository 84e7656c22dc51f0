"""Time-division-multiplexed execution of one input segment.

Every segment owns one FSM replica (one half-core group) and runs its
flows in TDM steps (Section 3.2): each active flow processes ``k``
symbols, pays the 3-cycle context switch, and yields.  Around that loop
the scheduler implements the paper's dynamic machinery:

* **deactivation checks** (Section 3.3.4) at every context switch, plus
  finer-grained checks inside the first TDM step (most false flows die
  within ~20 symbols);
* **convergence checks** (Section 3.3.3) every ``convergence_period``
  TDM steps — flows with identical state vectors merge, the survivor
  inheriting the loser's enumeration units (recorded in the unit
  assignment history so report truth can be decided per offset);
* **flow invalidation** (Section 3.4): when the previous segment's
  results arrive (at a wall-clock time the orchestrator supplies), all
  still-running false flows are killed.

Flow semantics: every flow — the ASG flow and each enumeration flow —
executes the *full* automaton semantics with the path-independent
states persistently enabled, exactly like the real machine, where the
routing matrix is shared and always-active states fire in every flow.
An enumeration flow's state vector is therefore always a superset of
the ASG flow's, and two key dynamics emerge exactly as in the paper:

* enumeration flows whose unit-specific states wash out *converge*
  with each other even in automata whose hubs keep re-triggering
  patterns (SPM, Dotstar) — the dominant reduction there;
* a flow that converges *with the ASG flow* carries no information
  beyond the always-true flow and is deactivated; for automata with no
  always-active states the ASG vector is empty and this degenerates to
  the paper's compare-against-the-zero-mask check (RandomForest-style
  benchmarks, where deactivation dominates).

The scheduler is purely per-segment; truth decisions and cross-segment
timing live in :mod:`repro.core.composition` and :mod:`repro.core.pap`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.analysis import AutomatonAnalysis
from repro.automata.execution import CompiledAutomaton, FlowExecution
from repro.automata.vector import ENGINE_NAMES, VectorFlowExecution
from repro.ap.events import OutputEvent, OutputEventBuffer
from repro.ap.state_vector import StateVectorCache
from repro.core.config import PAPConfig
from repro.core.merging import FlowReductionStats, PlannedFlow
from repro.core.partitioning import InputSegment
from repro.errors import ConfigurationError
from repro.obs.phases import (
    PHASE_CONVERGENCE,
    PHASE_SWITCH,
    PHASE_TRANSITION,
)
from repro.obs.tracer import NULL_OBSERVER, Observer

AnyFlowExecution = FlowExecution | VectorFlowExecution

ASG_FLOW_ID = -1
GOLDEN_FLOW_ID = -2


@dataclass(frozen=True)
class SegmentPlan:
    """Everything known about a segment before execution."""

    segment: InputSegment
    flows: tuple[PlannedFlow, ...]
    stats: FlowReductionStats
    asg_initial: frozenset[int]
    is_golden: bool

    @property
    def num_units(self) -> int:
        return sum(len(flow.units) for flow in self.flows)


@dataclass
class SegmentMetrics:
    """Cycle and event accounting for one segment's execution."""

    symbol_cycles: int = 0
    context_switch_cycles: int = 0
    convergence_check_cycles: int = 0
    """Cycles spent on in-line convergence comparisons (zero when the
    checks are overlapped with symbol processing, Section 3.3.3)."""
    finish_cycles: int = 0
    tdm_steps: int = 0
    convergence_comparisons: int = 0
    convergence_merges: int = 0
    deactivations: int = 0
    fiv_invalidations: int = 0
    fiv_applied_at: int | None = None
    active_flow_samples: list[int] = field(default_factory=list)
    raw_events: int = 0
    transitions: int = 0
    flows_at_end: int = 0
    enum_flows_at_end: int = 0
    svc_stats: dict[str, int] = field(default_factory=dict)
    """State-vector-cache counters (see ``StateVectorCache.stats``)."""

    @property
    def average_active_flows(self) -> float:
        if not self.active_flow_samples:
            return 0.0
        return sum(self.active_flow_samples) / len(self.active_flow_samples)

    @property
    def switching_overhead(self) -> float:
        """Fraction of segment cycles spent context switching (Fig. 10)."""
        if self.finish_cycles == 0:
            return 0.0
        return self.context_switch_cycles / self.finish_cycles


@dataclass
class SegmentResult:
    """Execution outcome of one segment."""

    plan: SegmentPlan
    events: list[OutputEvent]
    unit_history: dict[int, list[tuple[int, int]]]
    """unit id -> [(flow id, valid-from input offset), ...]."""
    final_currents: dict[int, frozenset[int]]
    asg_final: frozenset[int]
    metrics: SegmentMetrics


@dataclass
class _RuntimeFlow:
    flow_id: int
    execution: AnyFlowExecution
    unit_ids: list[int]
    kind: str  # "enum" | "asg" | "golden"
    alive: bool = True


class SegmentScheduler:
    """Runs segments of one automaton under one configuration.

    ``engine`` selects how flows step: ``"set"`` is the active-set
    walk of :class:`FlowExecution`; ``"vector"`` the bit-parallel
    executor of :mod:`repro.automata.vector`.  The scheduler only ever
    touches the shared flow surface (``run`` / ``reports`` /
    ``transitions`` / ``state_vector``), so every cycle-domain decision
    — deactivation, convergence, SVC traffic, metrics — is engine-
    invariant by construction.
    """

    def __init__(
        self,
        compiled: CompiledAutomaton,
        analysis: AutomatonAnalysis,
        config: PAPConfig,
        path_independent: frozenset[int],
        observer: Observer | None = None,
        *,
        engine: str = "set",
    ) -> None:
        if engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"unknown flow engine {engine!r} "
                f"(expected one of {', '.join(ENGINE_NAMES)})"
            )
        self.compiled = compiled
        self.analysis = analysis
        self.config = config
        self.path_independent = path_independent
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.engine = engine

    def _new_flow(self, **kwargs: object) -> AnyFlowExecution:
        """One flow execution on the configured engine."""
        if self.engine == "vector":
            return VectorFlowExecution(self.compiled, **kwargs)  # type: ignore[arg-type]
        return FlowExecution(self.compiled, **kwargs)  # type: ignore[arg-type]

    # -- public API --------------------------------------------------------

    def run_segment(
        self,
        data: bytes,
        plan: SegmentPlan,
        *,
        unit_truth: dict[int, bool] | None = None,
        fiv_time: int | None = None,
    ) -> SegmentResult:
        """Execute one segment.

        ``unit_truth``/``fiv_time`` describe the flow-invalidation vector
        the previous segment will send: at the first TDM boundary at or
        past ``fiv_time`` (segment-local cycles), flows whose units are
        all false are invalidated.
        """
        # The limb cache is shared by every segment on these tables, so
        # each segment publishes the counts it added.
        tables = (
            self.compiled.vector_tables()
            if self.engine == "vector" and self.observer.enabled
            else None
        )
        before = tables.limb_cache_stats() if tables is not None else {}
        if plan.is_golden:
            result = self._run_golden(data, plan)
        else:
            result = self._run_enumerated(data, plan, unit_truth, fiv_time)
        if tables is not None:
            registry = self.observer.metrics
            for key, value in tables.limb_cache_stats().items():
                if key == "exhausted":
                    registry.gauge("vector.limb_cache.exhausted").set(value)
                else:
                    registry.counter(f"vector.limb_cache.{key}").inc(
                        value - before[key]
                    )
        return result

    # -- golden (first) segment ---------------------------------------------

    def _run_golden(self, data: bytes, plan: SegmentPlan) -> SegmentResult:
        segment = plan.segment
        obs = self.observer
        track = f"seg{segment.index}"
        span = obs.begin_span(
            f"segment[{segment.index}]",
            track=track,
            cycle=0,
            args={
                "kind": "golden",
                "start": segment.start,
                "end": segment.end,
            },
        )
        execution = self._new_flow()
        obs.phases.timed(
            PHASE_TRANSITION,
            segment.index,
            execution.run,
            data[segment.start : segment.end],
            segment.start,
        )
        buffer = OutputEventBuffer(observer=obs, track=track)
        buffer.push_all(execution.reports, GOLDEN_FLOW_ID)
        events = buffer.drain()
        metrics = SegmentMetrics(
            symbol_cycles=segment.length,
            finish_cycles=segment.length,
            tdm_steps=1,
            active_flow_samples=[1],
            raw_events=buffer.raw_events,
            transitions=execution.transitions,
            flows_at_end=1,
        )
        obs.end_span(
            span,
            cycle=segment.length,
            args={"raw_events": metrics.raw_events},
        )
        return SegmentResult(
            plan=plan,
            events=events,
            unit_history={},
            final_currents={GOLDEN_FLOW_ID: execution.state_vector()},
            asg_final=frozenset(),
            metrics=metrics,
        )

    # -- enumerated segments ---------------------------------------------------

    def _make_flows(self, plan: SegmentPlan) -> list[_RuntimeFlow]:
        """ASG flow (when the automaton has path-independent states)
        plus one flow per planned enumeration flow.

        Every flow runs full semantics: persistent path-independent
        states, seeded with the boundary-matched path-independent set —
        enumeration flows additionally seed their units' members.  This
        keeps each enumeration vector a superset of the ASG vector.
        """
        flows: list[_RuntimeFlow] = []
        if self.path_independent:
            flows.append(
                _RuntimeFlow(
                    flow_id=ASG_FLOW_ID,
                    execution=self._new_flow(
                        initial_current=plan.asg_initial,
                        persistent=self.path_independent,
                        one_shot=frozenset(),
                    ),
                    unit_ids=[],
                    kind="asg",
                )
            )
        for planned in plan.flows:
            flows.append(
                _RuntimeFlow(
                    flow_id=planned.flow_id,
                    execution=self._new_flow(
                        initial_current=(
                            planned.initial_current() | plan.asg_initial
                        ),
                        persistent=self.path_independent,
                        one_shot=frozenset(),
                    ),
                    unit_ids=[unit.unit_id for unit in planned.units],
                    kind="enum",
                )
            )
        return flows

    def _run_enumerated(
        self,
        data: bytes,
        plan: SegmentPlan,
        unit_truth: dict[int, bool] | None,
        fiv_time: int | None,
    ) -> SegmentResult:
        config = self.config
        segment = plan.segment
        obs = self.observer
        track = f"seg{segment.index}"
        flows = self._make_flows(plan)
        metrics = SegmentMetrics()
        history: dict[int, list[tuple[int, int]]] = {}
        for planned in plan.flows:
            for unit in planned.units:
                history[unit.unit_id] = [(planned.flow_id, segment.start)]

        span = obs.begin_span(
            f"segment[{segment.index}]",
            track=track,
            cycle=0,
            args={
                "kind": "enumerated",
                "start": segment.start,
                "end": segment.end,
                "flows": len(flows),
                "units": plan.num_units,
            },
        )
        # Every flow — ASG included — owns one state-vector-cache slot;
        # the capacity is widened for over-capacity plans (the overflow
        # itself is already flagged as ``PAPRunResult.svc_overflow``).
        svc = StateVectorCache(capacity=max(config.max_flows, len(flows)))
        for flow in flows:
            svc.save(flow.flow_id)
            if obs.enabled:
                obs.instant(
                    "flow-spawn",
                    track=track,
                    cycle=0,
                    args={
                        "flow": flow.flow_id,
                        "kind": flow.kind,
                        "units": len(flow.unit_ids),
                    },
                )

        fiv_pending = (
            config.use_fiv and fiv_time is not None and unit_truth is not None
        )
        position = segment.start
        time = 0
        step = 0
        slice_symbols = config.tdm_slice_symbols
        switch_cost = config.timing.context_switch_cycles

        # Wall-domain phase accounting (repro.obs.phases): each timed
        # call charges one slice- or flow-level region, never a symbol;
        # with the null recorder it is a plain call.
        timed = obs.phases.timed
        index = segment.index

        while position < segment.end:
            length = min(slice_symbols, segment.end - position)
            live = [flow for flow in flows if flow.alive]
            pay_switch = len(live) > 1
            # The ASG flow (first when present) runs first; its vector
            # trajectory is the deactivation reference for this slice.
            asg_snapshots: dict[int, frozenset[int]] = {}
            for flow in live:
                if flow.kind != "asg":
                    continue
                if pay_switch and step > 0:
                    timed(PHASE_SWITCH, index, svc.restore, flow.flow_id)
                consumed = timed(
                    PHASE_TRANSITION,
                    index,
                    self._process_asg_slice,
                    flow,
                    data,
                    position,
                    length,
                    asg_snapshots,
                    first_step=step == 0,
                )
                time += consumed + (switch_cost if pay_switch else 0)
            asg_end = asg_snapshots.get(length, frozenset())
            for flow in live:
                if flow.kind == "asg" and pay_switch:
                    timed(PHASE_SWITCH, index, svc.save, flow.flow_id)
                if flow.kind != "enum":
                    continue
                if pay_switch and step > 0:
                    timed(PHASE_SWITCH, index, svc.restore, flow.flow_id)
                consumed = timed(
                    PHASE_TRANSITION,
                    index,
                    self._process_slice,
                    flow,
                    data,
                    position,
                    length,
                    asg_snapshots,
                    history,
                    metrics,
                    first_step=step == 0,
                    svc=svc,
                    time_base=time,
                    track=track,
                )
                time += consumed + (switch_cost if pay_switch else 0)
                if flow.alive and (config.use_deactivation or pay_switch):
                    timed(
                        PHASE_SWITCH,
                        index,
                        self._end_slice,
                        flow,
                        asg_end,
                        position + length,
                        history,
                        metrics,
                        pay_switch=pay_switch,
                        svc=svc,
                        cycle=time,
                        track=track,
                    )
            position += length
            step += 1
            metrics.tdm_steps = step
            metrics.active_flow_samples.append(len(live))
            if obs.enabled:
                obs.counter(
                    "active_flows", len(live), track=track, cycle=time
                )
                obs.counter(
                    "svc_occupied", svc.occupied(), track=track, cycle=time
                )

            if fiv_pending and time >= fiv_time:
                fiv_pending = False
                assert unit_truth is not None
                timed(
                    PHASE_SWITCH,
                    index,
                    self._apply_fiv,
                    flows,
                    unit_truth,
                    metrics,
                    svc=svc,
                    cycle=time,
                    track=track,
                )

            if (
                config.use_convergence
                and step % config.convergence_period_steps == 0
            ):
                before = metrics.convergence_comparisons
                timed(
                    PHASE_CONVERGENCE,
                    index,
                    self._converge,
                    flows,
                    position,
                    history,
                    metrics,
                    svc=svc,
                    cycle=time,
                    track=track,
                )
                if not config.timing.convergence_checks_overlapped:
                    # Section 3.3.3: checks *can* be overlapped because
                    # the state vector cache is idle during symbol
                    # processing; modeling them in-line charges one
                    # comparator cycle per pair instead.
                    inline_cycles = (
                        metrics.convergence_comparisons - before
                    ) * config.timing.convergence_check_cycles
                    time += inline_cycles
                    metrics.convergence_check_cycles += inline_cycles

        metrics.symbol_cycles = sum(
            flow.execution.symbols_processed for flow in flows
        )
        # In-line convergence checks are their own cost bucket, not
        # switching overhead (Fig. 10 counts context switches only).
        metrics.context_switch_cycles = (
            time - metrics.symbol_cycles - metrics.convergence_check_cycles
        )
        metrics.finish_cycles = time
        metrics.transitions = sum(flow.execution.transitions for flow in flows)
        metrics.flows_at_end = sum(1 for flow in flows if flow.alive)
        metrics.enum_flows_at_end = sum(
            1 for flow in flows if flow.alive and flow.kind == "enum"
        )
        metrics.svc_stats = svc.stats()

        buffer = OutputEventBuffer(observer=obs, track=track)
        for flow in flows:
            buffer.push_all(flow.execution.reports, flow.flow_id)
        events = buffer.drain()
        metrics.raw_events = buffer.raw_events
        obs.end_span(
            span,
            cycle=metrics.finish_cycles,
            args={
                "flows_at_end": metrics.flows_at_end,
                "raw_events": metrics.raw_events,
                "deactivations": metrics.deactivations,
                "convergence_merges": metrics.convergence_merges,
                "fiv_invalidations": metrics.fiv_invalidations,
            },
        )

        final_currents = {
            flow.flow_id: (
                flow.execution.state_vector() if flow.alive else frozenset()
            )
            for flow in flows
            if flow.kind == "enum"
        }
        asg_final = frozenset()
        for flow in flows:
            if flow.kind == "asg":
                asg_final = flow.execution.state_vector()
        return SegmentResult(
            plan=plan,
            events=events,
            unit_history=history,
            final_currents=final_currents,
            asg_final=asg_final,
            metrics=metrics,
        )

    def _process_asg_slice(
        self,
        flow: _RuntimeFlow,
        data: bytes,
        position: int,
        length: int,
        snapshots: dict[int, frozenset[int]],
        *,
        first_step: bool,
    ) -> int:
        """Run the ASG flow over one slice, snapshotting its vector at
        the offsets where enumeration flows will run early deactivation
        checks (plus the slice end)."""
        chunk = (
            self.config.early_check_symbols
            if (first_step and self.config.use_deactivation)
            else length
        )
        consumed = 0
        while consumed < length:
            take = min(chunk, length - consumed)
            flow.execution.run(
                data[position + consumed : position + consumed + take],
                position + consumed,
            )
            consumed += take
            snapshots[consumed] = flow.execution.state_vector()
        snapshots.setdefault(length, flow.execution.state_vector())
        return length

    def _process_slice(
        self,
        flow: _RuntimeFlow,
        data: bytes,
        position: int,
        length: int,
        asg_snapshots: dict[int, frozenset[int]],
        history: dict[int, list[tuple[int, int]]],
        metrics: SegmentMetrics,
        *,
        first_step: bool,
        svc: StateVectorCache,
        time_base: int,
        track: str,
    ) -> int:
        """Run one enumeration flow over one slice; returns symbols
        consumed.

        In the first TDM step the flow is checked for deactivation every
        ``early_check_symbols`` against the ASG flow's vector at the
        same offset, so unproductive flows stop paying for the full
        slice (Section 3.3.4's early checks: most false flows die within
        ~20 symbols).  ``time_base`` is the segment clock when this
        slice starts (for event timestamps).
        """
        if (
            first_step
            and self.config.use_deactivation
            and self.config.early_check_symbols < length
        ):
            consumed = 0
            chunk = self.config.early_check_symbols
            while consumed < length:
                take = min(chunk, length - consumed)
                flow.execution.run(
                    data[position + consumed : position + consumed + take],
                    position + consumed,
                )
                consumed += take
                reference = asg_snapshots.get(consumed, frozenset())
                if flow.execution.state_vector() == reference:
                    self._deactivate(
                        flow,
                        position + consumed,
                        history,
                        metrics,
                        svc=svc,
                        cycle=time_base + consumed,
                        track=track,
                    )
                    break
            return consumed
        flow.execution.run(data[position : position + length], position)
        return length

    def _end_slice(
        self,
        flow: _RuntimeFlow,
        asg_end: frozenset[int],
        position: int,
        history: dict[int, list[tuple[int, int]]],
        metrics: SegmentMetrics,
        *,
        pay_switch: bool,
        svc: StateVectorCache,
        cycle: int,
        track: str,
    ) -> None:
        """Context-switch a flow out at the end of its slice: deactivate
        it when its vector equals the ASG reference, else save the
        vector to its SVC slot when another flow runs next."""
        if (
            self.config.use_deactivation
            and flow.execution.state_vector() == asg_end
        ):
            self._deactivate(
                flow,
                position,
                history,
                metrics,
                svc=svc,
                cycle=cycle,
                track=track,
            )
        elif pay_switch:
            svc.save(flow.flow_id)

    def _apply_fiv(
        self,
        flows: list[_RuntimeFlow],
        unit_truth: dict[int, bool],
        metrics: SegmentMetrics,
        *,
        svc: StateVectorCache,
        cycle: int,
        track: str,
    ) -> None:
        """Apply the flow-invalidation vector (Section 3.4): kill every
        live enumeration flow whose units are all false."""
        metrics.fiv_applied_at = cycle
        obs = self.observer
        for flow in flows:
            if (
                flow.alive
                and flow.kind == "enum"
                and not any(unit_truth.get(u, False) for u in flow.unit_ids)
            ):
                flow.alive = False
                metrics.fiv_invalidations += 1
                svc.invalidate(flow.flow_id)
                if obs.enabled:
                    obs.instant(
                        "flow-fiv-kill",
                        track=track,
                        cycle=cycle,
                        args={"flow": flow.flow_id},
                    )
        if obs.enabled:
            obs.instant(
                "fiv-applied",
                track=track,
                cycle=cycle,
                args={"killed": metrics.fiv_invalidations},
            )

    def _deactivate(
        self,
        flow: _RuntimeFlow,
        position: int,
        history: dict[int, list[tuple[int, int]]],
        metrics: SegmentMetrics,
        *,
        svc: StateVectorCache,
        cycle: int,
        track: str,
    ) -> None:
        """Deactivate a flow that converged with the ASG reference.

        Its units' future results are exactly the always-true ASG
        flow's, so the assignment history re-homes them there (composed
        as always-true from ``position`` on).
        """
        flow.alive = False
        metrics.deactivations += 1
        svc.invalidate(flow.flow_id)
        for unit_id in flow.unit_ids:
            history[unit_id].append((ASG_FLOW_ID, position))
        obs = self.observer
        if obs.enabled:
            obs.instant(
                "flow-deactivate",
                track=track,
                cycle=cycle,
                args={"flow": flow.flow_id, "offset": position},
            )

    def _converge(
        self,
        flows: list[_RuntimeFlow],
        position: int,
        history: dict[int, list[tuple[int, int]]],
        metrics: SegmentMetrics,
        *,
        svc: StateVectorCache,
        cycle: int,
        track: str,
    ) -> None:
        """Merge live enumeration flows with identical state vectors.

        All live flows sit at the same input position at a TDM boundary,
        so equal vectors imply identical futures.  The survivor (lowest
        flow id) absorbs the merged flows' units; the assignment history
        records from which offset the survivor's events speak for them.
        Comparator invocations are counted (the comparator lives in the
        state-vector cache); their latency is overlapped with symbol
        processing (Section 3.3.3) unless configured otherwise.
        """
        live = [flow for flow in flows if flow.alive and flow.kind == "enum"]
        if len(live) < 2:
            return
        pairs = len(live) * (len(live) - 1) // 2
        metrics.convergence_comparisons += pairs
        svc.comparisons += pairs
        obs = self.observer
        by_vector: dict[frozenset[int], _RuntimeFlow] = {}
        for flow in sorted(live, key=lambda f: f.flow_id):
            vector = flow.execution.state_vector()
            survivor = by_vector.get(vector)
            if survivor is None:
                by_vector[vector] = flow
                continue
            flow.alive = False
            metrics.convergence_merges += 1
            svc.invalidate(flow.flow_id)
            survivor.unit_ids.extend(flow.unit_ids)
            for unit_id in flow.unit_ids:
                history[unit_id].append((survivor.flow_id, position))
            if obs.enabled:
                obs.instant(
                    "flow-converge",
                    track=track,
                    cycle=cycle,
                    args={
                        "survivor": survivor.flow_id,
                        "merged": flow.flow_id,
                        "offset": position,
                    },
                )
