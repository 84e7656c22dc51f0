"""The Parallel Automata Processor: planning and orchestration.

:class:`ParallelAutomataProcessor` ties the whole Section 3 framework
together (the paper's Figure 7):

1. *Preprocessing* (:meth:`plan`): profile symbol ranges, choose the
   partition symbol, cut the input, build enumeration units
   (common-parent merging), pack them into flows (connected-component
   merging), and compute each segment's ASG seed.
2. *Runtime* (:meth:`run`): execute segments on their half-core groups
   under TDM with deactivation/convergence checks, chain host
   composition segment to segment (truth masking + FIV, overlapped with
   later segments' execution), and fall back to the golden execution if
   enumeration would lose.

The report-set correctness contract: ``run(data).reports`` equals the
sequential baseline's deduplicated report set for *every* automaton and
input — the test suite enforces this with property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton
from repro.automata.execution import CompiledAutomaton
from repro.ap.placement import place_automaton, segments_available
from repro.ap.state_vector import LEVELS as SVC_LEVELS
from repro.core.config import DEFAULT_CONFIG, PAPConfig
from repro.core.enumeration import build_units
from repro.core.merging import FlowReductionStats, pack_flows
from repro.core.metrics import PAPRunResult
from repro.core.partitioning import partition_input
from repro.core.ranges import (
    PartitionSymbolChoice,
    choose_partition_symbol,
    enumeration_range,
)
from repro.core.scheduler import SegmentPlan, SegmentResult
from repro.exec.backend import (
    ExecutionBackend,
    ExecutionContext,
    RunOptions,
    resolve_backend,
)
from repro.host.reporting import report_processing_cycles
from repro.obs.phases import summarize_run_phases
from repro.obs.series import publish_run
from repro.obs.tracer import NULL_OBSERVER, TRACK_HOST, TRACK_RUN, Observer

_EMPTY_STATS = FlowReductionStats(0, 0, 0, 0)


def _live_enumeration_flows(result: SegmentResult) -> int:
    """Enumeration flows still alive at a segment's end (ASG excluded)."""
    if result.plan.is_golden:
        return 0
    return result.metrics.enum_flows_at_end


@dataclass(frozen=True)
class PAPPlan:
    """The preprocessing outcome for one input."""

    segments: tuple[SegmentPlan, ...]
    partition_choice: PartitionSymbolChoice | None

    @property
    def max_planned_flows(self) -> int:
        return max(
            (len(plan.flows) for plan in self.segments), default=0
        )


class ParallelAutomataProcessor:
    """Parallel NFA execution on the modeled AP board.

    Parameters
    ----------
    automaton:
        The homogeneous automaton to accelerate.
    config:
        Board geometry, timing, and optimization toggles.
    half_cores:
        The FSM's half-core footprint.  Defaults to capacity-based
        placement; pass the paper's Table 1 values to reproduce its
        segment counts for the large benchmarks that route poorly.
    lint:
        Run the structural lint gate (:mod:`repro.lint`) before
        accepting the automaton; error-level diagnostics raise
        :class:`~repro.errors.LintError`.  Pass ``False`` to opt out
        (e.g. for deliberately pathological inputs in experiments).
    observer:
        Instrumentation sink (:mod:`repro.obs`).  Defaults to the null
        observer; pass a :class:`~repro.obs.Tracer` to record
        cycle-domain spans, flow lifecycle events, and metrics.
    """

    def __init__(
        self,
        automaton: Automaton,
        *,
        config: PAPConfig = DEFAULT_CONFIG,
        half_cores: int | None = None,
        lint: bool = True,
        observer: Observer | None = None,
    ) -> None:
        self.automaton = automaton
        self.config = config
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.analysis = AutomatonAnalysis(automaton)
        if lint:
            # Imported here: repro.lint depends on repro.core helpers,
            # so a module-level import would be circular.
            from repro.lint.registry import LintConfig
            from repro.lint.runner import lint_gate

            # The structural lint family subsumes Automaton.validate
            # (AP001/AP002/AP003 are its three checks) and raises the
            # richer LintError with the full report attached.
            lint_gate(
                automaton,
                config=LintConfig(
                    geometry=config.geometry, max_flows=config.max_flows
                ),
                analysis=self.analysis,
            )
        self.compiled = CompiledAutomaton(automaton)
        if half_cores is None:
            half_cores = place_automaton(
                automaton, analysis=self.analysis
            ).half_cores
        self.half_cores = half_cores
        # Depth-0 path independence is exact at every input offset; see
        # AutomatonAnalysis.always_active_depths for the depth semantics.
        self.path_independent = self.analysis.path_independent_states(0)

    # -- preprocessing -------------------------------------------------------

    @property
    def num_segments(self) -> int:
        """Parallel segments the configured board supports."""
        return max(
            1, segments_available(self.config.geometry, self.half_cores)
        )

    def plan(self, data: bytes) -> PAPPlan:
        """Range profiling, input partitioning, and flow planning."""
        obs = self.observer
        span = obs.begin_span(
            "plan", track=TRACK_RUN, args={"input_bytes": len(data)}
        )
        result = self._plan(data)
        if obs.enabled:
            obs.end_span(
                span,
                args={
                    "segments": len(result.segments),
                    "max_planned_flows": result.max_planned_flows,
                    "partition_symbol": (
                        result.partition_choice.symbol
                        if result.partition_choice is not None
                        else None
                    ),
                },
            )
        else:
            obs.end_span(span)
        return result

    def _plan(self, data: bytes) -> PAPPlan:
        if not data:
            return PAPPlan(segments=(), partition_choice=None)
        exclude = (
            self.path_independent if self.config.use_asg else frozenset()
        )
        choice = choose_partition_symbol(
            self.analysis,
            data,
            num_segments=self.num_segments,
            exclude=exclude,
        )
        segments = partition_input(
            data, self.num_segments, symbol=choice.symbol
        )
        plans: list[SegmentPlan] = []
        for segment in segments:
            if segment.index == 0:
                plans.append(
                    SegmentPlan(
                        segment=segment,
                        flows=(),
                        stats=_EMPTY_STATS,
                        asg_initial=frozenset(),
                        is_golden=True,
                    )
                )
                continue
            assert segment.boundary_symbol is not None
            boundary = segment.boundary_symbol
            boundary_at_zero = segment.start == 1
            range_states = enumeration_range(
                self.analysis,
                boundary,
                exclude=exclude,
                boundary_at_offset_zero=boundary_at_zero,
            )
            force_singletons = (
                frozenset(self.automaton.start_of_data_states())
                if boundary_at_zero
                else frozenset()
            )
            units = build_units(
                self.analysis,
                range_states,
                merge_by_parent=self.config.use_common_parent,
                force_singletons=force_singletons,
            )
            flow_plan = pack_flows(
                units,
                range_size=len(range_states),
                merge_by_component=self.config.use_connected_components,
            )
            asg_initial = frozenset(
                sid
                for sid in self.path_independent
                if boundary in self.automaton.state(sid).label
            )
            plans.append(
                SegmentPlan(
                    segment=segment,
                    flows=tuple(flow_plan.flows),
                    stats=flow_plan.stats,
                    asg_initial=asg_initial,
                    is_golden=False,
                )
            )
        return PAPPlan(segments=tuple(plans), partition_choice=choice)

    # -- runtime ----------------------------------------------------------------

    def run(
        self,
        data: bytes,
        *,
        backend: ExecutionBackend | str | None = None,
        options: RunOptions = RunOptions(),
    ) -> PAPRunResult:
        """Execute the full PAP pipeline over ``data``: plan, execute the
        segments, fold the availability chain.

        ``backend`` selects *where* segments execute (see
        :mod:`repro.exec`): ``None``/``"serial"`` runs them in-process,
        ``"process"`` dispatches them to a pool of host processes.
        Cycle-domain metrics and report sets are identical across
        backends; only host wall-clock changes.  A backend *instance*
        is reused as-is (its pool survives for the caller to close); a
        name constructs a one-shot backend closed before returning.

        ``options`` (:class:`~repro.exec.RunOptions`) says how the run
        steps its flows (the engine, ``auto`` by default, on either
        backend), recovers and persists (retries, injected faults, a
        checkpoint to write through or resume from, an admission
        guard), and :meth:`~repro.exec.ExecutionBackend.execute` owns
        that lifecycle.  None of it moves the cycle domain; what happened is
        recorded in ``result.extra["health"]`` (and
        ``extra["checkpoint"]``).

        Timing follows Section 3.4: the host decode of segment ``j``'s
        final state vector (``T_cpu``) sits on a serial availability
        chain ``A[j] = max(A[j-1], finish[j]) + T_cpu[j]`` because
        segment ``j+1``'s truth needs ``M[j]``.  The chain *skips*
        segments whose successor self-resolved — when every enumeration
        flow of ``j+1`` deactivated or converged away on its own, the
        paper "does not incur this extra invalidation overhead in the
        common case" and ``M[j]`` is never read on the critical path.
        FIV arrival times are computed from the pessimistic
        (always-decode) chain, since the host only builds an FIV while
        the target segment still has live flows.
        """
        obs = self.observer
        resolved = resolve_backend(backend)
        ctx = ExecutionContext(
            automaton=self.automaton,
            compiled=self.compiled,
            analysis=self.analysis,
            config=self.config,
            path_independent=self.path_independent,
            observer=obs,
            options=options,
        )
        run_args: dict[str, Any] = {"input_bytes": len(data)}
        if obs.run_id is not None:
            run_args["run"] = obs.run_id
        run_span = obs.begin_span(
            "run", track=TRACK_RUN, cycle=0, args=run_args
        )
        try:
            plan = self.plan(data)
            execution = resolved.execute(ctx, data, plan.segments)
        except Exception as error:
            obs.end_span(run_span, args={"outcome": type(error).__name__})
            raise
        finally:
            if resolved is not backend:
                # A backend built from a name serves this run only.
                resolved.close()
        outcomes = execution.outcomes
        segment_results = [outcome.result for outcome in outcomes]
        composed_segments = [outcome.composed for outcome in outcomes]
        decode_costs = [outcome.decode_cycles for outcome in outcomes]

        # Availability chain with the common-case skip: T_cpu[j] is
        # charged only when segment j+1 actually consumed M[j] (it still
        # had live enumeration flows, or the FIV killed some).
        truth_times: list[int] = []
        tcpu_values: list[int] = []
        availability = 0
        for index, result in enumerate(segment_results):
            successor = (
                segment_results[index + 1]
                if index + 1 < len(segment_results)
                else None
            )
            needed = successor is not None and (
                _live_enumeration_flows(successor) > 0
                or successor.metrics.fiv_invalidations > 0
            )
            tcpu = decode_costs[index] if needed else 0
            availability = (
                max(availability, result.metrics.finish_cycles) + tcpu
            )
            tcpu_values.append(tcpu)
            truth_times.append(availability)
            if obs.enabled and tcpu:
                # Cycle-domain decode span, placed retroactively on the
                # availability chain (T_cpu of Section 3.4).
                obs.complete_span(
                    f"decode[{result.plan.segment.index}]",
                    track=TRACK_HOST,
                    cycle_start=availability - tcpu,
                    cycle_end=availability,
                    args={"flows": result.metrics.flows_at_end},
                )

        reports = frozenset().union(
            *(composed.true_reports for composed in composed_segments)
        ) if composed_segments else frozenset()

        raw_events = sum(r.metrics.raw_events for r in segment_results)
        enumeration_cycles = (
            (truth_times[-1] if truth_times else 0)
            + report_processing_cycles(raw_events)
        )
        golden_cycles = len(data) + report_processing_cycles(len(reports))

        svc_totals: dict[str, int] = {}
        for result in segment_results:
            for key, value in result.metrics.svc_stats.items():
                if key in SVC_LEVELS:
                    svc_totals[key] = max(svc_totals.get(key, 0), value)
                else:
                    svc_totals[key] = svc_totals.get(key, 0) + value

        if obs.enabled and golden_cycles < enumeration_cycles:
            obs.instant(
                "golden-fallback",
                track=TRACK_RUN,
                cycle=golden_cycles,
                args={
                    "golden_cycles": golden_cycles,
                    "enumeration_cycles": enumeration_cycles,
                },
            )
        obs.end_span(
            run_span,
            cycle=min(enumeration_cycles, golden_cycles),
            args={"reports": len(reports)},
        )

        result = PAPRunResult(
            reports=reports,
            plans=plan.segments,
            segment_results=tuple(segment_results),
            composed=tuple(composed_segments),
            partition_choice=plan.partition_choice,
            truth_times=tuple(truth_times),
            tcpu_cycles=tuple(tcpu_values),
            enumeration_cycles=enumeration_cycles,
            golden_cycles=golden_cycles,
            # The ASG flow occupies one SVC slot only when it exists —
            # automata with no path-independent states spawn none.
            svc_overflow=(
                plan.max_planned_flows
                + (1 if self.path_independent else 0)
                > self.config.max_flows
            ),
            input_bytes=len(data),
            extra={"svc": svc_totals, **execution.extra},
        )
        # Phase attribution (repro.obs.phases): cycle phases derive
        # from the result itself; wall phases arrive via the observer
        # (including worker-shipped rows merged by the process backend).
        result.extra["phases"] = summarize_run_phases(
            result, wall=obs.phases
        )
        publish_run(obs.metrics, result)
        return result
