"""The cycle cost model: abstract TDM interpretation + availability chain.

For every enumerated segment the model reconstructs, *without running
the scheduler*, the quantities that determine its finish time:

* which flows deactivate and at what depth (abstract divergence pass,
  concretely refined by bounded trials for the few flows the
  abstraction cannot kill — see :mod:`repro.analyze.facts`);
* slice-level cost: each live flow pays its symbols plus the 3-cycle
  context switch per TDM slice whenever more than one flow is live;
* the predecessor's flow-invalidation vector, which arrives at the
  predecessor's availability time and deactivates surviving false
  flows at the next slice boundary (Section 3.3.3) — survival odds
  come from profiled state occupancy.

Segment finish times then chain through the paper's availability
recurrence ``A[j] = max(A[j-1], finish[j]) + tcpu[j]`` (state-vector
readout + host decode, charged only when the successor still has live
enumeration flows), and the host's report drain adds
``ceil(raw_events / 8)`` with raw events extrapolated from the profiled
event rate.  The model reproduces every ``BENCH_seed.json`` workload
within a few percent; see ``benchmarks/analysis/ANALYZE_seed.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.analyze.facts import (
    BoundaryFacts,
    WorkloadFacts,
    boundary_facts,
    gather_facts,
    label_hit_probabilities,
    refine_with_trials,
)
from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton
from repro.automata.execution import CompiledAutomaton
from repro.core.config import DEFAULT_CONFIG, PAPConfig
from repro.core.partitioning import partition_input
from repro.host.reporting import report_processing_cycles


@dataclass(frozen=True)
class SegmentPrediction:
    """Predicted dynamics of one segment."""

    index: int
    length: int
    boundary_symbol: int | None
    flow_count: int
    survivors: int
    """Enumeration flows predicted to outlive the whole segment
    (before any flow-invalidation-vector kill)."""
    survivors_after_fiv: float
    """Expected live enumeration flows after the predecessor's FIV
    lands (equals ``survivors`` when the FIV arrives too late or there
    is at most one survivor)."""
    deactivation_cost: int
    """Total symbols charged to flows that die mid-segment."""
    fiv_applied_at: int | None
    finish_cycles: int
    flows_at_end: int
    tcpu_cycles: int
    trials: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "length": self.length,
            "boundary_symbol": self.boundary_symbol,
            "flow_count": self.flow_count,
            "survivors": self.survivors,
            "survivors_after_fiv": round(self.survivors_after_fiv, 4),
            "deactivation_cost": self.deactivation_cost,
            "fiv_applied_at": self.fiv_applied_at,
            "finish_cycles": self.finish_cycles,
            "flows_at_end": self.flows_at_end,
            "tcpu_cycles": self.tcpu_cycles,
            "trials": self.trials,
        }


@dataclass(frozen=True)
class WorkloadPrediction:
    """The cost model's verdict for one workload configuration."""

    name: str
    input_bytes: int
    num_segments: int
    segments: tuple[SegmentPrediction, ...]
    enumeration_cycles: int
    golden_cycles: int
    baseline_cycles: int
    raw_events: int
    event_rate: float
    trials: int

    @property
    def golden_fallback(self) -> bool:
        """True when the sequential golden run beats enumeration."""
        return self.golden_cycles < self.enumeration_cycles

    @property
    def predicted_cycles(self) -> int:
        return min(self.enumeration_cycles, self.golden_cycles)

    @property
    def speedup(self) -> float:
        if self.predicted_cycles == 0:
            return 1.0
        return self.baseline_cycles / self.predicted_cycles

    @property
    def ideal_speedup(self) -> int:
        return max(1, self.num_segments)

    @property
    def parallel_efficiency(self) -> float:
        return self.speedup / self.ideal_speedup

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "input_bytes": self.input_bytes,
            "num_segments": self.num_segments,
            "enumeration_cycles": self.enumeration_cycles,
            "golden_cycles": self.golden_cycles,
            "baseline_cycles": self.baseline_cycles,
            "predicted_cycles": self.predicted_cycles,
            "golden_fallback": self.golden_fallback,
            "speedup": round(self.speedup, 4),
            "ideal_speedup": self.ideal_speedup,
            "parallel_efficiency": round(self.parallel_efficiency, 4),
            "raw_events": self.raw_events,
            "event_rate": round(self.event_rate, 6),
            "trials": self.trials,
            "segments": [segment.to_dict() for segment in self.segments],
        }


def _quantize_depth(
    depth: int, length: int, *, slice_symbols: int, early_check_symbols: int
) -> int:
    """Deactivation cost of a flow dying at abstract ``depth``.

    The scheduler only *discovers* death at a check offset: every
    ``early_check_symbols`` within the first slice, then at slice ends.
    """
    if depth <= slice_symbols:
        quantum = early_check_symbols
    else:
        quantum = slice_symbols
    return min(length, math.ceil(depth / quantum) * quantum)


def predict_workload(
    automaton: Automaton,
    data: bytes,
    *,
    num_segments: int,
    config: PAPConfig = DEFAULT_CONFIG,
    modeled_bytes: int | None = None,
    analysis: AutomatonAnalysis | None = None,
    facts: WorkloadFacts | None = None,
    use_trials: bool = True,
) -> WorkloadPrediction:
    """Predict PAP cycle cost for one workload at one segment count.

    ``modeled_bytes`` scales the constant per-segment host costs the
    same way :func:`repro.sim.runner.run_benchmark` does, so
    predictions line up with scaled-input ``BENCH_*.json`` artifacts.
    ``use_trials=False`` keeps the pass fully abstract (no concrete
    execution beyond the profile prefix): unresolved flows are then
    pessimistically treated as survivors.
    """
    if not data:
        # The fact pass needs bytes to profile; an empty input costs
        # nothing under either execution mode.
        return WorkloadPrediction(
            name=automaton.name,
            input_bytes=0,
            num_segments=0,
            segments=(),
            enumeration_cycles=0,
            golden_cycles=0,
            baseline_cycles=0,
            raw_events=0,
            event_rate=0.0,
            trials=0,
        )
    analysis = analysis or AutomatonAnalysis(automaton)
    compiled = CompiledAutomaton(automaton)
    if facts is None:
        facts = gather_facts(
            automaton,
            data,
            num_segments=num_segments,
            analysis=analysis,
            compiled=compiled,
        )
    profile = facts.profile
    timing = config.timing
    if modeled_bytes is not None:
        timing = timing.scaled_for_input(len(data), modeled_bytes)
    slice_symbols = config.tdm_slice_symbols
    early = config.early_check_symbols
    switch = timing.context_switch_cycles

    segments = partition_input(
        data, num_segments, symbol=facts.partition_symbol
    )
    if not segments:
        return WorkloadPrediction(
            name=facts.name,
            input_bytes=0,
            num_segments=0,
            segments=(),
            enumeration_cycles=0,
            golden_cycles=0,
            baseline_cycles=0,
            raw_events=0,
            event_rate=profile.event_rate,
            trials=0,
        )

    asg_count = 1 if facts.path_independent else 0
    hit_probability: tuple[float, ...] | None = None
    successors: tuple[tuple[int, ...], ...] | None = None
    boundary_cache: dict[tuple[int, bool], BoundaryFacts] = dict(
        facts.boundaries
    )

    def boundary_for(symbol: int, at_zero: bool) -> BoundaryFacts:
        nonlocal hit_probability, successors
        key = (symbol, at_zero)
        if key not in boundary_cache:
            if hit_probability is None:
                hit_probability = label_hit_probabilities(
                    automaton, profile
                )
            if successors is None:
                successors = tuple(
                    automaton.successors(sid)
                    for sid in range(len(automaton))
                )
            boundary_cache[key] = boundary_facts(
                automaton,
                analysis,
                symbol,
                at_zero,
                facts.path_independent,
                hit_probability,
                profile,
                successors,
            )
        return boundary_cache[key]

    predictions: list[SegmentPrediction] = []
    availability = 0
    total_trials = 0
    tcpu_base = (
        timing.state_vector_transfer_cycles + timing.decode_base_cycles
    )

    # First pass per segment computes survivors so tcpu gating can look
    # one segment ahead; survivors only depend on segment-local facts.
    per_segment: list[
        tuple[int, int | None, int, int, list[int], float, int]
    ] = []
    for segment in segments:
        length = segment.length
        if segment.index == 0:
            per_segment.append((length, None, 1, 0, [], 0.0, 0))
            continue
        assert segment.boundary_symbol is not None
        bound = boundary_for(segment.boundary_symbol, segment.start == 1)
        trial_verdicts: dict[int, tuple[bool, int]] = {}
        if use_trials and bound.static_survivors:
            trial_verdicts = refine_with_trials(
                compiled,
                data,
                segment,
                bound.flows,
                bound.asg_initial,
                facts.path_independent,
                slice_symbols=slice_symbols,
                early_check_symbols=early,
            )
        trials_here = len(trial_verdicts)
        total_trials += trials_here
        survivors = 0
        fiv_survival = 0.0
        die_costs: list[int] = []
        for flow in bound.flows:
            if flow.resolved:
                if flow.die_depth >= length:
                    survivors += 1
                    fiv_survival += flow.fiv_survival
                else:
                    die_costs.append(
                        _quantize_depth(
                            flow.die_depth,
                            length,
                            slice_symbols=slice_symbols,
                            early_check_symbols=early,
                        )
                    )
            elif flow.flow_id in trial_verdicts:
                died, depth = trial_verdicts[flow.flow_id]
                if died:
                    die_costs.append(min(length, depth))
                else:
                    survivors += 1
                    fiv_survival += flow.fiv_survival
            else:
                # No trial ran: pessimistically keep the flow alive.
                survivors += 1
                fiv_survival += flow.fiv_survival
        per_segment.append(
            (
                length,
                segment.boundary_symbol,
                bound.flow_count,
                survivors,
                die_costs,
                fiv_survival,
                trials_here,
            )
        )

    for index, (
        length,
        boundary_symbol,
        flow_count,
        survivors,
        die_costs,
        fiv_survival,
        trials_here,
    ) in enumerate(per_segment):
        if index == 0:
            finish = length
            flows_at_end = 1
            survivors_after_fiv = 0.0
            fiv_applied_at: int | None = None
        else:
            live = asg_count + survivors
            multi = (asg_count + flow_count) > 1
            slice_cost = slice_symbols + (switch if multi else 0)
            survivors_after_fiv = float(survivors)
            fiv_applied_at = None
            fiv_consumed = 0
            if config.use_fiv and survivors >= 2:
                expected = min(float(survivors), max(1.0, fiv_survival))
                if expected < survivors:
                    arrival = availability
                    slices_done = (
                        math.ceil(arrival / (live * slice_cost))
                        if live * slice_cost > 0
                        else 0
                    )
                    if slices_done * slice_symbols < length:
                        survivors_after_fiv = expected
                        fiv_applied_at = slices_done * live * slice_cost
                        fiv_consumed = slices_done * slice_symbols
            if fiv_applied_at is not None:
                remaining = length - fiv_consumed
                post_live = asg_count + survivors_after_fiv
                finish_f = (
                    fiv_applied_at
                    + remaining * post_live
                    + (
                        switch
                        * post_live
                        * math.ceil(remaining / slice_symbols)
                        if multi
                        else 0.0
                    )
                    + sum(die_costs)
                )
                finish = int(round(finish_f))
            else:
                finish = live * length + sum(die_costs)
                if multi:
                    flow_slices = asg_count * math.ceil(
                        length / slice_symbols
                    ) + sum(
                        math.ceil(min(length, cost) / slice_symbols)
                        for cost in [length] * survivors + die_costs
                    )
                    finish += switch * flow_slices
            flows_at_end = max(
                1,
                asg_count
                + (int(round(survivors_after_fiv)) if survivors else 0),
            )
        successor_live = (
            index + 1 < len(per_segment) and per_segment[index + 1][3] > 0
        )
        tcpu = (
            tcpu_base
            + timing.decode_cycles_per_flow * max(1, flows_at_end)
            if successor_live
            else 0
        )
        predictions.append(
            SegmentPrediction(
                index=index,
                length=length,
                boundary_symbol=boundary_symbol,
                flow_count=flow_count if index else 0,
                survivors=survivors,
                survivors_after_fiv=survivors_after_fiv,
                deactivation_cost=sum(die_costs),
                fiv_applied_at=fiv_applied_at,
                finish_cycles=finish,
                flows_at_end=flows_at_end,
                tcpu_cycles=tcpu,
                trials=trials_here,
            )
        )
        availability = max(availability, finish) + tcpu

    rate = profile.event_rate
    raw_events = int(
        rate
        * sum(
            prediction.length * max(1, prediction.flows_at_end)
            for prediction in predictions
        )
    )
    enumeration = availability + report_processing_cycles(raw_events)
    true_events = int(rate * len(data))
    sequential = len(data) + report_processing_cycles(true_events)
    return WorkloadPrediction(
        name=facts.name,
        input_bytes=len(data),
        num_segments=len(segments),
        segments=tuple(predictions),
        enumeration_cycles=enumeration,
        golden_cycles=sequential,
        baseline_cycles=sequential,
        raw_events=raw_events,
        event_rate=rate,
        trials=total_trials,
    )
