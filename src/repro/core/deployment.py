"""Deploying a PAP plan onto the modeled board.

The scheduler reasons about segments abstractly; this module performs
the physical side: one FSM replica per input segment, each placed on a
disjoint half-core group (components never split across half-cores —
the routing matrix has no inter-half-core paths), with every segment's
flows bound to state-vector-cache slots on its replica's device.

Deployment validates the resource claims behind Table 1's segment
counts: ``segments = floor(board half-cores / FSM half-cores)`` is only
legal because the replicas actually fit, and the 512-entry state-vector
cache bounds the planned flows per segment (Section 5.1 calls the flow
reductions "essential" precisely for this reason).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton
from repro.ap.device import Board
from repro.ap.placement import Placement, place_automaton
from repro.core.pap import PAPPlan
from repro.errors import CapacityError, PlacementError


@dataclass(frozen=True)
class SegmentDeployment:
    """Where one segment's replica lives."""

    segment_index: int
    first_half_core: int
    placement: Placement
    device_index: int
    flow_slots: tuple[int, ...]


@dataclass(frozen=True)
class Deployment:
    """A full plan mapped onto a board."""

    segments: tuple[SegmentDeployment, ...]

    @property
    def half_cores_used(self) -> int:
        return sum(s.placement.half_cores for s in self.segments)


def deploy_plan(
    board: Board,
    automaton: Automaton,
    plan: PAPPlan,
    *,
    analysis: AutomatonAnalysis | None = None,
    lint: bool = True,
    placement: Placement | None = None,
) -> Deployment:
    """Place one replica per segment and bind flows to cache slots.

    Runs the structural lint gate first (opt out with ``lint=False``);
    error-level diagnostics raise :class:`~repro.errors.LintError`
    before any half-core is programmed.  Raises
    :class:`PlacementError` when the replicas do not fit the board and
    :class:`CapacityError` when a segment plans more flows than its
    device's state-vector cache holds.

    ``placement`` supplies a pre-computed per-replica placement — e.g.
    one constructed by :func:`repro.analyze.planner.plan_capacity`
    (``CapacityPlan.to_placement()``) — instead of re-packing here.
    The board still validates every STE load when the replica is
    programmed, so a bad external placement fails loudly, not subtly.
    """
    analysis = analysis or AutomatonAnalysis(automaton)
    if lint:
        # Imported here: repro.lint depends on repro.core helpers, so a
        # module-level import would be circular.
        from repro.lint.registry import LintConfig
        from repro.lint.runner import lint_gate

        lint_gate(
            automaton,
            config=LintConfig(
                geometry=board.geometry,
                max_flows=board.geometry.state_vector_cache_entries or 1,
            ),
            analysis=analysis,
        )
    if placement is None:
        placement = place_automaton(
            automaton,
            capacity=board.geometry.stes_per_half_core,
            analysis=analysis,
        )
    needed = placement.half_cores * len(plan.segments)
    if needed > board.num_half_cores:
        raise PlacementError(
            f"{len(plan.segments)} replicas x {placement.half_cores} "
            f"half-cores need {needed}, board has {board.num_half_cores}"
        )

    deployments = []
    next_half_core = 0
    per_device = board.geometry.half_cores_per_device
    for segment_plan in plan.segments:
        board.load_automaton(
            automaton,
            placement=placement,
            first_half_core=next_half_core,
            analysis=analysis,
        )
        device_index = next_half_core // per_device
        device = board.devices[device_index]
        cache = device.state_vector_cache

        # Bind flows: the ASG flow plus each planned enumeration flow.
        flows = len(segment_plan.flows) + (0 if segment_plan.is_golden else 1)
        base = cache.occupied()
        if flows > cache.capacity - base:
            raise CapacityError(
                f"segment {segment_plan.segment.index} plans "
                f"{flows} flows; device {device_index}'s state "
                f"vector cache has {cache.capacity - base} free slots"
            )
        slots = tuple(range(base, base + flows))
        for slot in slots:
            cache.save(slot)

        deployments.append(
            SegmentDeployment(
                segment_index=segment_plan.segment.index,
                first_half_core=next_half_core,
                placement=placement,
                device_index=device_index,
                flow_slots=slots,
            )
        )
        next_half_core += placement.half_cores
    return Deployment(segments=tuple(deployments))
