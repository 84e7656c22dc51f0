"""Placement: component packing and Table 1's segment counts."""

import pytest

from repro.ap.geometry import FOUR_RANKS, ONE_RANK
from repro.ap.placement import place_automaton, segments_available
from repro.automata import builder
from repro.automata.anml import Automaton
from repro.errors import PlacementError


def ruleset(num_groups=3, pattern="abc"):
    automaton = Automaton("rs")
    for code in range(num_groups):
        hub = builder.star_self_loop(automaton)
        builder.attach_pattern(
            automaton, hub, builder.classes_for(pattern), report_code=code
        )
    return automaton


class TestPlacement:
    def test_small_automaton_fits_one_half_core(self):
        placement = place_automaton(ruleset())
        assert placement.half_cores == 1
        assert placement.total_states == 12

    def test_components_never_split(self):
        automaton = ruleset(num_groups=4)
        placement = place_automaton(automaton, capacity=8)
        # 4 components of 4 states with capacity 8 -> 2 per half-core.
        assert placement.half_cores == 2
        loads = placement.loads
        assert all(load <= 8 for load in loads)

    def test_component_exceeding_capacity_rejected(self):
        automaton = ruleset(pattern="abcdefghij")  # 11-state component
        with pytest.raises(PlacementError, match="exceeding"):
            place_automaton(automaton, capacity=8)

    def test_min_half_cores_pins_footprint(self):
        placement = place_automaton(ruleset(), min_half_cores=3)
        assert placement.half_cores == 3

    def test_utilization_fraction(self):
        placement = place_automaton(ruleset(), capacity=24)
        assert placement.utilization(24) == 12 / 24

    def test_segments_available_matches_table1(self):
        # Table 1's last two columns.
        assert segments_available(ONE_RANK, 1) == 16
        assert segments_available(ONE_RANK, 2) == 8
        assert segments_available(ONE_RANK, 3) == 5
        assert segments_available(FOUR_RANKS, 1) == 64
        assert segments_available(FOUR_RANKS, 2) == 32
        assert segments_available(FOUR_RANKS, 3) == 21

    def test_segments_available_validates(self):
        with pytest.raises(PlacementError):
            segments_available(ONE_RANK, 0)
