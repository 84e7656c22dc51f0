"""Automata Processor hardware model: geometry, placement (the footprint
rule that sets the segment count), the state-vector cache (slot
occupancy and traffic; the flows themselves are run by
:mod:`repro.core.scheduler`), output events, timing, and the
sequential baseline."""

from repro.ap.events import OutputEvent, OutputEventBuffer
from repro.ap.geometry import (
    FOUR_RANKS,
    ONE_RANK,
    STATE_VECTOR_BITS,
    STATE_VECTOR_CACHE_ENTRIES,
    STES_PER_HALF_CORE,
    BoardGeometry,
)
from repro.ap.placement import Placement, place_automaton, segments_available
from repro.ap.sequential import BaselineResult, run_sequential
from repro.ap.state_vector import StateVectorCache
from repro.ap.timing import DEFAULT_TIMING, SYMBOL_CYCLE_NS, TimingModel

__all__ = [
    "BaselineResult",
    "BoardGeometry",
    "DEFAULT_TIMING",
    "FOUR_RANKS",
    "ONE_RANK",
    "OutputEvent",
    "OutputEventBuffer",
    "Placement",
    "STATE_VECTOR_BITS",
    "STATE_VECTOR_CACHE_ENTRIES",
    "STES_PER_HALF_CORE",
    "SYMBOL_CYCLE_NS",
    "StateVectorCache",
    "TimingModel",
    "place_automaton",
    "run_sequential",
    "segments_available",
]
