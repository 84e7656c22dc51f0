"""Unit tests for the output event buffer and the sequential baseline."""

import pytest

from repro.ap.events import OutputEvent, OutputEventBuffer
from repro.ap.sequential import run_sequential
from repro.ap.timing import TimingModel
from repro.automata import builder
from repro.automata.anml import Automaton
from repro.automata.execution import (
    CompiledAutomaton,
    Report,
    run_automaton,
)


@pytest.fixture
def compiled():
    automaton = Automaton()
    hub = builder.star_self_loop(automaton)
    builder.attach_pattern(
        automaton, hub, builder.classes_for("ab"), report_code=9
    )
    return CompiledAutomaton(automaton)


class TestOutputEventBuffer:
    def test_push_and_drain(self):
        buffer = OutputEventBuffer()
        buffer.push(Report(offset=3, element=1, code=9), flow_id=2)
        assert len(buffer) == 1
        (event,) = buffer.drain()
        assert event == OutputEvent(
            offset=3, report_code=9, element=1, flow_id=2
        )
        assert len(buffer) == 0
        assert buffer.raw_events == 1  # volume survives draining

    def test_event_to_report_roundtrip(self):
        report = Report(offset=5, element=2, code=7)
        buffer = OutputEventBuffer()
        buffer.push_all([report], flow_id=1)
        assert buffer.drain()[0].to_report() == report

    def test_events_are_ordered(self):
        early = OutputEvent(offset=1, report_code=0, element=0, flow_id=0)
        late = OutputEvent(offset=2, report_code=0, element=0, flow_id=0)
        assert early < late


class TestSequentialBaseline:
    def test_cycles_equal_input_length(self, compiled):
        result = run_sequential(compiled, b"xxabxx")
        assert result.symbol_cycles == 6

    def test_reports_match_functional_executor(self, compiled):
        data = b"ab-ab-ab"
        baseline = run_sequential(compiled, data)
        assert baseline.reports == run_automaton(compiled, data).report_set

    def test_host_cycles_from_event_volume(self, compiled):
        result = run_sequential(compiled, b"ab" * 100)
        assert result.host_cycles >= 1
        assert result.total_cycles == result.symbol_cycles + result.host_cycles

    def test_wall_clock_conversion(self, compiled):
        result = run_sequential(compiled, b"x" * 1000)
        # 1000 cycles at 7.5 ns = 7.5 us, plus host drain.
        assert result.seconds() == pytest.approx(
            result.total_cycles * 7.5e-9
        )

    def test_custom_timing(self, compiled):
        slow = TimingModel(symbol_cycle_ns=15.0)
        result = run_sequential(compiled, b"x" * 10)
        assert result.seconds(slow) == pytest.approx(
            result.total_cycles * 15e-9
        )

    def test_transitions_counted(self, compiled):
        result = run_sequential(compiled, b"aaaa")
        assert result.transitions > 0
