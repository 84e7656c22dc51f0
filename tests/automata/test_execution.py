"""Unit tests for the functional executor (the VASim substitute)."""

import pytest

from repro.automata import builder
from repro.automata.anml import Automaton, StartKind
from repro.automata.charclass import CharClass
from repro.automata.execution import (
    CompiledAutomaton,
    FlowExecution,
    Report,
    run_automaton,
)


def literal_automaton(text, **kwargs):
    automaton = Automaton(f"lit-{text}")
    builder.literal(automaton, text, **kwargs)
    return automaton


class TestAnchoredMatching:
    def test_match_at_start(self):
        result = run_automaton(literal_automaton("abc"), b"abcxx")
        assert {r.offset for r in result.report_set} == {2}

    def test_anchored_does_not_match_later(self):
        result = run_automaton(literal_automaton("abc"), b"xabc")
        assert not result.report_set

    def test_no_match(self):
        result = run_automaton(literal_automaton("abc"), b"abd")
        assert not result.report_set

    def test_report_carries_code(self):
        automaton = literal_automaton("ab", report_code=99)
        result = run_automaton(automaton, b"ab")
        (report,) = result.report_set
        assert report.code == 99
        assert report.offset == 1


class TestUnanchoredMatching:
    @pytest.fixture
    def hub_automaton(self):
        automaton = Automaton("hub")
        hub = builder.star_self_loop(automaton)
        builder.attach_pattern(
            automaton, hub, builder.classes_for("abc"), report_code=1
        )
        return automaton

    def test_matches_at_every_occurrence(self, hub_automaton):
        result = run_automaton(hub_automaton, b"abc-abc-abc")
        assert sorted(r.offset for r in result.report_set) == [2, 6, 10]

    def test_overlapping_matches(self):
        automaton = Automaton()
        hub = builder.star_self_loop(automaton)
        builder.attach_pattern(automaton, hub, builder.classes_for("aa"))
        result = run_automaton(automaton, b"aaaa")
        assert sorted(r.offset for r in result.report_set) == [1, 2, 3]

    def test_all_input_chain_without_hub(self):
        automaton = Automaton()
        builder.unanchored(automaton, builder.classes_for("ab"))
        result = run_automaton(automaton, b"zabzab")
        assert sorted(r.offset for r in result.report_set) == [2, 5]


class TestStepSemantics:
    def test_start_of_data_enabled_only_first_symbol(self):
        automaton = literal_automaton("a")
        result = run_automaton(automaton, b"aa")
        assert {r.offset for r in result.report_set} == {0}

    def test_multiple_start_states_race(self):
        automaton = Automaton()
        builder.literal(automaton, "ax", report_code=1)
        builder.literal(automaton, "ay", report_code=2)
        result = run_automaton(automaton, b"ay")
        assert {r.code for r in result.report_set} == {2}

    def test_nondeterministic_fanout(self):
        # One state fans out to two successors with overlapping labels.
        automaton = Automaton()
        head = automaton.add_state(
            CharClass.single("a"), start=StartKind.START_OF_DATA
        )
        left = automaton.add_state(CharClass("bc"), reporting=True, report_code=1)
        right = automaton.add_state(CharClass("cd"), reporting=True, report_code=2)
        automaton.add_edges(head, [left, right])
        result = run_automaton(automaton, b"ac")
        assert {r.code for r in result.report_set} == {1, 2}

    def test_final_current_is_matched_set(self):
        automaton = literal_automaton("ab")
        result = run_automaton(automaton, b"ab")
        assert result.final_current == frozenset({1})

    def test_transitions_counter(self):
        automaton = literal_automaton("ab")
        result = run_automaton(automaton, b"ab")
        assert result.transitions == 2  # 'a' matched, then 'b'

    def test_base_offset_shifts_reports(self):
        automaton = Automaton()
        builder.unanchored(automaton, builder.classes_for("b"))
        result = run_automaton(automaton, b"ab", base_offset=100)
        assert {r.offset for r in result.report_set} == {101}

    def test_empty_input(self):
        result = run_automaton(literal_automaton("a"), b"")
        assert not result.reports
        assert result.final_current == frozenset()


class TestFlowExecution:
    def test_incremental_equals_batch(self):
        automaton = Automaton()
        hub = builder.star_self_loop(automaton)
        builder.attach_pattern(automaton, hub, builder.classes_for("abab"))
        compiled = CompiledAutomaton(automaton)
        data = b"xababab"

        batch = FlowExecution(compiled)
        batch.run(data)

        inc = FlowExecution(compiled)
        inc.run(data[:3], 0)
        inc.run(data[3:], 3)

        assert inc.state_vector() == batch.state_vector()
        assert inc.reports == batch.reports

    def test_initial_current_seeds_execution(self):
        automaton = literal_automaton("abc")
        compiled = CompiledAutomaton(automaton)
        # Seed as if 'a' (state 0) just matched; disable start-of-data.
        flow = FlowExecution(
            compiled, initial_current=[0], one_shot=frozenset()
        )
        flow.run(b"bc", base_offset=1)
        assert {r.offset for r in flow.reports} == {2}

    def test_one_shot_override_suppresses_start(self):
        automaton = literal_automaton("abc")
        compiled = CompiledAutomaton(automaton)
        flow = FlowExecution(compiled, one_shot=frozenset())
        flow.run(b"abc")
        assert not flow.reports

    def test_persistent_override(self):
        automaton = literal_automaton("ab")
        compiled = CompiledAutomaton(automaton)
        # Persistently enable the 'a' head: matches restart at any offset.
        flow = FlowExecution(
            compiled, persistent=frozenset({0}), one_shot=frozenset()
        )
        flow.run(b"abxab")
        assert sorted(r.offset for r in flow.reports) == [1, 4]


class TestCompiledAutomaton:
    def test_pickled_automaton_compiles_one_object_per_state_id(self):
        """A pickle round trip (how the process backend ships automata
        to its workers) leaves a fresh int per edge; the compiled
        tables must still hold one object per state id, each state's
        ``Ste.sid`` (the object the analysis's sets hold), so set
        lookups keep CPython's identity shortcut.  Ids above 256
        matter: smaller ints are cached by the interpreter anyway."""
        import pickle

        from repro.regex.ruleset import compile_ruleset

        automaton, _ = compile_ruleset(
            [f"k{i:03d}.*z{i:03d}" for i in range(80)]
        )
        assert len(automaton) > 256
        shipped = pickle.loads(pickle.dumps(automaton))
        compiled = CompiledAutomaton(shipped)
        targets = [dst for row in compiled.succ for dst in row]
        assert len({id(dst) for dst in targets}) == len(set(targets))
        canonical = {dst: dst for dst in targets}
        assert all(canonical[dst] is shipped.state(dst).sid for dst in canonical)
        members = compiled.latchable | compiled.reporting
        assert any(sid > 256 for sid in compiled.latchable)
        assert all(canonical[sid] is sid for sid in members)


class TestReportValue:
    def test_reports_are_ordered_and_hashable(self):
        first = Report(offset=1, element=2, code=3)
        second = Report(offset=2, element=0, code=0)
        assert first < second
        assert len({first, second, first}) == 2

    def test_report_set_deduplicates(self):
        # Two STE copies of one accepting state may report the same code
        # at the same offset; dedup happens at the Report level only when
        # elements are equal.
        automaton = Automaton()
        builder.literal(automaton, "a", report_code=5)
        builder.literal(automaton, "a", report_code=5)
        result = run_automaton(automaton, b"a")
        assert len(result.reports) == 2
        assert len(result.report_set) == 2  # distinct elements


def latching_reporter_automaton(num_reporters=4):
    """A hub plus ``num_reporters`` trigger->latch chains whose latch
    states are full-label self-loop *reporting* states: once its
    trigger symbol is seen, each latch reports on every later symbol.
    Trigger for reporter ``i`` is byte ``ord('a') + i``."""
    automaton = Automaton("latching-reporters")
    hub = builder.star_self_loop(automaton)
    for index in range(num_reporters):
        trigger = automaton.add_state(
            CharClass.single(ord("a") + index),
            start=StartKind.START_OF_DATA,
        )
        automaton.add_edge(hub, trigger)
        latch = automaton.add_state(
            CharClass.full(), reporting=True, report_code=10 + index
        )
        automaton.add_edge(trigger, latch)
        automaton.add_edge(latch, latch)
    return automaton


class TestLatchedReportDeterminism:
    """Latched-report ordering is a pure function of the execution
    semantics — never of latch arrival order, set iteration order, or
    the interpreter's hash seed.  A clone here is a second flow seeded
    with the first one's ``state_vector()`` and no one-shot states,
    which is how every scheduler flow starts.

    The CI determinism job runs this class under two ``PYTHONHASHSEED``
    values; ``test_reports_identical_across_hash_seeds`` additionally
    proves it in-process via subprocesses.
    """

    # Triggers arrive in descending-sid order ('d' first), so latch
    # *insertion* order disagrees with sid order — the arrangement that
    # would expose a divergence between an original flow and its clone
    # (which rebuilds the latched list from a frozenset).
    DATA = b"d.c.b.a." + b"xyzw" * 8

    def test_clone_continuation_reports_match_original(self):
        compiled = CompiledAutomaton(latching_reporter_automaton())
        flow = FlowExecution(compiled)
        flow.run(self.DATA[:8])
        before = len(flow.reports)
        twin = FlowExecution(
            compiled, initial_current=flow.state_vector(), one_shot=frozenset()
        )
        flow.run(self.DATA[8:], 8)
        twin.run(self.DATA[8:], 8)
        assert twin.reports == flow.reports[before:]
        assert len({r.offset for r in flow.reports[-4:]}) == 1, (
            "tail step must carry all four latched reports"
        )

    def test_each_step_emits_ascending_sids(self):
        compiled = CompiledAutomaton(latching_reporter_automaton())
        flow = FlowExecution(compiled)
        flow.run(self.DATA)
        by_offset = {}
        for report in flow.reports:
            by_offset.setdefault(report.offset, []).append(report.element)
        assert max(len(v) for v in by_offset.values()) == 4
        for offset, sids in by_offset.items():
            assert sids == sorted(sids), offset

    def test_reports_identical_across_hash_seeds(self):
        import os
        import subprocess
        import sys

        script = (
            "from tests.automata.test_execution import ("
            "latching_reporter_automaton, TestLatchedReportDeterminism)\n"
            "from repro.automata.execution import ("
            "CompiledAutomaton, FlowExecution)\n"
            "flow = FlowExecution("
            "CompiledAutomaton(latching_reporter_automaton()))\n"
            "data = TestLatchedReportDeterminism.DATA\n"
            "flow.run(data[:8])\n"
            "twin = FlowExecution(flow.compiled, "
            "initial_current=flow.state_vector(), one_shot=frozenset())\n"
            "twin.run(data[8:], 8)\n"
            "print([(r.offset, r.element, r.code) for r in twin.reports])\n"
        )
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", ".", env.get("PYTHONPATH", "")])
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].strip(), "subprocess must produce reports"
