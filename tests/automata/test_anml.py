"""Unit tests for the homogeneous automaton data structure."""

import pytest

from repro.automata.anml import Automaton, StartKind
from repro.automata.builder import merge_all
from repro.automata.charclass import CharClass
from repro.errors import AutomatonError


@pytest.fixture
def simple():
    """a -> b -> c with a start-of-data head and reporting tail."""
    automaton = Automaton("simple")
    a = automaton.add_state(CharClass.single("a"), start=StartKind.START_OF_DATA)
    b = automaton.add_state(CharClass.single("b"))
    c = automaton.add_state(CharClass.single("c"), reporting=True, report_code=42)
    automaton.add_edge(a, b)
    automaton.add_edge(b, c)
    return automaton


class TestConstruction:
    def test_ids_are_dense(self, simple):
        assert [s.sid for s in simple.states()] == [0, 1, 2]

    def test_counts(self, simple):
        assert len(simple) == simple.num_states == 3
        assert simple.num_edges == 2

    def test_duplicate_edges_ignored(self, simple):
        before = simple.num_edges
        simple.add_edge(0, 1)
        assert simple.num_edges == before

    def test_add_edges_bulk(self):
        automaton = Automaton()
        sids = [
            automaton.add_state(CharClass.single("x"), start=StartKind.START_OF_DATA)
            for _ in range(3)
        ]
        automaton.add_edges(sids[0], sids[1:])
        assert automaton.successors(sids[0]) == (sids[1], sids[2])

    def test_bad_edge_rejected(self, simple):
        with pytest.raises(AutomatonError):
            simple.add_edge(0, 99)

    def test_bad_state_lookup_rejected(self, simple):
        with pytest.raises(AutomatonError):
            simple.state(-1)


class TestQueries:
    def test_successors_and_predecessors(self, simple):
        assert simple.successors(0) == (1,)
        assert simple.predecessors(1) == (0,)
        assert simple.predecessors(0) == ()

    def test_predecessor_cache_invalidated_by_mutation(self, simple):
        assert simple.predecessors(2) == (1,)
        simple.add_edge(0, 2)
        assert set(simple.predecessors(2)) == {0, 1}

    def test_start_state_partitions(self):
        automaton = Automaton()
        sod = automaton.add_state(
            CharClass.single("a"), start=StartKind.START_OF_DATA
        )
        alli = automaton.add_state(CharClass.single("b"), start=StartKind.ALL_INPUT)
        automaton.add_state(CharClass.single("c"))
        assert automaton.start_of_data_states() == (sod,)
        assert automaton.all_input_states() == (alli,)
        assert set(automaton.start_states()) == {sod, alli}

    def test_reporting_states(self, simple):
        assert simple.reporting_states() == (2,)
        assert simple.state(2).code == 42

    def test_default_report_code_is_sid(self):
        automaton = Automaton()
        sid = automaton.add_state(
            CharClass.single("a"), start=StartKind.START_OF_DATA, reporting=True
        )
        assert automaton.state(sid).code == sid

    def test_self_loop_detection(self, simple):
        assert not simple.has_self_loop(0)
        simple.add_edge(0, 0)
        assert simple.has_self_loop(0)

    def test_states_matching(self, simple):
        assert simple.states_matching(ord("b")) == (1,)
        assert simple.states_matching(ord("z")) == ()

    def test_edges_iterator(self, simple):
        assert sorted(simple.edges()) == [(0, 1), (1, 2)]

    def test_version_bumps_on_mutation(self, simple):
        version = simple.version
        simple.add_edge(0, 2)
        assert simple.version > version


class TestValidation:
    def test_valid_automaton_passes(self, simple):
        simple.validate()

    def test_no_start_states_rejected(self):
        automaton = Automaton("bad")
        automaton.add_state(CharClass.single("a"))
        with pytest.raises(AutomatonError, match="no start states"):
            automaton.validate()

    def test_empty_automaton_is_valid(self):
        Automaton().validate()


class TestTransforms:
    def test_compact_keeps_subset(self, simple):
        sub = simple.compact([0, 2])
        assert sub.num_states == 2
        assert sub.num_edges == 0  # the bridging state is gone
        assert sub.state(1).code == 42

    def test_compact_renumbers_edges(self, simple):
        sub = simple.compact([1, 2])
        assert sub.successors(0) == (1,)

    def test_copy_is_independent(self, simple):
        twin = simple.copy()
        twin.add_edge(0, 2)
        assert simple.num_edges == 2
        assert twin.num_edges == 3

    def test_union_offsets_ids(self, simple):
        both = simple.union(simple)
        assert both.num_states == 6
        assert both.num_edges == 4
        assert sorted(both.edges()) == [(0, 1), (1, 2), (3, 4), (4, 5)]
        assert both.reporting_states() == (2, 5)

    def test_union_preserves_start_kinds(self, simple):
        both = simple.union(simple)
        assert set(both.start_of_data_states()) == {0, 3}

    def test_append_to_itself_doubles_once(self, simple):
        simple.append(simple)
        assert sorted(simple.edges()) == [(0, 1), (1, 2), (3, 4), (4, 5)]
        assert simple.reporting_states() == (2, 5)

    def test_merge_all_copies_each_state_once(self, simple, monkeypatch):
        """Merging N parts adds each state once (a fold of ``union``
        re-copies the accumulated automaton per part), matches that fold
        state for state and edge for edge, and every edge into a state
        holds the state's own id object (ids past the small-int cache)."""
        parts = [simple.union(simple, name=f"p{i}") for i in range(50)]
        folded = Automaton(name="all")
        for part in parts:
            folded = folded.union(part, name="all")
        calls = []
        add_state = Automaton.add_state

        def counting(self, *args, **kwargs):
            calls.append(1)
            return add_state(self, *args, **kwargs)

        monkeypatch.setattr(Automaton, "add_state", counting)
        merged = merge_all(parts, name="all")
        assert len(calls) == merged.num_states == 300
        assert merged.name == folded.name
        assert list(merged.states()) == list(folded.states())
        assert [merged.successors(s) for s in range(300)] == [
            folded.successors(s) for s in range(300)
        ]
        assert all(dst is merged.state(dst).sid for _, dst in merged.edges())

    def test_repr_mentions_size(self, simple):
        assert "states=3" in repr(simple)
