"""Unit tests for structural analysis (ranges, CCs, ASG, parents)."""

import pytest

from repro.automata import builder
from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton, StartKind
from repro.automata.charclass import CharClass
from repro.core.ranges import (
    choose_partition_symbol,
    enumeration_range,
    enumeration_range_sizes,
)
from repro.errors import AutomatonError


@pytest.fixture
def two_patterns():
    """Two disconnected unanchored patterns: .*abc and .*xbz."""
    automaton = Automaton("two")
    hub_a = builder.star_self_loop(automaton)  # 0
    builder.attach_pattern(automaton, hub_a, builder.classes_for("abc"))  # 1,2,3
    hub_b = builder.star_self_loop(automaton)  # 4
    builder.attach_pattern(automaton, hub_b, builder.classes_for("xbz"))  # 5,6,7
    return automaton


class TestSymbolRanges:
    def test_range_contains_labeled_enterable_states(self, two_patterns):
        analysis = AutomatonAnalysis(two_patterns)
        # 'b' labels state 2 (in abc) and state 6 (in xbz); hubs match too.
        assert analysis.symbol_range(ord("b")) == frozenset({0, 2, 4, 6})

    def test_range_of_unused_symbol_is_hubs_only(self, two_patterns):
        analysis = AutomatonAnalysis(two_patterns)
        assert analysis.symbol_range(ord("q")) == frozenset({0, 4})

    def test_unenterable_state_excluded_from_range(self):
        automaton = Automaton()
        builder.literal(automaton, "ab")
        orphan = automaton.add_state(CharClass.single("a"))  # no preds, no start
        analysis = AutomatonAnalysis(automaton)
        assert orphan not in analysis.symbol_range(ord("a"))

    def test_start_states_are_enterable(self):
        automaton = Automaton()
        builder.literal(automaton, "ab")
        analysis = AutomatonAnalysis(automaton)
        assert 0 in analysis.symbol_range(ord("a"))

    def test_range_holds_enterable_not_only_reachable_states(self):
        # island -> fed: no start state reaches either, yet ``fed`` has a
        # predecessor, so it is enterable and in the range.
        automaton = Automaton()
        builder.literal(automaton, "ab")
        island = automaton.add_state(CharClass.single("x"))
        fed = automaton.add_state(CharClass.single("y"))
        automaton.add_edge(island, fed)
        analysis = AutomatonAnalysis(automaton)
        assert fed not in analysis.reachable_states()
        assert fed in analysis.symbol_range(ord("y"))
        assert fed in enumeration_range(analysis, ord("y"))

    def test_range_sizes_matches_symbol_range(self, two_patterns):
        analysis = AutomatonAnalysis(two_patterns)
        sizes = analysis.range_sizes()
        assert sizes.shape == (256,)
        for symbol in (ord("a"), ord("b"), ord("q")):
            assert sizes[symbol] == len(analysis.symbol_range(symbol))

    def test_label_matrix_shape_and_content(self, two_patterns):
        analysis = AutomatonAnalysis(two_patterns)
        matrix = analysis.label_matrix()
        assert matrix.shape == (8, 256)
        assert matrix[0].all()  # hub matches everything
        assert matrix[1, ord("a")] and not matrix[1, ord("b")]


class TestConnectedComponents:
    def test_disconnected_patterns_are_separate(self, two_patterns):
        analysis = AutomatonAnalysis(two_patterns)
        components = analysis.connected_components()
        assert len(components) == 2
        assert frozenset({0, 1, 2, 3}) in components
        assert frozenset({4, 5, 6, 7}) in components

    def test_component_index_consistent(self, two_patterns):
        analysis = AutomatonAnalysis(two_patterns)
        index = analysis.component_index()
        components = analysis.connected_components()
        for cid, members in enumerate(components):
            for sid in members:
                assert index[sid] == cid

    def test_undirected_connectivity(self):
        # a -> c <- b : one component despite no directed a..b path.
        automaton = Automaton()
        a = automaton.add_state(CharClass.single("a"), start=StartKind.START_OF_DATA)
        b = automaton.add_state(CharClass.single("b"), start=StartKind.START_OF_DATA)
        c = automaton.add_state(CharClass.single("c"))
        automaton.add_edge(a, c)
        automaton.add_edge(b, c)
        analysis = AutomatonAnalysis(automaton)
        assert len(analysis.connected_components()) == 1

    def test_isolated_states_are_singletons(self):
        automaton = Automaton()
        automaton.add_state(CharClass.single("a"), start=StartKind.START_OF_DATA)
        automaton.add_state(CharClass.single("b"), start=StartKind.START_OF_DATA)
        analysis = AutomatonAnalysis(automaton)
        assert len(analysis.connected_components()) == 2


class TestAlwaysActive:
    def test_star_hub_is_depth_zero(self, two_patterns):
        analysis = AutomatonAnalysis(two_patterns)
        assert analysis.always_active_depths() == {0: 0, 4: 0}
        assert analysis.always_active_states() == frozenset({0, 4})

    def test_start_of_data_full_self_loop_is_depth_zero(self):
        automaton = Automaton()
        sid = automaton.add_state(
            CharClass.full(), start=StartKind.START_OF_DATA
        )
        automaton.add_edge(sid, sid)
        analysis = AutomatonAnalysis(automaton)
        assert analysis.always_active_depths() == {sid: 0}

    def test_full_label_child_of_hub_has_depth_one(self):
        automaton = Automaton()
        hub = builder.star_self_loop(automaton)
        child = automaton.add_state(CharClass.full())
        automaton.add_edge(hub, child)
        analysis = AutomatonAnalysis(automaton)
        assert analysis.always_active_depths() == {hub: 0, child: 1}
        assert analysis.always_active_states(max_depth=0) == frozenset({hub})
        assert analysis.always_active_states(max_depth=1) == frozenset(
            {hub, child}
        )

    def test_partial_label_never_always_active(self):
        automaton = Automaton()
        sid = automaton.add_state(
            CharClass.single("a"), start=StartKind.ALL_INPUT
        )
        automaton.add_edge(sid, sid)
        analysis = AutomatonAnalysis(automaton)
        assert analysis.always_active_depths() == {}

    def test_path_independent_includes_all_input_starts(self):
        automaton = Automaton()
        head = automaton.add_state(
            CharClass.single("a"), start=StartKind.ALL_INPUT
        )
        tail = automaton.add_state(CharClass.single("b"), reporting=True)
        automaton.add_edge(head, tail)
        analysis = AutomatonAnalysis(automaton)
        assert analysis.path_independent_states() == frozenset({head})

    def test_self_loop_without_start_not_always_active(self):
        automaton = Automaton()
        builder.literal(automaton, "a")
        loop = automaton.add_state(CharClass.full())
        automaton.add_edge(loop, loop)
        automaton.add_edge(0, loop)
        analysis = AutomatonAnalysis(automaton)
        assert loop not in analysis.always_active_depths()


class TestReachability:
    def test_reachable_from_starts(self, two_patterns):
        analysis = AutomatonAnalysis(two_patterns)
        assert analysis.reachable_states() == frozenset(range(8))

    def test_unreachable_island(self):
        automaton = Automaton()
        builder.literal(automaton, "ab")
        island = automaton.add_state(CharClass.single("z"))
        other = automaton.add_state(CharClass.single("z"))
        automaton.add_edge(island, other)
        analysis = AutomatonAnalysis(automaton)
        assert island not in analysis.reachable_states()
        assert other not in analysis.reachable_states()


class TestCacheHygiene:
    def test_mutation_after_analysis_rejected(self, two_patterns):
        analysis = AutomatonAnalysis(two_patterns)
        analysis.connected_components()
        two_patterns.add_state(CharClass.single("z"))
        with pytest.raises(AutomatonError, match="mutated"):
            analysis.connected_components()

    def test_parents_of_delegates(self, two_patterns):
        analysis = AutomatonAnalysis(two_patterns)
        assert analysis.parents_of(2) == (1,)


class TestEmptyAutomaton:
    """Every analysis view must degrade gracefully on zero states."""

    def test_all_views_empty(self):
        analysis = AutomatonAnalysis(Automaton("empty"))
        assert analysis.reachable_states() == frozenset()
        assert analysis.coreachable_states() == frozenset()
        assert analysis.dead_states() == frozenset()
        assert analysis.connected_components() == []
        assert analysis.path_independent_states() == frozenset()
        assert analysis.symbol_range(ord("a")) == frozenset()

    def test_range_sizes_all_zero(self):
        analysis = AutomatonAnalysis(Automaton("empty"))
        sizes = analysis.range_sizes()
        assert len(sizes) == 256
        assert not sizes.any()


class TestEveryStateStarts:
    def test_all_states_reachable_and_enterable(self):
        automaton = Automaton("starts")
        for symbol in "abc":
            automaton.add_state(
                CharClass.single(symbol), start=StartKind.ALL_INPUT
            )
        analysis = AutomatonAnalysis(automaton)
        assert analysis.reachable_states() == frozenset(range(3))
        # All-input starts are path independent by definition.
        assert analysis.path_independent_states() == frozenset(range(3))
        for symbol in "abc":
            assert analysis.symbol_range(ord(symbol))

    def test_no_dead_states_without_reporting(self):
        automaton = Automaton("starts")
        for symbol in "ab":
            automaton.add_state(
                CharClass.single(symbol), start=StartKind.START_OF_DATA
            )
        analysis = AutomatonAnalysis(automaton)
        # No reporting states: dead-state analysis is vacuous, not total.
        assert analysis.dead_states() == frozenset()


class TestSingleSelfLoop:
    def test_full_self_loop_is_always_active(self):
        automaton = Automaton("loop")
        sid = automaton.add_state(
            CharClass.full(), start=StartKind.ALL_INPUT, reporting=True
        )
        automaton.add_edge(sid, sid)
        analysis = AutomatonAnalysis(automaton)
        assert analysis.always_active_states(0) == frozenset({sid})
        assert analysis.path_independent_states() == frozenset({sid})
        assert analysis.connected_components() == [frozenset({sid})]
        assert analysis.dead_states() == frozenset()

    def test_partial_self_loop_not_always_active(self):
        automaton = Automaton("loop")
        sid = automaton.add_state(
            CharClass.single("a"), start=StartKind.START_OF_DATA
        )
        automaton.add_edge(sid, sid)
        analysis = AutomatonAnalysis(automaton)
        assert analysis.always_active_states(0) == frozenset()


class TestCoreachability:
    def test_dead_branch_detected(self):
        automaton = Automaton("fork")
        head = automaton.add_state(
            CharClass.single("a"), start=StartKind.START_OF_DATA
        )
        live = automaton.add_state(CharClass.single("b"), reporting=True)
        dead = automaton.add_state(CharClass.single("c"))
        automaton.add_edge(head, live)
        automaton.add_edge(head, dead)
        analysis = AutomatonAnalysis(automaton)
        assert analysis.coreachable_states() == frozenset({head, live})
        assert analysis.dead_states() == frozenset({dead})

    def test_unreachable_state_is_not_dead(self):
        # Dead = reachable but report-less; an unreachable state is a
        # different defect (AP004 vs AP005) and must not double-report.
        automaton = Automaton("island")
        builder.literal(automaton, "ab")
        island = automaton.add_state(CharClass.single("z"))
        analysis = AutomatonAnalysis(automaton)
        assert island not in analysis.dead_states()


class TestStaleness:
    def test_is_fresh_tracks_version(self):
        automaton = Automaton("v")
        builder.literal(automaton, "ab")
        analysis = AutomatonAnalysis(automaton)
        assert analysis.is_fresh()
        automaton.add_state(CharClass.single("z"))
        assert not analysis.is_fresh()

    def test_stale_coreachability_rejected(self):
        automaton = Automaton("v")
        builder.literal(automaton, "ab")
        analysis = AutomatonAnalysis(automaton)
        analysis.coreachable_states()
        automaton.add_state(CharClass.single("z"))
        with pytest.raises(AutomatonError, match="mutated"):
            analysis.coreachable_states()
        with pytest.raises(AutomatonError, match="mutated"):
            analysis.dead_states()

    def test_edge_mutation_also_staleness(self):
        automaton = Automaton("v")
        sids = builder.literal(automaton, "ab")
        analysis = AutomatonAnalysis(automaton)
        assert analysis.is_fresh()
        automaton.add_edge(sids[-1], sids[0])
        assert not analysis.is_fresh()

    @pytest.mark.parametrize("mutation", ["state", "edge"])
    def test_stale_enumerable_mask_rejected(self, mutation):
        automaton = Automaton("v")
        sids = builder.literal(automaton, "ab")
        analysis = AutomatonAnalysis(automaton)
        # Fill the cached masks first, so a stale read is possible.
        enumeration_range(analysis, ord("b"))
        choose_partition_symbol(analysis, b"abab", num_segments=2)
        if mutation == "state":
            automaton.add_state(CharClass.single("z"))
        else:
            automaton.add_edge(sids[-1], sids[0])
        with pytest.raises(AutomatonError, match="mutated"):
            enumeration_range(analysis, ord("b"))
        with pytest.raises(AutomatonError, match="mutated"):
            choose_partition_symbol(analysis, b"abab", num_segments=2)
        with pytest.raises(AutomatonError, match="mutated"):
            enumeration_range_sizes(analysis)
