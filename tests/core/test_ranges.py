"""Unit tests for range profiling and partition-symbol choice."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata import builder
from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton, StartKind
from repro.automata.charclass import CharClass
from repro.automata.random_gen import random_automaton, random_ruleset_automaton
from repro.core.ranges import (
    PartitionSymbolChoice,
    choose_partition_symbol,
    enumeration_range,
    enumeration_range_sizes,
    range_profile,
)
from repro.errors import ConfigurationError
from repro.workloads.suite import build_benchmark

# -- reference: per-symbol loops -----------------------------------------
#
# They read the automaton directly (no AutomatonAnalysis cache), rebuild
# the enterable set on every call, and size one symbol at a time, so they
# share no code with the cached-mask column sum they check.


def loop_symbol_range(automaton: Automaton, symbol: int) -> frozenset[int]:
    enterable = set(automaton.start_states())
    for _, dst in automaton.edges():
        enterable.add(dst)
    return frozenset(
        sid for sid in automaton.states_matching(symbol) if sid in enterable
    )


def loop_enumeration_range(
    automaton: Automaton,
    symbol: int,
    *,
    exclude: frozenset[int] = frozenset(),
    boundary_at_offset_zero: bool = False,
) -> frozenset[int]:
    all_input = frozenset(automaton.all_input_states())
    start_of_data = frozenset(automaton.start_of_data_states())
    result = set()
    for sid in loop_symbol_range(automaton, symbol):
        if sid in exclude:
            continue
        if not automaton.predecessors(sid):
            persistently = sid in all_input
            at_zero = boundary_at_offset_zero and sid in start_of_data
            if not (persistently or at_zero):
                continue
        result.add(sid)
    return frozenset(result)


def loop_choose_partition_symbol(
    automaton: Automaton,
    data: bytes,
    *,
    num_segments: int,
    exclude: frozenset[int] = frozenset(),
) -> PartitionSymbolChoice:
    counts = Counter(data)
    needed = max(1, num_segments - 1)
    best: PartitionSymbolChoice | None = None
    for symbol, occurrences in counts.items():
        if occurrences < needed:
            continue
        size = len(loop_enumeration_range(automaton, symbol, exclude=exclude))
        if (
            best is None
            or size < best.range_size
            or (size == best.range_size and occurrences > best.occurrences)
        ):
            best = PartitionSymbolChoice(
                symbol=symbol, range_size=size, occurrences=occurrences
            )
    if best is None:
        symbol, occurrences = counts.most_common(1)[0]
        best = PartitionSymbolChoice(
            symbol=symbol,
            range_size=len(
                loop_enumeration_range(automaton, symbol, exclude=exclude)
            ),
            occurrences=occurrences,
        )
    return best


@pytest.fixture
def hub_ruleset():
    """.*abc and .*xyz off one shared hub."""
    automaton = Automaton()
    hub = builder.star_self_loop(automaton)
    builder.attach_pattern(automaton, hub, builder.classes_for("abc"))
    builder.attach_pattern(automaton, hub, builder.classes_for("xyz"))
    return automaton


class TestRangeProfile:
    def test_shape(self, hub_ruleset):
        profile = range_profile(AutomatonAnalysis(hub_ruleset))
        assert len(profile.sizes) == 256
        assert profile.total_states == 7

    def test_min_max_avg(self, hub_ruleset):
        profile = range_profile(AutomatonAnalysis(hub_ruleset))
        # Every symbol reaches the hub; pattern symbols add one state.
        assert profile.minimum == 1
        assert profile.maximum == 2
        assert 1 < profile.average < 2

    def test_range_includes_always_active(self, hub_ruleset):
        # The raw profile counts the hub (Table 1 semantics).
        analysis = AutomatonAnalysis(hub_ruleset)
        assert 0 in analysis.symbol_range(ord("q"))


class TestEnumerationRange:
    def test_excludes_given_states(self, hub_ruleset):
        analysis = AutomatonAnalysis(hub_ruleset)
        pi = analysis.path_independent_states()
        assert enumeration_range(analysis, ord("q"), exclude=pi) == frozenset()
        assert enumeration_range(analysis, ord("a"), exclude=pi) == frozenset({1})

    def test_parentless_start_of_data_excluded(self):
        # ^hdr's head can only match at offset 0, never at a boundary.
        automaton = Automaton()
        builder.literal(automaton, "ha")
        analysis = AutomatonAnalysis(automaton)
        assert enumeration_range(analysis, ord("h")) == frozenset()

    def test_parentless_all_input_included_when_not_excluded(self):
        automaton = Automaton()
        head = automaton.add_state(
            CharClass.single("a"), start=StartKind.ALL_INPUT
        )
        tail = automaton.add_state(CharClass.single("b"), reporting=True)
        automaton.add_edge(head, tail)
        analysis = AutomatonAnalysis(automaton)
        # Without ASG exclusion the persistent head is enumerable.
        assert head in enumeration_range(analysis, ord("a"))
        # With it, it is not.
        pi = analysis.path_independent_states()
        assert head not in enumeration_range(analysis, ord("a"), exclude=pi)

    def test_interior_state_with_parent_included(self, hub_ruleset):
        analysis = AutomatonAnalysis(hub_ruleset)
        assert 2 in enumeration_range(analysis, ord("b"))


class TestChoosePartitionSymbol:
    def test_prefers_small_range(self, hub_ruleset):
        analysis = AutomatonAnalysis(hub_ruleset)
        pi = analysis.path_independent_states()
        # 'q' (range 0 after exclusion) occurs as often as 'a' (range 1).
        data = b"aq" * 50
        choice = choose_partition_symbol(
            analysis, data, num_segments=4, exclude=pi
        )
        assert choice.symbol == ord("q")
        assert choice.range_size == 0

    def test_frequency_gate(self, hub_ruleset):
        analysis = AutomatonAnalysis(hub_ruleset)
        pi = analysis.path_independent_states()
        # 'q' occurs once: not enough for 4 segments; 'a' wins.
        data = b"q" + b"a" * 50
        choice = choose_partition_symbol(
            analysis, data, num_segments=4, exclude=pi
        )
        assert choice.symbol == ord("a")

    def test_tie_broken_by_frequency(self, hub_ruleset):
        analysis = AutomatonAnalysis(hub_ruleset)
        pi = analysis.path_independent_states()
        data = b"qqqpp" * 10  # both have range 0; q is more frequent
        choice = choose_partition_symbol(
            analysis, data, num_segments=2, exclude=pi
        )
        assert choice.symbol == ord("q")

    @pytest.mark.parametrize("data, first", [(b"pq" * 20, "p"), (b"qp" * 20, "q")])
    def test_full_tie_broken_by_first_occurrence(self, hub_ruleset, data, first):
        # p and q: both range 0, both 20 occurrences.
        analysis = AutomatonAnalysis(hub_ruleset)
        pi = analysis.path_independent_states()
        choice = choose_partition_symbol(
            analysis, data, num_segments=2, exclude=pi
        )
        assert choice == PartitionSymbolChoice(
            symbol=ord(first), range_size=0, occurrences=20
        )

    def test_fallback_when_nothing_frequent_enough(self, hub_ruleset):
        analysis = AutomatonAnalysis(hub_ruleset)
        data = b"ab"
        choice = choose_partition_symbol(analysis, data, num_segments=64)
        assert choice.symbol in data

    def test_empty_input_rejected(self, hub_ruleset):
        with pytest.raises(ConfigurationError):
            choose_partition_symbol(
                AutomatonAnalysis(hub_ruleset), b"", num_segments=2
            )

    def test_zero_segments_rejected(self, hub_ruleset):
        with pytest.raises(ConfigurationError):
            choose_partition_symbol(
                AutomatonAnalysis(hub_ruleset), b"ab", num_segments=0
            )


random_automata = st.one_of(
    st.integers(0, 10_000).map(lambda seed: random_automaton(seed)),
    st.integers(0, 10_000).map(
        lambda seed: random_ruleset_automaton(
            seed, num_patterns=4, alphabet=b"abcd"
        )
    ),
)

# Four symbols over at most 40 bytes: ranges and counts tie often, and
# num_segments above the rarest count reaches the fallback branch.
small_inputs = st.binary(min_size=1, max_size=40).map(
    lambda raw: bytes(b"abcd"[b % 4] for b in raw)
)


class TestMatchesPerSymbolLoop:
    """The column sum plans exactly as the per-symbol loops did."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        automaton=random_automata,
        data=small_inputs,
        num_segments=st.integers(1, 48),
        use_asg=st.booleans(),
    )
    def test_planning_equals_loop(self, automaton, data, num_segments, use_asg):
        analysis = AutomatonAnalysis(automaton)
        exclude = (
            analysis.path_independent_states() if use_asg else frozenset()
        )
        assert choose_partition_symbol(
            analysis, data, num_segments=num_segments, exclude=exclude
        ) == loop_choose_partition_symbol(
            automaton, data, num_segments=num_segments, exclude=exclude
        )
        assert analysis.range_sizes().tolist() == [
            len(loop_symbol_range(automaton, symbol)) for symbol in range(256)
        ]
        assert enumeration_range_sizes(analysis, exclude=exclude).tolist() == [
            len(loop_enumeration_range(automaton, symbol, exclude=exclude))
            for symbol in range(256)
        ]
        for at_zero in (False, True):
            expected = [
                loop_enumeration_range(
                    automaton,
                    symbol,
                    exclude=exclude,
                    boundary_at_offset_zero=at_zero,
                )
                for symbol in range(256)
            ]
            assert [
                enumeration_range(
                    analysis,
                    symbol,
                    exclude=exclude,
                    boundary_at_offset_zero=at_zero,
                )
                for symbol in range(256)
            ] == expected

    def test_range_above_255_states(self):
        # Levenshtein's chosen range has 300 states: a count narrower
        # than 16 bits would wrap and change the choice.
        bench = build_benchmark("Levenshtein", scale=0.1, seed=0)
        data = bench.trace(65_536, 1)
        analysis = AutomatonAnalysis(bench.automaton)
        exclude = analysis.path_independent_states()
        choice = choose_partition_symbol(
            analysis, data, num_segments=5, exclude=exclude
        )
        assert choice.range_size == 300
        assert choice == loop_choose_partition_symbol(
            bench.automaton, data, num_segments=5, exclude=exclude
        )
