"""Unit tests for the domain workload generators."""

import random

import pytest

from repro.automata.analysis import AutomatonAnalysis
from repro.automata.execution import run_automaton
from repro.errors import ConfigurationError
from repro.workloads.entityres import (
    entity_automaton,
    entityresolution_benchmark,
    name_trace,
)
from repro.workloads.fermi import (
    COORDINATE_HIGH,
    COORDINATE_LOW,
    fermi_benchmark,
    hit_trace,
    trajectory_automaton,
)
from repro.workloads.protomata import (
    AMINO_ACIDS,
    protein_trace,
    protomata_benchmark,
    random_motif,
)
from repro.workloads.randomforest import (
    VECTOR_SEPARATOR,
    feature_trace,
    randomforest_benchmark,
    tree_automaton,
)
from repro.workloads.regexgen import RegexSuiteParams, generate_ruleset
from repro.workloads.spm import (
    TRANSACTION_DELIMITER,
    spm_benchmark,
    spm_pattern,
    transaction_trace,
)
from repro.workloads.suite import build_benchmark


class TestRegexGen:
    def test_one_component_per_group(self):
        params = RegexSuiteParams(num_groups=5, patterns_per_group=6)
        automaton, patterns = generate_ruleset(params, seed=1)
        assert len(patterns) == 30
        analysis = AutomatonAnalysis(automaton)
        assert len(analysis.connected_components()) == 5

    def test_deterministic_by_seed(self):
        params = RegexSuiteParams(num_groups=2, patterns_per_group=3)
        first, _ = generate_ruleset(params, seed=9)
        second, _ = generate_ruleset(params, seed=9)
        assert first.num_states == second.num_states

    def test_dotstar_fraction_adds_full_states(self):
        plain = RegexSuiteParams(num_groups=4, patterns_per_group=10)
        dotty = RegexSuiteParams(
            num_groups=4, patterns_per_group=10, dotstar_fraction=0.9
        )
        plain_auto, _ = generate_ruleset(plain, seed=2)
        dotty_auto, _ = generate_ruleset(dotty, seed=2)

        def full_non_start(automaton):
            return sum(
                1
                for s in automaton.states()
                if s.label.is_full() and not automaton.has_self_loop(s.sid)
            )

        # Mid-pattern .* states self-loop too; count full-label states
        # beyond the per-group hubs instead.
        def full_states(automaton):
            return sum(1 for s in automaton.states() if s.label.is_full())

        assert full_states(dotty_auto) > full_states(plain_auto)
        del full_non_start

    def test_patterns_match_their_own_text(self):
        params = RegexSuiteParams(
            num_groups=2, patterns_per_group=4, prefix_length=2
        )
        automaton, patterns = generate_ruleset(params, seed=4)
        literal = next(
            p for p in patterns if all(c.isalnum() for c in p)
        )
        reports = run_automaton(automaton, literal.encode()).report_set
        assert reports


class TestSpm:
    def test_pattern_shape(self):
        assert spm_pattern([b"ab", b"cd"]) == "ab[^|]*cd"

    def test_gap_match_within_transaction(self):
        automaton, items = spm_benchmark(num_patterns=1, seed=0)
        i1, i2, i3, i4 = items[0]
        stream = i1 + b"xx" + i2 + i3 + b"y" + i4
        assert run_automaton(automaton, stream).report_set

    def test_delimiter_resets_partial_matches(self):
        automaton, items = spm_benchmark(num_patterns=1, seed=0)
        i1, i2, i3, i4 = items[0]
        stream = i1 + i2 + i3 + b"|" + i4
        assert not run_automaton(automaton, stream).report_set

    def test_one_component_per_candidate(self):
        automaton, _ = spm_benchmark(num_patterns=7, seed=1)
        analysis = AutomatonAnalysis(automaton)
        assert len(analysis.connected_components()) == 7

    def test_transaction_trace_is_delimited(self):
        _, items = spm_benchmark(num_patterns=3, seed=1)
        stream = transaction_trace(items, 2000, seed=2)
        assert stream.count(bytes([TRANSACTION_DELIMITER])) > 10

    def test_trace_produces_supported_patterns(self):
        automaton, items = spm_benchmark(num_patterns=10, seed=3)
        stream = transaction_trace(items, 8000, seed=4, hit_fraction=0.5)
        assert run_automaton(automaton, stream).report_set


class TestFermi:
    def test_trajectory_windows(self):
        automaton = trajectory_automaton([0x40, 0x44], 2, report_code=5)
        reports = run_automaton(automaton, bytes([0x41, 0x45])).report_set
        assert {r.code for r in reports} == {5}
        miss = run_automaton(automaton, bytes([0x41, 0x50])).report_set
        assert not miss

    def test_wide_windows_dominate_ranges(self):
        automaton, _ = fermi_benchmark(num_trajectories=20, seed=1)
        analysis = AutomatonAnalysis(automaton)
        mid = (COORDINATE_LOW + COORDINATE_HIGH) // 2
        assert len(analysis.symbol_range(mid)) > automaton.num_states * 0.2

    def test_hit_trace_in_coordinate_range(self):
        trace = hit_trace(500, seed=1)
        assert all(COORDINATE_LOW <= b <= COORDINATE_HIGH for b in trace)

    def test_component_count(self):
        automaton, centers = fermi_benchmark(num_trajectories=9, seed=2)
        assert len(centers) == 9
        analysis = AutomatonAnalysis(automaton)
        assert len(analysis.connected_components()) == 9


class TestRandomForest:
    def test_trees_are_single_components(self):
        automaton = randomforest_benchmark(num_trees=6, seed=1)
        analysis = AutomatonAnalysis(automaton)
        assert len(analysis.connected_components()) == 6

    def test_classification_fires_per_vector(self):
        rng = random.Random(0)
        tree = tree_automaton(
            depth=2, num_leaves=8, rng=rng, report_code=0
        )
        # Brute-force a matching 2-byte vector.
        hit = None
        for a in range(0x20, 0x7F):
            for b in range(0x20, 0x7F):
                if run_automaton(tree, bytes([a, b])).report_set:
                    hit = bytes([a, b])
                    break
            if hit:
                break
        assert hit is not None
        # The same vector must classify again after a separator.
        stream = hit + bytes([VECTOR_SEPARATOR]) + hit
        offsets = {
            r.offset for r in run_automaton(tree, stream).report_set
        }
        assert offsets == {1, 4}

    def test_feature_trace_has_separators(self):
        trace = feature_trace(1000, vector_size=10, seed=1)
        assert trace.count(bytes([VECTOR_SEPARATOR])) >= 80


class TestProtomata:
    def test_motif_alphabet(self):
        rng = random.Random(0)
        motif = random_motif(rng)
        stripped = motif.replace("[", "").replace("]", "")
        assert all(c in AMINO_ACIDS for c in stripped)

    def test_group_components(self):
        automaton, motifs = protomata_benchmark(num_groups=4, seed=1)
        assert len(motifs) == 16
        analysis = AutomatonAnalysis(automaton)
        assert len(analysis.connected_components()) == 4

    def test_protein_trace_mostly_residues(self):
        trace = protein_trace(2000, seed=1)
        residues = sum(1 for b in trace if chr(b) in AMINO_ACIDS)
        assert residues > 1800


class TestEntityResolution:
    def test_orderings_and_abbreviations_match(self):
        automaton = entity_automaton(["ann", "roe"], report_code=3)
        for text in (b"ann roe", b"roe ann", b"a. roe"):
            reports = run_automaton(automaton, b"xx" + text).report_set
            assert {r.code for r in reports} == {3}, text

    def test_components_are_dense_and_few(self):
        automaton, entities = entityresolution_benchmark(
            num_entities=10, entities_per_component=5, seed=1
        )
        assert len(entities) == 10
        analysis = AutomatonAnalysis(automaton)
        assert len(analysis.connected_components()) == 2

    def test_name_trace_contains_entities(self):
        automaton, entities = entityresolution_benchmark(
            num_entities=6, entities_per_component=3, seed=2
        )
        trace = name_trace(entities, 4000, seed=3, hit_fraction=0.4)
        assert run_automaton(automaton, trace).report_set


class TestBuildBenchmark:
    @pytest.mark.parametrize("scale", [0.0, -3.0, float("nan")])
    def test_rejects_non_positive_scale(self, scale):
        """A scale is a fraction of the paper's state counts: without
        this check -3 silently built Bro217's 28-state minimum."""
        with pytest.raises(ConfigurationError, match="scale must be positive"):
            build_benchmark("Bro217", scale=scale)
