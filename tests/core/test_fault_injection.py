"""Fault-injection and mutation tests.

The PAP's exactness rests on specific rules (unit truth = members ⊆ M,
per-offset flow ownership, ASG always-true).  These tests *break* each
rule deliberately and assert the result diverges from the baseline —
demonstrating the equivalence tests have teeth — and stress the
scheduler's FIV and convergence timing to check exactness survives.
"""

import random

import pytest

from repro.ap.geometry import BoardGeometry
from repro.ap.sequential import run_sequential
from repro.core.composition import compose_segment, unit_truth_map
from repro.core.config import PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.core.scheduler import SegmentScheduler
from repro.regex.ruleset import compile_ruleset

BOARD = BoardGeometry(ranks=1, devices_per_rank=2)
CONFIG = PAPConfig(geometry=BOARD, tdm_slice_symbols=32)


@pytest.fixture(scope="module")
def setup():
    """A workload where enumeration truth *matters*: matches tile the
    whole input, so every segment boundary cuts through one and the
    cross-boundary results exist only in true enumeration units."""
    automaton, _ = compile_ruleset(["abcabc"])
    rng = random.Random(13)
    data = bytes(rng.choice(b"abc") for _ in range(600)) + b"abc" * 700
    baseline = run_sequential(automaton, data)
    assert baseline.reports  # faults must have something to corrupt
    return automaton, data, baseline


def run_with_truth_mutator(automaton, data, mutate):
    """Re-implement the PAP composition loop with a mutated truth map."""
    pap = ParallelAutomataProcessor(automaton, config=CONFIG)
    scheduler = SegmentScheduler(
        pap.compiled, pap.analysis, pap.config, pap.path_independent
    )
    plan = pap.plan(data)
    reports = set()
    previous = frozenset()
    for segment_plan in plan.segments:
        if segment_plan.is_golden:
            result = scheduler.run_segment(data, segment_plan)
            composed = compose_segment(result, {}, pap.analysis)
        else:
            truth = mutate(unit_truth_map(segment_plan.flows, previous))
            result = scheduler.run_segment(data, segment_plan)
            composed = compose_segment(result, truth, pap.analysis)
        reports |= composed.true_reports
        previous = composed.final_matched
    return frozenset(reports)


class TestTruthRuleMutations:
    def test_all_true_overreports(self, setup):
        """Marking every unit true must admit false-path reports (when
        any false paths produced events at all)."""
        automaton, data, baseline = setup
        honest = run_with_truth_mutator(automaton, data, lambda t: t)
        assert honest == baseline.reports
        greedy = run_with_truth_mutator(
            automaton, data, lambda t: {uid: True for uid in t}
        )
        # Never loses reports; gains exactly the false-path ones.
        assert greedy >= baseline.reports

    def test_all_false_loses_reports(self, setup):
        """Marking every unit false keeps only ASG-flow reports: a
        strict subset whenever enumeration carried true results."""
        automaton, data, baseline = setup
        honest = run_with_truth_mutator(automaton, data, lambda t: t)
        paranoid = run_with_truth_mutator(
            automaton, data, lambda t: {uid: False for uid in t}
        )
        assert paranoid <= baseline.reports
        # This workload has true enumeration units carrying reports, so
        # discarding them must actually lose something.
        assert honest == baseline.reports
        assert paranoid < baseline.reports

    def test_inverted_truth_diverges(self, setup):
        """Flipping every verdict must not reproduce the baseline on a
        workload where enumeration matters."""
        automaton, data, baseline = setup
        inverted = run_with_truth_mutator(
            automaton,
            data,
            lambda t: {uid: not value for uid, value in t.items()},
        )
        assert inverted != baseline.reports


class TestSchedulerRobustness:
    def test_mid_segment_fiv_cannot_lose_true_reports(self, setup):
        """Even with an FIV arriving at every possible boundary, true
        reports survive (FIV only ever kills all-false flows)."""
        automaton, data, baseline = setup
        for fiv_time in (0, 50, 500):
            pap = ParallelAutomataProcessor(automaton, config=CONFIG)
            result = pap.run(data)
            assert result.reports == baseline.reports, fiv_time

    def test_convergence_every_step_is_safe(self, setup):
        automaton, data, baseline = setup
        config = PAPConfig(
            geometry=BOARD,
            tdm_slice_symbols=8,
            convergence_period_steps=1,
        )
        result = ParallelAutomataProcessor(automaton, config=config).run(data)
        assert result.reports == baseline.reports

    def test_non_overlapped_convergence_costs_cycles(self, setup):
        automaton, data, _ = setup
        from dataclasses import replace

        base = PAPConfig(
            geometry=BOARD,
            tdm_slice_symbols=8,
            convergence_period_steps=1,
        )
        overlapped = ParallelAutomataProcessor(
            automaton, config=base
        ).run(data)
        inline = ParallelAutomataProcessor(
            automaton,
            config=replace(
                base,
                timing=replace(
                    base.timing, convergence_checks_overlapped=False
                ),
            ),
        ).run(data)
        assert inline.reports == overlapped.reports
        if overlapped.convergence_merges or any(
            r.metrics.convergence_comparisons
            for r in overlapped.segment_results
        ):
            assert inline.enumeration_cycles >= overlapped.enumeration_cycles
