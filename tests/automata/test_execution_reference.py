"""Differential tests: the optimized executor vs. a naive reference.

The production executor latches full-label self-loop states and indexes
their successors per symbol (a large constant-factor win on saturated
automata).  This module re-implements the step semantics in the most
literal way possible and asserts the two agree on reports, current
sets, and transition counts for arbitrary automata and inputs.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.execution import CompiledAutomaton, FlowExecution, Report
from repro.automata.random_gen import (
    random_automaton,
    random_ruleset_automaton,
)


class NaiveExecution:
    """Literal implementation of the documented step semantics."""

    def __init__(
        self,
        compiled: CompiledAutomaton,
        *,
        initial_current=(),
        persistent=None,
        one_shot=None,
    ) -> None:
        self.compiled = compiled
        self.current = set(initial_current)
        self.persistent = (
            compiled.all_input if persistent is None else persistent
        )
        self.one_shot = (
            compiled.start_of_data if one_shot is None else one_shot
        )
        self.reports: list[Report] = []
        self.transitions = 0
        self._started = False

    def step(self, symbol: int, offset: int) -> None:
        compiled = self.compiled
        enabled = set()
        for src in self.current:
            enabled.update(compiled.succ[src])
        enabled |= self.persistent
        if not self._started:
            enabled |= self.one_shot
            self._started = True
        bit = 1 << symbol
        current = {
            sid for sid in enabled if compiled.label_masks[sid] & bit
        }
        self.current = current
        self.transitions += len(current)
        for sid in current & compiled.reporting:
            self.reports.append(
                Report(
                    offset=offset,
                    element=sid,
                    code=compiled.report_codes[sid],
                )
            )

    def run(self, data: bytes, base_offset: int = 0) -> None:
        for index, symbol in enumerate(data):
            self.step(symbol, base_offset + index)


def assert_equivalent(compiled, data, **kwargs):
    fast = FlowExecution(compiled, **kwargs)
    slow = NaiveExecution(compiled, **kwargs)
    for index, symbol in enumerate(data):
        fast.step(symbol, index)
        slow.step(symbol, index)
        assert fast.state_vector() == frozenset(slow.current), index
    assert sorted(fast.reports) == sorted(slow.reports)
    assert fast.transitions == slow.transitions


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), raw=st.binary(min_size=0, max_size=200))
def test_fast_executor_equals_naive_on_adversarial(seed, raw):
    data = bytes(b"abcd"[b % 4] for b in raw)
    automaton = random_automaton(seed, num_states=10, alphabet=b"abcd")
    assert_equivalent(CompiledAutomaton(automaton), data)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), raw=st.binary(min_size=0, max_size=200))
def test_fast_executor_equals_naive_on_rulesets(seed, raw):
    data = bytes(b"abcdef"[b % 6] for b in raw)
    automaton = random_ruleset_automaton(seed, num_patterns=5)
    assert_equivalent(CompiledAutomaton(automaton), data)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), raw=st.binary(min_size=1, max_size=120))
def test_fast_executor_equals_naive_with_flow_options(seed, raw):
    """Exercise the enumeration-flow parameterizations: seeded current,
    custom persistent set, suppressed one-shot."""
    rng = random.Random(seed)
    data = bytes(b"abcd"[b % 4] for b in raw)
    automaton = random_automaton(seed, num_states=9, alphabet=b"abcd")
    compiled = CompiledAutomaton(automaton)
    count = len(automaton)
    kwargs = dict(
        initial_current=frozenset(
            rng.sample(range(count), rng.randint(0, min(4, count)))
        ),
        persistent=frozenset(
            rng.sample(range(count), rng.randint(0, min(3, count)))
        ),
        one_shot=frozenset(
            rng.sample(range(count), rng.randint(0, min(3, count)))
        ),
    )
    assert_equivalent(compiled, data, **kwargs)


def test_saturating_automaton_latches(
):
    """Direct check on the latching fast path: gap-pattern automata
    saturate and the two executors still agree step for step."""
    from repro.workloads.spm import spm_benchmark, transaction_trace

    automaton, items = spm_benchmark(num_patterns=6, seed=1)
    data = transaction_trace(items, 600, seed=2, hit_fraction=0.5)
    assert_equivalent(CompiledAutomaton(automaton), data)


def test_dotstar_latching_equivalence():
    from repro.regex.ruleset import compile_ruleset
    from repro.workloads.tracegen import pm_trace

    automaton, _ = compile_ruleset(["ab.*cd", "x.*y.*z", "^q.*r"])
    data = pm_trace(automaton, 500, seed=3)
    assert_equivalent(CompiledAutomaton(automaton), data)
