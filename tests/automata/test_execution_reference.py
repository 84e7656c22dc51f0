"""Differential tests: the optimized executors vs. a naive reference.

The production executor latches full-label self-loop states and indexes
their successors per symbol (a large constant-factor win on saturated
automata).  This module re-implements the step semantics in the most
literal way possible and asserts the two agree on reports, current
sets, and transition counts for arbitrary automata and inputs.  The
reference check's lazily determinized executor is held to the same
semantics, and to the set walk's exact report order.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap.sequential import run_sequential
from repro.automata import lazy_dfa
from repro.automata.anml import Automaton, StartKind
from repro.automata.builder import chain
from repro.automata.charclass import CharClass
from repro.automata.execution import (
    CompiledAutomaton,
    FlowExecution,
    Report,
    run_automaton,
)
from repro.automata.lazy_dfa import run_lazy_dfa, symbol_classes
from repro.automata.random_gen import (
    random_automaton,
    random_ruleset_automaton,
)
from repro.automata.vector import VectorFlowExecution
from repro.regex.ruleset import compile_ruleset
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark


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


# -- the reference check's lazily determinized executor -------------------
#
# ``run_lazy_dfa`` (repro.automata.lazy_dfa) is what
# ``repro.ap.sequential.run_sequential`` runs.  It must reproduce the set
# walk exactly (reports list in order, transition count, final set) with
# its memo warm, flushed, out of budget or given up, and it must step
# without either PAP engine.

#: Module constants that make the memo stop early on small inputs.
TIGHT = {"MISS_WINDOW": 16, "MEMO_BUDGET": 2_000}


def assert_lazy_equivalent(compiled, data, constants=None):
    """``run_lazy_dfa`` against the set walk and the naive executor."""
    constants = constants or {"MEMO_BUDGET": lazy_dfa.MEMO_BUDGET}
    with mock.patch.multiple(lazy_dfa, **constants):
        lazy, stats = run_lazy_dfa(compiled, data)
    walk = run_automaton(compiled, data)
    assert lazy.reports == walk.reports
    assert lazy.transitions == walk.transitions
    assert lazy.final_current == walk.final_current
    assert lazy.symbols_processed == len(data)
    naive = NaiveExecution(compiled)
    naive.run(data)
    assert sorted(lazy.reports) == sorted(naive.reports)
    assert lazy.transitions == naive.transitions
    assert lazy.final_current == frozenset(naive.current)
    lookups = max(0, (stats.stopped_at or len(data)) - 1)
    assert stats.hits + stats.misses == lookups
    return stats


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    raw=st.binary(min_size=0, max_size=300),
    tight=st.booleans(),
)
def test_lazy_dfa_equals_set_walk_on_adversarial(seed, raw, tight):
    data = bytes(b"abcd"[b % 4] for b in raw)
    automaton = random_automaton(seed, num_states=10, alphabet=b"abcd")
    assert_lazy_equivalent(
        CompiledAutomaton(automaton), data, TIGHT if tight else None
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    raw=st.binary(min_size=0, max_size=300),
    tight=st.booleans(),
)
def test_lazy_dfa_equals_set_walk_on_rulesets(seed, raw, tight):
    data = bytes(b"abcdef"[b % 6] for b in raw)
    automaton = random_ruleset_automaton(seed, num_patterns=5)
    assert_lazy_equivalent(
        CompiledAutomaton(automaton), data, TIGHT if tight else None
    )


@pytest.mark.parametrize("tight", [False, True], ids=["default", "tight"])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_lazy_dfa_equals_set_walk_on_the_suite(name, tight):
    """Every suite automaton at a small scale, across one window
    boundary; with tight constants the memo stops mid-input."""
    bench = build_benchmark(name, scale=0.05, seed=0)
    compiled = CompiledAutomaton(bench.automaton)
    data = bench.trace(lazy_dfa.MISS_WINDOW + 904, 1)
    assert_lazy_equivalent(compiled, data, TIGHT if tight else None)


def test_first_step_is_never_memoized():
    """Start-of-data states are enabled on the first step only.  Here
    the volatile set empties, refills from an all-input state, and
    empties again before each later ``a``: a memoized first step (empty
    set, ``a``) would re-enable the start-of-data state there."""
    automaton = Automaton(name="first-step")
    start = automaton.add_state(
        CharClass.single("a"), start=StartKind.START_OF_DATA
    )
    end = automaton.add_state(
        CharClass.single("b"), reporting=True, report_code=7
    )
    automaton.add_edge(start, end)
    refill = automaton.add_state(
        CharClass.single("c"), start=StartKind.ALL_INPUT
    )
    automaton.add_edge(refill, end)
    data = b"ab" + b"xcxab" * 50
    compiled = CompiledAutomaton(automaton)
    lazy, stats = run_lazy_dfa(compiled, data)
    assert lazy.reports == [Report(offset=1, element=end, code=7)]
    assert stats.hits > 0 and stats.stopped_at is None
    assert_lazy_equivalent(compiled, data)


def test_all_input_states():
    """All-input states, latchable and not, are enabled on every step."""
    automaton = Automaton(name="all-input")
    gap = automaton.add_state(CharClass.full(), start=StartKind.ALL_INPUT)
    automaton.add_edge(gap, gap)
    after_gap = automaton.add_state(
        CharClass.single("z"), reporting=True, report_code=1
    )
    automaton.add_edge(gap, after_gap)
    head = automaton.add_state(
        CharClass.single("x"), start=StartKind.ALL_INPUT
    )
    tail = automaton.add_state(
        CharClass.single("y"), reporting=True, report_code=2
    )
    automaton.add_edge(head, tail)
    compiled = CompiledAutomaton(automaton)
    assert gap in compiled.latchable and compiled.all_input == {gap, head}
    data = bytes(random.Random(5).choice(b"xyzq") for _ in range(3_000))
    assert_lazy_equivalent(compiled, data)
    assert_lazy_equivalent(compiled, data, TIGHT)


def test_latch_growth_mid_input_flushes_the_memo():
    """A ``.*`` state latched in mid-input changes every transition: the
    memo is flushed, refills, and the output stays exact."""
    automaton, _ = compile_ruleset(["ab.*cd", "x.*y.*z"])
    compiled = CompiledAutomaton(automaton)
    rng = random.Random(9)
    noise = bytes(rng.choice(b"cdqrs") for _ in range(1_500))
    data = noise + b"ab" + noise + b"x" + noise
    before = assert_lazy_equivalent(compiled, noise + b"a")
    assert before.flushes == 0
    stats = assert_lazy_equivalent(compiled, data)
    assert stats.flushes == 2 and stats.stopped_at is None
    # The refilled memo serves the noise after each flush again.
    assert stats.hits > 2 * before.hits


def test_budget_stops_memoizing_mid_input():
    automaton, _ = compile_ruleset(["ab.*cd", "x[a-f]+y", "q.r.s"])
    compiled = CompiledAutomaton(automaton)
    rng = random.Random(3)
    data = bytes(rng.choice(b"abcdefxyqrs") for _ in range(5_000))
    stats = assert_lazy_equivalent(compiled, data, {"MEMO_BUDGET": 3_000})
    assert 1 < stats.stopped_at < len(data)
    assert "memo budget of 3000 bytes reached" in stats.reason
    assert 0 < stats.memo_bytes <= 3_000


def test_miss_share_stops_memoizing_mid_input():
    """A chain whose volatile set never repeats misses on every lookup:
    the first window warms up, the second is judged and stops the memo."""
    automaton = Automaton(name="never-repeats")
    chain(automaton, [CharClass.full()] * 400, report_code=1)
    compiled = CompiledAutomaton(automaton)
    data = bytes(range(256)) * 2
    stats = assert_lazy_equivalent(compiled, data, {"MISS_WINDOW": 32})
    assert stats.stopped_at == 64
    assert stats.hits == 0 and stats.misses == 63
    assert stats.reason == (
        "stopped memoizing at 64: 32 of 32 lookups in a window missed "
        "(limit 80%)"
    )


def test_reference_check_steps_on_neither_pap_engine(monkeypatch):
    """``run_sequential`` is independent of the code it checks: with
    both PAP engines' steps raising it still returns the set walk's
    result."""
    cases = []
    for name in ("Snort", "Bro217", "SPM"):
        bench = build_benchmark(name, scale=0.05, seed=0)
        data = bench.trace(4_096, 1)
        cases.append((bench.automaton, data, run_automaton(bench.automaton, data)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the reference check stepped a PAP engine")

    monkeypatch.setattr(FlowExecution, "step", forbidden)
    monkeypatch.setattr(VectorFlowExecution, "step", forbidden)
    for automaton, data, expected in cases:
        baseline = run_sequential(automaton, data)
        assert baseline.reports == expected.report_set
        assert baseline.transitions == expected.transitions
        assert baseline.reference.dfa_states > 0
        assert baseline.reference_reason.startswith("lazy-dfa: ")


def test_stop_rule_pinned_at_scale_0_1():
    """Where the memo stops paying, at the benchmark scale: Fermi's and
    SPM's active sets barely repeat, so memoizing stops early; on the
    three perfbench automata it serves the whole 64 KiB input."""
    verdicts = {}
    for name, size in (
        ("Fermi", 8_192),
        ("SPM", 12_288),
        ("Levenshtein", 65_536),
        ("Snort", 65_536),
        ("Bro217", 65_536),
    ):
        bench = build_benchmark(name, scale=0.1, seed=0)
        _, stats = run_lazy_dfa(bench.automaton, bench.trace(size, 1))
        verdicts[name] = stats.stopped_at
    assert verdicts["Fermi"] is not None and verdicts["Fermi"] < 8_192
    assert verdicts["SPM"] == 2 * lazy_dfa.MISS_WINDOW
    assert [verdicts[name] for name in ("Levenshtein", "Snort", "Bro217")] == [
        None, None, None
    ]


def test_symbol_classes_partition_the_alphabet():
    masks = [
        CharClass.range("a", "f").mask,
        CharClass.from_string("cx").mask,
        CharClass.full().mask,
    ]
    class_of, reps = symbol_classes(masks)
    groups: dict[int, set[int]] = {}
    for symbol in range(256):
        groups.setdefault(class_of[symbol], set()).add(symbol)
    assert sorted(groups) == list(range(len(reps))) and len(reps) == 4
    for cls, members in groups.items():
        assert min(members) == reps[cls]
        for mask in masks:
            assert len({(mask >> symbol) & 1 for symbol in members}) == 1
