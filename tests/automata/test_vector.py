"""Unit tests for the bit-parallel vector executor.

The contract under test is *bit-identity* with the set-based
:class:`FlowExecution` — not just equal report sets but the same
reports list (order included), the same ``transitions`` counter, and
the same ``state_vector()`` snapshots at every interleaving point.
That is what lets the scheduler treat the strategy as a pure
substitution (see ``tests/exec/test_vector_backend.py`` for the
run-level corpus).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.execution import CompiledAutomaton, FlowExecution
from repro.automata.random_gen import random_automaton, random_ruleset_automaton
from repro.automata.vector import VectorFlowExecution
from repro.workloads.suite import build_benchmark


def assert_twin(label, set_flow, vec_flow):
    assert vec_flow.state_vector() == set_flow.state_vector(), label
    assert vec_flow.transitions == set_flow.transitions, label
    assert vec_flow.symbols_processed == set_flow.symbols_processed, label
    assert vec_flow.reports == set_flow.reports, label
    assert vec_flow.current == set_flow.current, label


class TestVectorTables:
    def test_encode_decode_round_trip(self):
        automaton = random_ruleset_automaton(5, num_patterns=4)
        tables = CompiledAutomaton(automaton).vector_tables()
        rng = random.Random(5)
        for _ in range(20):
            sids = frozenset(
                rng.sample(range(tables.num_states), rng.randrange(8))
            )
            assert tables.decode(tables.encode(sids)) == sids

    def test_tables_cached_on_compiled_automaton(self):
        compiled = CompiledAutomaton(random_ruleset_automaton(1, num_patterns=2))
        assert compiled.vector_tables() is compiled.vector_tables()

    def test_symbol_classes_partition_the_alphabet(self):
        compiled = CompiledAutomaton(random_ruleset_automaton(9, num_patterns=4))
        tables = compiled.vector_tables()
        assert len(tables.class_of) == 256
        assert set(tables.class_of) == set(range(tables.num_classes))

    def test_class_members_share_match_masks(self):
        """Two symbols in one class must enable exactly the same states
        — the defining property that makes per-class tables sound."""
        compiled = CompiledAutomaton(random_ruleset_automaton(3, num_patterns=4))
        tables = compiled.vector_tables()
        masks = compiled.label_masks
        for symbol in range(256):
            expected = tables.encode(
                sid
                for sid in range(tables.num_states)
                if masks[sid] & (1 << symbol)
            )
            assert tables.match_masks[tables.class_of[symbol]] == expected, symbol

    def test_successor_union_matches_succ_table(self):
        compiled = CompiledAutomaton(random_ruleset_automaton(17, num_patterns=3))
        tables = compiled.vector_tables()
        rng = random.Random(17)
        for _ in range(50):
            cls = rng.randrange(tables.num_classes)
            sids = rng.sample(
                range(tables.num_states), min(6, tables.num_states)
            )
            expected = set()
            for sid in sids:
                expected.update(compiled.succ[sid])
            expected &= set(tables.decode(tables.match_masks[cls]))
            got = set()
            for position, value in enumerate(
                tables.limbs_of(tables.encode(sids))
            ):
                if value:
                    got |= set(
                        tables.decode(
                            tables.successor_union(cls, position, value)
                        )
                    )
            assert got == expected

    def test_limb_cache_budget_bounds_occupancy(self):
        """A budget below the input's working set stops the cache part
        way: fewer entries than without it, the charge overshoots the
        budget by at most one entry, and the flow stays bit-exact."""
        rng = random.Random(2)
        data = bytes(rng.choice(b"abcdef") for _ in range(512))
        free = CompiledAutomaton(random_ruleset_automaton(2, num_patterns=3))
        VectorFlowExecution(free).run(data)
        unbounded = free.vector_tables().limb_cache_stats()

        compiled = CompiledAutomaton(random_ruleset_automaton(2, num_patterns=3))
        tables = compiled.vector_tables()
        budget = tables._limb_budget = unbounded["bytes"] // 2
        walked = FlowExecution(compiled)
        stepped = VectorFlowExecution(compiled)
        walked.run(data)
        stepped.run(data)
        stats = tables.limb_cache_stats()
        cached = sum(len(table) for cls in tables._limb_tables for table in cls)
        assert 0 < cached == stats["entries"] < unbounded["entries"]
        assert budget <= stats["bytes"] < budget + 100 + (tables.num_states >> 3)
        assert stats["exhausted"] == 1
        # Exhausted budget must not change semantics.
        assert_twin("budget", walked, stepped)

    def test_limb_cache_stats_count_the_miss_path(self):
        """Every miss folds successor rows; within budget each is stored
        and charged, and once the budget runs out misses stop being
        stored and the tables say so."""
        compiled = CompiledAutomaton(random_ruleset_automaton(2, num_patterns=3))
        rng = random.Random(2)
        data = bytes(rng.choice(b"abcdef") for _ in range(512))
        tables = compiled.vector_tables()
        VectorFlowExecution(compiled).run(data)
        stats = tables.limb_cache_stats()
        cached = sum(len(table) for cls in tables._limb_tables for table in cls)
        assert stats["misses"] == stats["entries"] == cached > 0
        assert stats["bytes"] >= 100 * cached
        assert stats["exhausted"] == 0

        tight = CompiledAutomaton(random_ruleset_automaton(2, num_patterns=3))
        tables = tight.vector_tables()
        tables._limb_budget = 3
        VectorFlowExecution(tight).run(data)
        stats = tables.limb_cache_stats()
        assert stats["entries"] == 1 < stats["misses"]
        assert stats["exhausted"] == 1


class TestVectorEquivalence:
    @pytest.mark.parametrize(
        "name", ["Levenshtein", "Bro217", "EntityResolution"]
    )
    def test_suite_workloads_bit_identical(self, name):
        inst = build_benchmark(name, scale=0.25, seed=0)
        compiled = CompiledAutomaton(inst.automaton)
        data = inst.trace(2048, 7)
        set_flow, vec_flow = FlowExecution(compiled), VectorFlowExecution(compiled)
        set_flow.run(data)
        vec_flow.run(data)
        assert_twin(name, set_flow, vec_flow)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), raw=st.binary(min_size=0, max_size=200))
    def test_random_automata_bit_identical(self, seed, raw):
        automaton = random_automaton(seed, num_states=12, alphabet=b"abcd")
        compiled = CompiledAutomaton(automaton)
        data = bytes(b"abcd"[b % 4] for b in raw)
        set_flow, vec_flow = FlowExecution(compiled), VectorFlowExecution(compiled)
        set_flow.run(data)
        vec_flow.run(data)
        assert_twin(seed, set_flow, vec_flow)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), raw=st.binary(min_size=1, max_size=200))
    def test_enumeration_semantics_bit_identical(self, seed, raw):
        """Scheduler-flow kwargs: seeded initial sets, persistent
        path-independent states, no one-shots."""
        rng = random.Random(seed)
        automaton = random_ruleset_automaton(seed, num_patterns=3)
        compiled = CompiledAutomaton(automaton)
        n = len(compiled)
        kwargs = dict(
            initial_current=frozenset(rng.sample(range(n), min(4, n))),
            persistent=frozenset(rng.sample(range(n), min(3, n))),
            one_shot=frozenset(),
        )
        data = bytes(rng.choice(b"abcdef") for _ in range(len(raw)))
        set_flow = FlowExecution(compiled, **kwargs)
        vec_flow = VectorFlowExecution(compiled, **kwargs)
        # Interleave run/step like the TDM scheduler does.
        pos = 0
        while pos < len(data):
            k = rng.choice([1, 7, 16, 64])
            chunk = data[pos : pos + k]
            set_flow.run(chunk, 31 + pos)
            vec_flow.run(chunk, 31 + pos)
            pos += k
        assert_twin(seed, set_flow, vec_flow)

    def test_step_equals_run(self):
        compiled = CompiledAutomaton(random_ruleset_automaton(8, num_patterns=3))
        data = bytes(random.Random(8).choice(b"abcdef") for _ in range(128))
        stepped = VectorFlowExecution(compiled)
        for index, symbol in enumerate(data):
            stepped.step(symbol, index)
        ran = VectorFlowExecution(compiled)
        ran.run(data)
        assert_twin("step-vs-run", ran, stepped)

    def test_clone_round_trip_stays_bit_identical(self):
        """A clone is a flow seeded with another's ``state_vector()``
        and no one-shots, as every scheduler flow starts; seeding each
        engine from the other's vector must keep the two bit-identical."""
        compiled = CompiledAutomaton(random_ruleset_automaton(21, num_patterns=4))
        data = bytes(random.Random(21).choice(b"abcdef") for _ in range(512))
        set_flow, vec_flow = FlowExecution(compiled), VectorFlowExecution(compiled)
        set_flow.run(data[:256])
        vec_flow.run(data[:256])
        set_twin = FlowExecution(
            compiled, initial_current=vec_flow.state_vector(), one_shot=frozenset()
        )
        vec_twin = VectorFlowExecution(
            compiled, initial_current=set_flow.state_vector(), one_shot=frozenset()
        )
        set_twin.run(data[256:], 256)
        vec_twin.run(data[256:], 256)
        assert_twin("clone", set_twin, vec_twin)
        # Originals are unperturbed by the twins.
        assert_twin("original", set_flow, vec_flow)

    def test_one_shot_fires_on_first_symbol_only(self):
        automaton = random_ruleset_automaton(13, num_patterns=3)
        compiled = CompiledAutomaton(automaton)
        assert compiled.start_of_data, "seed must exercise one-shots"
        data = bytes(random.Random(13).choice(b"abcdef") for _ in range(64))
        set_flow, vec_flow = FlowExecution(compiled), VectorFlowExecution(compiled)
        # Split exactly after the first symbol: the one-shot set must
        # not re-arm on the second run call.
        for flow in (set_flow, vec_flow):
            flow.run(data[:1], 0)
            flow.run(data[1:], 1)
        assert_twin("one-shot", set_flow, vec_flow)

    def test_empty_run_is_a_no_op(self):
        compiled = CompiledAutomaton(random_ruleset_automaton(2, num_patterns=2))
        vec_flow = VectorFlowExecution(compiled)
        vec_flow.run(b"")
        assert vec_flow.symbols_processed == 0
        assert not vec_flow._started  # empty runs must not consume one-shots
        assert_twin("empty", FlowExecution(compiled), vec_flow)

    def test_report_order_ascending_within_each_step(self):
        """The per-step sid order is part of the bit-identity contract
        (the set path emits ascending sids after the PR-9 determinism
        fix)."""
        compiled = CompiledAutomaton(random_ruleset_automaton(17, num_patterns=5))
        data = bytes(random.Random(17).choice(b"abcdef") for _ in range(512))
        flow = VectorFlowExecution(compiled)
        flow.run(data)
        by_offset: dict[int, list[int]] = {}
        for report in flow.reports:
            by_offset.setdefault(report.offset, []).append(report.element)
        assert any(len(v) > 1 for v in by_offset.values()), (
            "seed must produce multi-report steps"
        )
        for offset, sids in by_offset.items():
            assert sids == sorted(sids), offset
