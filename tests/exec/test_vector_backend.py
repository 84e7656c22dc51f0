"""The vector backend is bit-exact with the serial set-walk backend in
the cycle domain — the PR-9 extension of the serial/process equivalence
corpus in ``test_backend.py`` to the bit-parallel flow strategy.

Same fingerprint, same property structure: every cycle-domain quantity
of a :class:`PAPRunResult` — reports, timing chains, per-segment
metrics, composition outcomes — must be identical whichever strategy
stepped the flows, including runs that recover from seeded faults
(the PR-5 resilience path is strategy-agnostic), and the BENCH cycle
payload of :func:`run_benchmark` must be byte-identical so perf
baselines gate both backends interchangeably.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.random_gen import random_automaton, random_ruleset_automaton
from repro.core.config import PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.core.scheduler import SegmentScheduler, STRATEGY_NAMES
from repro.errors import ConfigurationError
from repro.exec import (
    FaultPlan,
    RetryPolicy,
    RunOptions,
    SerialBackend,
    resolve_backend,
)
from repro.sim.runner import run_benchmark
from repro.workloads.suite import build_benchmark

from tests.exec.test_backend import board, fingerprint

FAST = RetryPolicy(max_retries=3, backoff_base_s=0.0)


configs = st.builds(
    PAPConfig,
    geometry=st.sampled_from([board(2), board(4), board(8)]),
    tdm_slice_symbols=st.sampled_from([5, 17, 64]),
    convergence_period_steps=st.sampled_from([1, 3, 10]),
    use_convergence=st.booleans(),
    use_deactivation=st.booleans(),
    use_fiv=st.booleans(),
)

inputs = st.binary(min_size=0, max_size=300).map(
    lambda raw: bytes(b"abcdef"[b % 6] for b in raw)
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000), data=inputs, config=configs)
def test_vector_backend_is_bit_exact(seed, data, config):
    """Serial and vector backends produce identical PAPRunResults in
    the cycle domain, across random automata, inputs, and configs."""
    automaton = random_ruleset_automaton(seed, num_patterns=4)
    pap = ParallelAutomataProcessor(automaton, config=config)
    serial = pap.run(data, backend=SerialBackend())
    vector = pap.run(data, backend=SerialBackend(strategy="vector"))
    assert fingerprint(vector) == fingerprint(serial)


def test_vector_backend_corpus():
    """Fixed-seed corpus over adversarial automata — deterministic and
    fast enough for every CI run; hypothesis explores beyond it."""
    rng = random.Random(9)
    for _ in range(6):
        seed = rng.randrange(10_000)
        automaton = random_automaton(seed, num_states=8, alphabet=b"abc")
        data = bytes(rng.choice(b"abc") for _ in range(200))
        config = PAPConfig(
            geometry=board(4),
            tdm_slice_symbols=rng.choice([3, 9, 33]),
            use_fiv=rng.random() < 0.5,
        )
        pap = ParallelAutomataProcessor(automaton, config=config)
        serial = pap.run(data, backend="serial")
        vector = pap.run(data, backend="vector")
        assert fingerprint(vector) == fingerprint(serial), seed


def test_vector_backend_recovers_seeded_faults_bit_exact():
    """The chaos scenario on the vector strategy: seeded transient
    faults across the run, recovered with retries, bit-exact against a
    fault-free serial run."""
    automaton = random_ruleset_automaton(23, num_patterns=4)
    data = bytes(random.Random(23).choice(b"abcdef") for _ in range(400))
    pap = ParallelAutomataProcessor(automaton, config=PAPConfig(geometry=board(8)))
    clean = pap.run(data, backend="serial")
    recovered = pap.run(
        data,
        backend="vector",
        options=RunOptions(
            retry=FAST,
            faults=FaultPlan.parse("seed=5,rate=0.4,kinds=transient"),
        ),
    )
    assert fingerprint(recovered) == fingerprint(clean)
    assert recovered.health is not None
    assert recovered.health["faults_injected"] > 0


def test_bench_cycle_payload_identical_on_suite_workload():
    """BENCH artifacts gate on the cycle payload; it must be
    byte-identical across strategies on a real suite workload."""
    inst = build_benchmark("Bro217", scale=0.25, seed=0)
    serial = run_benchmark(inst, trace_bytes=4096, backend="serial")
    vector = run_benchmark(inst, trace_bytes=4096, backend="vector")
    assert vector.to_dict() == serial.to_dict()


class TestResolutionAndValidation:
    def test_resolve_vector_backend(self):
        backend = resolve_backend("vector")
        assert isinstance(backend, SerialBackend)
        assert backend.name == "vector"
        assert backend.strategy == "vector"

    def test_in_process_names_reject_workers(self):
        """A worker count has no pool to size in-process: rejected, not
        silently ignored (as hedging already was)."""
        for name in (None, "serial", "vector"):
            with pytest.raises(ConfigurationError, match="workers"):
                resolve_backend(name, workers=4)

    def test_run_accepts_vector_name(self):
        automaton = random_ruleset_automaton(11, num_patterns=3)
        data = bytes(random.Random(11).choice(b"abcdef") for _ in range(256))
        pap = ParallelAutomataProcessor(
            automaton, config=PAPConfig(geometry=board(4))
        )
        assert fingerprint(pap.run(data, backend="vector")) == fingerprint(
            pap.run(data)
        )

    def test_scheduler_rejects_unknown_strategy(self):
        automaton = random_ruleset_automaton(1, num_patterns=2)
        from repro.automata.analysis import AutomatonAnalysis
        from repro.automata.execution import CompiledAutomaton

        with pytest.raises(ConfigurationError) as excinfo:
            SegmentScheduler(
                CompiledAutomaton(automaton),
                AutomatonAnalysis(automaton),
                PAPConfig(geometry=board(2)),
                frozenset(),
                strategy="simd",
            )
        for name in STRATEGY_NAMES:
            assert name in str(excinfo.value)
