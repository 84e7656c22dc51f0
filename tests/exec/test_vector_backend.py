"""The vector engine is bit-exact with the set walk in the cycle
domain, on either backend — the extension of the serial/process
equivalence corpus in ``test_backend.py`` to the bit-parallel engine.

Same fingerprint, same property structure: every cycle-domain quantity
of a :class:`PAPRunResult` — reports, timing chains, per-segment
metrics, composition outcomes — must be identical whichever engine
stepped the flows and wherever the segments ran, including runs that
recover from seeded faults or degrade to in-process execution, and the
BENCH cycle payload of :func:`run_benchmark` must be byte-identical so
perf baselines gate every engine interchangeably.  Every comparison
names both engines: the default, ``auto``, picks the vector engine for
these small automata, so leaving one side on the default would compare
the vector engine with itself.

``auto`` itself is pinned on the 19 suite automata: a deterministic
function of the automaton's width that builds no tables to decide.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.random_gen import random_automaton, random_ruleset_automaton
from repro.core.config import PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.automata.vector import AUTO_MAX_LIMBS, ENGINE_NAMES, choose_engine
from repro.core.scheduler import SegmentScheduler
from repro.errors import ConfigurationError
from repro.exec import (
    BACKEND_NAMES,
    FaultPlan,
    FaultSpec,
    ProcessPoolBackend,
    RetryPolicy,
    RunOptions,
    SerialBackend,
    resolve_backend,
)
from repro.obs import Tracer
from repro.obs.tracer import TRACK_RUN
from repro.perf.artifact import BenchmarkRecord
from repro.sim.runner import run_benchmark
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

from tests.exec.test_backend import board, fingerprint

FAST = RetryPolicy(max_retries=3, backoff_base_s=0.0)
SET = RunOptions(engine="set")
VECTOR = RunOptions(engine="vector")


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


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
    """The set and vector engines produce identical PAPRunResults in
    the cycle domain, across random automata, inputs, and configs."""
    automaton = random_ruleset_automaton(seed, num_patterns=4)
    pap = ParallelAutomataProcessor(automaton, config=config)
    serial = pap.run(data, backend=SerialBackend(), options=SET)
    vector = pap.run(data, backend=SerialBackend(), options=VECTOR)
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
        serial = pap.run(data, options=SET)
        vector = pap.run(data, options=VECTOR)
        assert fingerprint(vector) == fingerprint(serial), seed


def test_vector_backend_recovers_seeded_faults_bit_exact():
    """The chaos scenario on the vector engine: seeded transient
    faults across the run, recovered with retries, bit-exact against a
    fault-free set-walk run."""
    automaton = random_ruleset_automaton(23, num_patterns=4)
    data = bytes(random.Random(23).choice(b"abcdef") for _ in range(400))
    pap = ParallelAutomataProcessor(automaton, config=PAPConfig(geometry=board(8)))
    clean = pap.run(data, options=SET)
    recovered = pap.run(
        data,
        options=RunOptions(
            engine="vector",
            retry=FAST,
            faults=FaultPlan.parse("seed=5,rate=0.4,kinds=transient"),
        ),
    )
    assert fingerprint(recovered) == fingerprint(clean)
    assert recovered.health is not None
    assert recovered.health["faults_injected"] > 0


def test_bench_cycle_payload_identical_on_suite_workload():
    """BENCH artifacts gate on the cycle payload; it must be
    byte-identical across engines on a real suite workload."""
    inst = build_benchmark("Bro217", scale=0.25, seed=0)
    serial = run_benchmark(inst, trace_bytes=4096, options=SET)
    vector = run_benchmark(inst, trace_bytes=4096, options=VECTOR)
    assert vector.to_dict() == serial.to_dict()


@pytest.mark.parametrize("use_fiv", [True, False], ids=["fiv", "no-fiv"])
def test_process_backend_vector_engine_is_bit_exact(pool, use_fiv):
    """Pool workers step flows on the run's engine: the vector engine on
    the process backend, with the FIV's pipelined dispatch and without
    it (every segment prefetched), matches the in-process set walk."""
    rng = random.Random(31)
    for _ in range(4):
        seed = rng.randrange(10_000)
        automaton = random_ruleset_automaton(seed, num_patterns=4)
        data = bytes(rng.choice(b"abcdef") for _ in range(300))
        pap = ParallelAutomataProcessor(
            automaton, config=PAPConfig(geometry=board(8), use_fiv=use_fiv)
        )
        serial = pap.run(data, options=SET)
        parallel = pap.run(data, backend=pool, options=VECTOR)
        assert parallel.health["engine"] == "vector"
        assert fingerprint(parallel) == fingerprint(serial), seed


@pytest.mark.parametrize("engine", ["set", "vector"])
def test_degraded_pool_keeps_the_run_engine(engine):
    """A seeded crash ladder that moves execution in-process keeps the
    run's engine: after a vector run degrades, the parent's own
    compiled automaton has built its vector tables (the workers' copies
    are theirs), and after a set-walk run it has not."""
    automaton = random_ruleset_automaton(5, num_patterns=4)
    data = bytes(random.Random(5).choice(b"abcdef") for _ in range(300))
    pap = ParallelAutomataProcessor(
        automaton, config=PAPConfig(geometry=board(4))
    )
    clean = ParallelAutomataProcessor(
        automaton, config=PAPConfig(geometry=board(4))
    ).run(data, options=SET)
    crashes = tuple(
        FaultSpec(segment=index, kind="crash", times=9) for index in (1, 2)
    )
    with ProcessPoolBackend(workers=1) as backend:
        result = pap.run(
            data,
            backend=backend,
            options=RunOptions(
                engine=engine,
                retry=RetryPolicy(max_retries=8, backoff_base_s=0.0),
                faults=FaultPlan(specs=crashes),
            ),
        )
    assert result.health["downgraded"] is True
    assert result.health["engine"] == engine
    assert fingerprint(result) == fingerprint(clean)
    assert (pap.compiled._vector_tables is not None) == (engine == "vector")


class TestResolutionAndValidation:
    def test_vector_is_an_engine_not_a_backend(self):
        """Placement and engine are independent options: ``vector`` is
        no backend name, and either backend takes either engine."""
        assert BACKEND_NAMES == ("serial", "process")
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend("vector")
        assert "serial, process" in str(excinfo.value)
        assert RunOptions(engine="vector").engine == "vector"

    def test_in_process_names_reject_workers(self):
        """A worker count has no pool to size in-process: rejected, not
        silently ignored (as hedging already was)."""
        for name in (None, "serial"):
            with pytest.raises(ConfigurationError, match="workers"):
                resolve_backend(name, workers=4)

    def test_run_accepts_vector_name(self):
        """``vector`` names the engine in :class:`RunOptions`."""
        automaton = random_ruleset_automaton(11, num_patterns=3)
        data = bytes(random.Random(11).choice(b"abcdef") for _ in range(256))
        pap = ParallelAutomataProcessor(
            automaton, config=PAPConfig(geometry=board(4))
        )
        vector = pap.run(data, options=VECTOR)
        assert vector.health["engine_reason"] == "vector: requested"
        assert fingerprint(vector) == fingerprint(pap.run(data, options=SET))

    def test_run_options_reject_unknown_engine(self):
        with pytest.raises(ConfigurationError) as excinfo:
            RunOptions(engine="simd")
        for name in ("auto", "set", "vector"):
            assert name in str(excinfo.value)

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
                engine="simd",
            )
        for name in ENGINE_NAMES:
            assert name in str(excinfo.value)


#: ``auto``'s pick on every suite automaton at scale 0.1: the vector
#: engine up to 32 limbs (all 12 of these have at most 1,136 states, 18
#: limbs), the set walk beyond (at least 2,653 states, 42 limbs).
AUTO_VECTOR = (
    "Bro217", "Dotstar03", "Dotstar06", "Dotstar09", "EntityResolution",
    "ExactMatch", "Hamming", "Levenshtein", "PowerEN1", "Ranges05",
    "Ranges1", "TCP",
)
AUTO_SET = (
    "ClamAV", "Dotstar", "Fermi", "Protomata", "RandomForest", "SPM",
    "Snort",
)


class TestAutoEngine:
    def test_auto_is_the_default(self):
        automaton = random_ruleset_automaton(11, num_patterns=3)
        data = bytes(random.Random(11).choice(b"abcdef") for _ in range(256))
        result = ParallelAutomataProcessor(automaton).run(data)
        assert RunOptions().engine == "auto"
        assert result.health["engine"] == "vector"
        assert result.health["engine_reason"] == "vector: 1 limbs <= 32"

    def test_width_rule_boundary(self):
        top = AUTO_MAX_LIMBS * 64
        assert choose_engine("auto", top) == (
            "vector", f"vector: 32 limbs <= {AUTO_MAX_LIMBS}"
        )
        assert choose_engine("auto", top + 1) == (
            "set", f"set: 33 limbs > {AUTO_MAX_LIMBS}"
        )
        for engine in ENGINE_NAMES:
            assert choose_engine(engine, top + 1) == (
                engine, f"{engine}: requested"
            )

    def test_pick_pinned_on_the_suite(self):
        """The rule's verdict on every suite automaton, built the way
        the benchmarks build them; deciding builds no vector tables."""
        assert sorted(AUTO_VECTOR + AUTO_SET) == sorted(BENCHMARK_NAMES)
        picks = {}
        for name in BENCHMARK_NAMES:
            automaton = build_benchmark(name, scale=0.1, seed=0).automaton
            picks[name] = choose_engine("auto", automaton.num_states)[0]
        assert picks == {
            **{name: "vector" for name in AUTO_VECTOR},
            **{name: "set" for name in AUTO_SET},
        }

    def test_choice_recorded_beside_the_cycles(self):
        """Engine and reason ride in health, in an ``engine`` instant on
        the run track and in the BENCH record's telemetry, never in its
        gated cycle payload."""
        tracer = Tracer()
        run = run_benchmark(
            build_benchmark("Bro217", scale=0.05, seed=0),
            trace_bytes=2048,
            observer=tracer,
        )
        reason = "vector: 2 limbs <= 32"
        assert run.pap.health["engine_reason"] == reason
        [instant] = [e for e in tracer.events if e.name == "engine"]
        assert instant.track == TRACK_RUN
        assert instant.args == {
            "engine": "vector", "reason": reason, "requested": "auto"
        }
        record = BenchmarkRecord.from_run(run)
        assert record.telemetry["engine"] == "vector"
        assert record.telemetry["engine_reason"] == reason
        assert not any("engine" in key for key in record.cycles)

    def test_set_pick_builds_no_vector_tables(self):
        """An ``auto`` run that picks the set walk never compiles vector
        tables, so a wide automaton pays nothing for the option."""
        inst = build_benchmark("Snort", scale=0.1, seed=0)
        pap = ParallelAutomataProcessor(
            inst.automaton, half_cores=inst.half_cores
        )
        result = pap.run(inst.trace(2048, 1))
        assert result.health["engine"] == "set"
        assert result.health["engine_reason"] == "set: 42 limbs > 32"
        assert pap.compiled._vector_tables is None
