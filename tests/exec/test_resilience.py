"""Resilience tests: the fault matrix the recovery machinery must
survive, on both backends.

The heart is the bit-exactness acceptance: a run that crashed, timed
out, retried, or degraded to serial execution must produce a
:class:`PAPRunResult` whose cycle-domain fingerprint is *identical* to
a fault-free run's — recovery is verifiable, not best-effort.  Around
it sit the policy unit tests (retry budget, backoff), the
health accounting, and the pool-rebuild regression for crashed worker
pools."""

import multiprocessing
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.automata.random_gen import random_automaton, random_ruleset_automaton
from repro.errors import (
    ConfigurationError,
    ExecutionError,
    TransientSegmentError,
)
from repro.exec import (
    FaultPlan,
    ProcessPoolBackend,
    RetryPolicy,
    RunHealth,
    RunOptions,
)
from repro.exec.faults import FaultSpec
from repro.exec.resilience import run_with_retry
from repro.obs import Tracer
from repro.obs.tracer import NULL_OBSERVER
from repro.sim.runner import run_benchmark
from repro.workloads.suite import build_benchmark
from tests.exec.test_backend import board, fingerprint

FAST = RetryPolicy(max_retries=3, backoff_base_s=0.0)


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


def small_pap(seed=5, patterns=4):
    automaton = random_ruleset_automaton(seed, num_patterns=patterns)
    return ParallelAutomataProcessor(
        automaton, config=PAPConfig(geometry=board(4))
    )


def trace(seed=5, size=300):
    return bytes(random.Random(seed).choice(b"abcdef") for _ in range(size))


class TestRetryPolicy:
    def test_defaults_are_fail_fast(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert policy.segment_timeout_s is None

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_retries=9, backoff_base_s=0.1)
        delays = [policy.delay_s(n) for n in range(1, 8)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"segment_timeout_s": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestRunWithRetry:
    def test_success_needs_no_policy(self):
        health = RunHealth()
        result = run_with_retry(
            RetryPolicy(), health, NULL_OBSERVER, 0, lambda: 42
        )
        assert result == 42
        assert health.attempts == {0: 1}
        assert health.clean

    def test_retry_then_succeed(self):
        health = RunHealth()
        outcomes = iter(
            [TransientSegmentError("flaky"), TransientSegmentError("flaky"), 7]
        )

        def attempt():
            value = next(outcomes)
            if isinstance(value, Exception):
                raise value
            return value

        slept = []
        result = run_with_retry(
            RetryPolicy(max_retries=3, backoff_base_s=0.1),
            health,
            NULL_OBSERVER,
            4,
            attempt,
            sleep=slept.append,
        )
        assert result == 7
        assert health.attempts == {4: 3}
        assert health.retries == 2
        assert slept == [0.1, 0.2]

    def test_exhaustion_names_segment_and_attempts(self):
        health = RunHealth()

        def attempt():
            raise TransientSegmentError("always broken")

        with pytest.raises(
            ExecutionError,
            match=r"segment 9 failed after 3 attempt\(s\) \(retries exhausted\)",
        ):
            run_with_retry(
                RetryPolicy(max_retries=2, backoff_base_s=0.0),
                health,
                NULL_OBSERVER,
                9,
                attempt,
            )
        assert health.attempts == {9: 3}

    def test_non_retryable_errors_propagate_immediately(self):
        health = RunHealth()

        def attempt():
            raise ConfigurationError("not a fault")

        with pytest.raises(ConfigurationError):
            run_with_retry(FAST, health, NULL_OBSERVER, 0, attempt)
        assert health.attempts == {0: 1}
        assert health.retries == 0

    def test_on_failure_fires_even_on_the_exhausting_attempt(self):
        seen = []

        def attempt():
            raise TransientSegmentError("nope")

        with pytest.raises(ExecutionError):
            run_with_retry(
                RetryPolicy(max_retries=1, backoff_base_s=0.0),
                RunHealth(),
                NULL_OBSERVER,
                0,
                attempt,
                on_failure=lambda error: seen.append(type(error).__name__),
            )
        assert seen == ["TransientSegmentError", "TransientSegmentError"]


class TestRunHealth:
    def test_to_dict_shape(self):
        health = RunHealth()
        health.record_attempt(0)
        health.record_attempt(1)
        health.record_attempt(1)
        health.retries = 1
        health.injected = [{"segment": 1, "attempt": 1, "kind": "transient"}]
        payload = health.to_dict()
        assert payload["attempts"] == {"0": 1, "1": 2}
        assert payload["total_attempts"] == 3
        assert payload["retries"] == 1
        assert payload["faults_injected"] == 1
        assert payload["downgraded"] is False

    def test_clean(self):
        assert RunHealth().clean
        dirty = RunHealth()
        dirty.retries = 1
        assert not dirty.clean


class TestSerialRecovery:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        automaton_seed=st.integers(0, 10_000),
        fault_seed=st.integers(0, 10_000),
        rate=st.floats(0.1, 0.9),
    )
    def test_recovered_runs_are_bit_exact(
        self, automaton_seed, fault_seed, rate
    ):
        """The acceptance property: injected transient faults plus
        retries yield a PAPRunResult identical to the fault-free run in
        every cycle-domain quantity."""
        automaton = random_automaton(
            automaton_seed, num_states=8, alphabet=b"abc"
        )
        pap = ParallelAutomataProcessor(
            automaton, config=PAPConfig(geometry=board(4))
        )
        data = bytes(
            random.Random(automaton_seed).choice(b"abc") for _ in range(200)
        )
        clean = pap.run(data)
        faults = FaultPlan(
            seed=fault_seed,
            rate=rate,
            kinds=("transient", "svc_exhaustion", "fiv_write"),
        )
        recovered = pap.run(data, options=RunOptions(retry=FAST, faults=faults))
        assert fingerprint(recovered) == fingerprint(clean)
        health = recovered.health
        assert health["retries"] == health["faults_injected"]

    def test_modeled_crash_and_hang_recover_inline(self):
        pap = small_pap()
        data = trace()
        clean = pap.run(data)
        recovered = pap.run(
            data,
            options=RunOptions(
                retry=FAST,
                faults=FaultPlan(
                    specs=(
                        FaultSpec(segment=1, kind="crash"),
                        FaultSpec(segment=2, kind="hang"),
                    )
                ),
            ),
        )
        assert fingerprint(recovered) == fingerprint(clean)
        assert recovered.health["crashes"] == 1
        assert recovered.health["timeouts"] == 1

    def test_retry_exhausted_raises(self):
        pap = small_pap()
        with pytest.raises(
            ExecutionError, match=r"segment 1 failed after 2 attempt\(s\)"
        ):
            pap.run(
                trace(),
                options=RunOptions(
                    retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
                    faults=FaultPlan(
                        specs=(FaultSpec(segment=1, kind="transient", times=5),)
                    ),
                ),
            )

    def test_default_policy_is_fail_fast(self):
        pap = small_pap()
        with pytest.raises(ExecutionError, match="after 1 attempt"):
            pap.run(
                trace(),
                options=RunOptions(
                    faults=FaultPlan(
                        specs=(FaultSpec(segment=1, kind="transient"),)
                    )
                ),
            )

    @pytest.mark.parametrize(
        "engine", ["set", "vector"], ids=["serial", "vector"]
    )
    def test_segment_timeout_rejected_in_process(self, engine):
        """Nothing can interrupt an in-process segment: a timeout there
        is refused before the run, not silently ignored, whichever
        engine steps the flows."""
        with pytest.raises(ConfigurationError, match="segment timeout"):
            small_pap().run(
                trace(),
                backend="serial",
                options=RunOptions(
                    engine=engine,
                    retry=RetryPolicy(segment_timeout_s=1.0),
                ),
            )

    def test_rejected_timeout_keeps_the_checkpoint(self, tmp_path):
        """The rejection comes before the checkpoint opens, so a later
        resume still finds every segment the earlier run wrote."""
        pap = small_pap()
        data = trace()
        first = pap.run(data, options=RunOptions(checkpoint=str(tmp_path)))
        with pytest.raises(ConfigurationError):
            pap.run(
                data,
                options=RunOptions(
                    retry=RetryPolicy(segment_timeout_s=1.0),
                    checkpoint=str(tmp_path),
                ),
            )
        resumed = pap.run(
            data, options=RunOptions(checkpoint=str(tmp_path), resume=True)
        )
        assert resumed.extra["checkpoint"]["hits"] == first.num_segments
        assert resumed.extra["checkpoint"]["writes"] == 0

    def test_health_surfaces_in_result_and_metrics(self):
        tracer = Tracer()
        automaton = random_ruleset_automaton(5, num_patterns=4)
        pap = ParallelAutomataProcessor(
            automaton, config=PAPConfig(geometry=board(4)), observer=tracer
        )
        result = pap.run(
            trace(),
            options=RunOptions(
                retry=FAST,
                faults=FaultPlan(
                    specs=(FaultSpec(segment=1, kind="transient"),)
                ),
            ),
        )
        health = result.health
        assert health["retries"] == 1
        assert health["faults_injected"] == 1
        assert health["injected_faults"] == [
            {"segment": 1, "attempt": 1, "kind": "transient"}
        ]
        assert tracer.metrics.counter("exec.retries").value == 1
        assert tracer.metrics.counter("exec.faults_injected").value == 1
        names = {e.name for e in tracer.events if e.track == "exec"}
        assert "segment-retry" in names
        assert "fault-injected" in names


class TestProcessRecovery:
    def test_crash_retry_is_bit_exact(self, pool):
        """A real worker crash (os._exit in the child) breaks the pool;
        the retry rebuilds it and the run finishes bit-exactly."""
        pap = small_pap()
        data = trace()
        clean = pap.run(data)
        recovered = pap.run(
            data,
            backend=pool,
            options=RunOptions(
                retry=FAST,
                faults=FaultPlan(specs=(FaultSpec(segment=1, kind="crash"),)),
            ),
        )
        assert fingerprint(recovered) == fingerprint(clean)
        assert recovered.health["crashes"] >= 1
        assert not recovered.health["downgraded"]

    def test_fiv_chain_survives_mid_chain_retry(self, pool):
        """With use_fiv=True the pipelined Section 3.4 chain must resume
        with the same composed-predecessor inputs after a mid-chain
        failure."""
        automaton = random_ruleset_automaton(8, num_patterns=4)
        config = PAPConfig(geometry=board(4), use_fiv=True)
        pap = ParallelAutomataProcessor(automaton, config=config)
        data = trace(8, 400)
        clean = pap.run(data)
        recovered = pap.run(
            data,
            backend=pool,
            options=RunOptions(
                retry=FAST,
                faults=FaultPlan(
                    specs=(
                        FaultSpec(segment=2, kind="fiv_write"),
                        FaultSpec(segment=3, kind="transient", times=2),
                    )
                ),
            ),
        )
        assert fingerprint(recovered) == fingerprint(clean)

    def test_seeded_crash_storm_recovers(self, pool):
        """The chaos-CI scenario: seeded crash/transient faults across
        the whole run, recovered with retries, bit-exact."""
        pap = small_pap()
        data = trace()
        clean = pap.run(data)
        recovered = pap.run(
            data,
            backend=pool,
            options=RunOptions(
                retry=FAST,
                faults=FaultPlan.parse("seed=3,rate=0.4,kinds=crash+transient"),
            ),
        )
        assert fingerprint(recovered) == fingerprint(clean)
        assert recovered.health["faults_injected"] > 0

    def test_backend_usable_after_crashed_run(self):
        """Pool-rebuild regression: a run that ends with a broken pool
        (crash, no retries) must not poison the backend instance — the
        next run on it rebuilds the pool and succeeds."""
        pap = small_pap()
        data = trace()
        clean = pap.run(data)
        with ProcessPoolBackend(workers=1) as backend:
            with pytest.raises(ExecutionError):
                pap.run(
                    data,
                    backend=backend,
                    options=RunOptions(
                        faults=FaultPlan(
                            specs=(FaultSpec(segment=1, kind="crash"),)
                        )
                    ),
                )
            again = pap.run(data, backend=backend)
            assert fingerprint(again) == fingerprint(clean)

    def test_hang_trips_segment_timeout(self):
        """An injected hang exceeds the dispatch timeout: the pool is
        recycled, the retry succeeds, and the timeout is recorded.  The
        hung worker is terminated with its pool, so only the rebuilt
        pool's worker is left running (a live one would hold the
        interpreter's exit for the whole 30 s hang)."""
        pap = small_pap()
        data = trace()
        clean = pap.run(data)
        before = {child.pid for child in multiprocessing.active_children()}
        with ProcessPoolBackend(workers=1) as backend:
            recovered = pap.run(
                data,
                backend=backend,
                options=RunOptions(
                    retry=RetryPolicy(
                        max_retries=2, backoff_base_s=0.0, segment_timeout_s=0.5
                    ),
                    faults=FaultPlan(
                        specs=(FaultSpec(segment=1, kind="hang"),), hang_s=30.0
                    ),
                ),
            )
            deadline = time.monotonic() + 5.0
            while True:
                started = {
                    child.pid for child in multiprocessing.active_children()
                } - before
                if len(started) <= backend.workers:
                    break
                assert time.monotonic() < deadline, (
                    f"{len(started)} workers alive after the timeout"
                )
                time.sleep(0.05)
        assert fingerprint(recovered) == fingerprint(clean)
        assert recovered.health["timeouts"] >= 1

    def test_forced_downgrade_completes_serially(self):
        """Acceptance: persistent worker crashes degrade the run to
        serial execution, which finishes bit-exactly with
        health["downgraded"] set."""
        pap = small_pap()
        data = trace()
        clean = pap.run(data)
        with ProcessPoolBackend(workers=1) as backend:
            result = pap.run(
                data,
                backend=backend,
                options=RunOptions(
                    retry=RetryPolicy(max_retries=8, backoff_base_s=0.0),
                    faults=FaultPlan(
                        specs=(
                            FaultSpec(segment=1, kind="crash", times=9),
                            FaultSpec(segment=2, kind="crash", times=9),
                        )
                    ),
                ),
            )
        assert fingerprint(result) == fingerprint(clean)
        health = result.health
        assert health["downgraded"] is True
        assert health["downgraded_at_segment"] is not None
        assert "consecutive" in health["downgrade_reason"]

    def test_downgrade_disabled_exhausts_instead(self):
        """Retries that run out before the ladder's third rung fail the
        run: degradation is a rung of the ladder, not a free retry."""
        pap = small_pap()
        with ProcessPoolBackend(workers=1) as backend:
            with pytest.raises(ExecutionError, match="retries exhausted"):
                pap.run(
                    trace(),
                    backend=backend,
                    options=RunOptions(
                        retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
                        faults=FaultPlan(
                            specs=(FaultSpec(segment=1, kind="crash", times=9),)
                        ),
                    ),
                )


class TestBenchCycleStability:
    def test_bench_cycles_identical_under_faults(self):
        """The chaos gate's contract: BenchmarkRun.to_dict()["cycles"]
        is bit-identical between a fault-free run and a recovered one,
        so a chaos artifact compares clean against the normal baseline."""
        bench = build_benchmark("Bro217", scale=0.05, seed=0)
        kwargs = dict(ranks=1, trace_bytes=4096, trace_seed=1)
        clean = run_benchmark(bench, **kwargs)
        chaotic = run_benchmark(
            bench,
            options=RunOptions(
                retry=FAST,
                faults=FaultPlan.parse("seed=7,rate=0.3,kinds=transient"),
            ),
            **kwargs,
        )
        assert chaotic.to_dict()["cycles"] == clean.to_dict()["cycles"]
        assert chaotic.pap.health["faults_injected"] > 0
