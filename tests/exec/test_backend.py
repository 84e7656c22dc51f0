"""Execution-backend tests: the process backend is bit-exact against
the serial backend in the cycle domain, worker crashes surface as
:class:`ExecutionError` instead of hangs, and backend resolution
validates its inputs.

The equivalence tests are the backend's contract (ISSUE 4): every
cycle-domain quantity of a :class:`PAPRunResult` — reports, timing
chains, per-segment metrics — must be identical whichever backend ran
the segments.  One module-scoped pool amortizes the spawn cost across
the whole file.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ap.geometry import BoardGeometry
from repro.core.config import PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.automata.random_gen import random_automaton, random_ruleset_automaton
from repro.errors import ConfigurationError, ExecutionError
from repro.exec import (
    BACKEND_NAMES,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.exec.worker import CRASH_ENV
from repro.obs import Tracer


def board(half_cores: int) -> BoardGeometry:
    return BoardGeometry(ranks=1, devices_per_rank=max(1, half_cores // 2))


def fingerprint(result) -> dict:
    """Every cycle-domain quantity a backend could perturb.

    Wall-clock observability (spans, worker pids) is deliberately
    excluded: it is the only thing allowed to differ between backends.
    """
    return {
        "reports": result.reports,
        "enumeration_cycles": result.enumeration_cycles,
        "golden_cycles": result.golden_cycles,
        "truth_times": result.truth_times,
        "tcpu_cycles": result.tcpu_cycles,
        "svc_overflow": result.svc_overflow,
        "segment_metrics": [
            dataclasses.asdict(r.metrics) for r in result.segment_results
        ],
        "final_matched": [c.final_matched for c in result.composed],
        "true_events": [c.true_events for c in result.composed],
    }


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
def test_process_backend_is_bit_exact(pool, seed, data, config):
    """Serial and process backends produce identical PAPRunResults in
    the cycle domain, across random automata, inputs, and configs (both
    FIV dispatch modes are exercised via ``use_fiv``)."""
    automaton = random_ruleset_automaton(seed, num_patterns=4)
    pap = ParallelAutomataProcessor(automaton, config=config)
    serial = pap.run(data, backend=SerialBackend())
    parallel = pap.run(data, backend=pool)
    assert fingerprint(parallel) == fingerprint(serial)


def test_process_backend_corpus(pool):
    """Fixed-seed corpus over adversarial automata — deterministic and
    fast enough for every CI run; hypothesis explores beyond it."""
    rng = random.Random(4)
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
        parallel = pap.run(data, backend=pool)
        assert fingerprint(parallel) == fingerprint(serial), seed


def test_run_accepts_backend_name_and_workers():
    automaton = random_ruleset_automaton(11, num_patterns=3)
    data = bytes(random.Random(11).choice(b"abcdef") for _ in range(256))
    pap = ParallelAutomataProcessor(
        automaton, config=PAPConfig(geometry=board(4))
    )
    serial = pap.run(data)
    with ProcessPoolBackend(workers=2) as backend:
        parallel = pap.run(data, backend=backend)
    assert fingerprint(parallel) == fingerprint(serial)


def test_process_backend_emits_exec_observability(pool):
    automaton = random_ruleset_automaton(7, num_patterns=3)
    data = bytes(random.Random(7).choice(b"abcdef") for _ in range(256))
    tracer = Tracer()
    pap = ParallelAutomataProcessor(
        automaton, config=PAPConfig(geometry=board(4)), observer=tracer
    )
    pap.run(data, backend=pool)
    assert tracer.metrics.gauge("exec.workers").value == 2
    dispatches = tracer.metrics.counter("exec.dispatches").value
    assert dispatches >= 1
    spans = [e for e in tracer.events if e.track == "exec"]
    assert len(spans) == dispatches
    assert all((e.args or {}).get("pid") for e in spans)


def test_worker_crash_surfaces_execution_error(monkeypatch):
    """A worker that dies mid-segment must produce a clear
    ExecutionError naming the segment — never a hang or a bare
    BrokenProcessPool."""
    monkeypatch.setenv(CRASH_ENV, "1")
    automaton = random_ruleset_automaton(3, num_patterns=3)
    data = bytes(random.Random(3).choice(b"abcdef") for _ in range(256))
    pap = ParallelAutomataProcessor(
        automaton, config=PAPConfig(geometry=board(4))
    )
    with ProcessPoolBackend(workers=1) as backend:
        with pytest.raises(ExecutionError, match="worker died"):
            pap.run(data, backend=backend)


class TestResolveBackend:
    def test_default_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)

    def test_process_name_carries_workers(self):
        backend = resolve_backend("process", workers=3)
        try:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.workers == 3
        finally:
            backend.close()

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_instance_rejects_workers_override(self):
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_backend(SerialBackend(), workers=2)

    def test_unknown_name_names_the_valid_ones(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend("threads")
        for name in BACKEND_NAMES:
            assert name in str(excinfo.value)

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(workers=0)
