"""Speculative dispatch on the process pool.

The pool sends every segment's first attempt before its predecessor is
composed, so a segment with a flow-invalidation vector (FIV) runs
without it, and its result is kept only when ``fiv_time >
finish_cycles``.  The rule is exact: the scheduler reads the FIV
inputs only to apply the FIV, at a slice boundary whose time is at
least ``fiv_time``, and no boundary is later than ``finish_cycles``.
These tests pin the rule on the scheduler itself, then the miss path
(a result sent again with its FIV) end to end: bit-exact, not a
failure, checkpointed only once kept, and hedged speculatively.
"""

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ap.geometry import BoardGeometry
from repro.cli import main
from repro.automata.random_gen import random_ruleset_automaton
from repro.core.config import PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.core.scheduler import SegmentScheduler
from repro.exec import (
    FaultPlan,
    FaultSpec,
    HedgePolicy,
    ProcessPoolBackend,
    RunOptions,
    cycle_fingerprint,
)
from repro.obs import Tracer
from repro.sim.runner import run_benchmark
from repro.workloads.suite import build_benchmark


def board(half_cores: int) -> BoardGeometry:
    return BoardGeometry(ranks=1, devices_per_rank=max(1, half_cores // 2))


configs = st.builds(
    PAPConfig,
    geometry=st.sampled_from([board(2), board(4), board(8)]),
    tdm_slice_symbols=st.sampled_from([5, 17, 64]),
    convergence_period_steps=st.sampled_from([1, 3, 10]),
    use_convergence=st.booleans(),
    use_deactivation=st.booleans(),
)

inputs = st.binary(min_size=1, max_size=300).map(
    lambda raw: bytes(b"abcdef"[b % 6] for b in raw)
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    data=inputs,
    config=configs,
    engine=st.sampled_from(["set", "vector"]),
    draw=st.integers(0, 2**32),
)
def test_result_without_fiv_is_exact_when_fiv_lands_after_finish(
    seed, data, config, engine, draw
):
    """For every non-golden segment and any FIV inputs: when
    ``fiv_time`` is later than the ``finish_cycles`` of the run without
    them, both runs return the same ``SegmentResult``."""
    automaton = random_ruleset_automaton(seed, num_patterns=4)
    pap = ParallelAutomataProcessor(automaton, config=config)
    scheduler = SegmentScheduler(
        pap.compiled,
        pap.analysis,
        config,
        pap.path_independent,
        engine=engine,
    )
    rng = random.Random(draw)
    for plan in pap.plan(data).segments:
        if plan.is_golden:
            continue
        speculative = scheduler.run_segment(data, plan)
        finish = speculative.metrics.finish_cycles
        truth = {
            unit.unit_id: rng.random() < 0.5
            for flow in plan.flows
            for unit in flow.units
        }
        for fiv_time in (finish + 1, rng.randrange(2 * finish + 2)):
            exact = scheduler.run_segment(
                data, plan, unit_truth=truth, fiv_time=fiv_time
            )
            if fiv_time > finish:
                assert exact == speculative, (plan.segment.index, fiv_time)


@pytest.fixture(scope="module")
def snort():
    """Snort at scale 0.05 over 8 KiB modelled as 1 MiB (``repro run``'s
    defaults): the FIV lands inside 3 of its 4 enumerated segments."""
    return build_benchmark("Snort", scale=0.05, seed=0)


def run(bench, **kwargs):
    return run_benchmark(
        bench, trace_bytes=8192, modeled_bytes=1_048_576, **kwargs
    )


@pytest.fixture(scope="module")
def cold(snort):
    return cycle_fingerprint(run(snort).pap)


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


def test_missed_speculation_is_sent_again_in_the_same_attempt(
    snort, cold, pool
):
    """A missed speculation is re-dispatched with its FIV, bit-exact,
    and is not a failure: one attempt per segment, no retry, no fault
    draw.  Health, the metrics series and the ledger all record it."""
    tracer = Tracer()
    result = run(snort, backend=pool, observer=tracer).pap
    assert cycle_fingerprint(result) == cold
    health = result.health
    assert health["speculation_misses"] >= 1
    assert (
        health["speculation_hits"] + health["speculation_misses"]
        == result.num_segments - 1
    )
    assert set(health["attempts"].values()) == {1}
    assert health["retries"] == health["crashes"] == 0
    metrics = tracer.metrics
    assert (
        metrics.counter("exec.speculation_misses").value
        == health["speculation_misses"]
    )
    assert (
        metrics.counter("exec.speculation_hits").value
        == health["speculation_hits"]
    )
    misses = [e for e in tracer.events if e.name == "speculation-miss"]
    assert len(misses) == health["speculation_misses"]
    for miss in misses:
        assert miss.args["fiv_time"] <= miss.args["finish_cycles"]


def test_checkpoint_holds_only_kept_results(snort, cold, pool, tmp_path):
    """A checkpointed pool run with a missed speculation resumes
    bit-exactly on the serial backend, from its file alone."""
    written = run(
        snort, backend=pool, options=RunOptions(checkpoint=str(tmp_path))
    ).pap
    assert written.health["speculation_misses"] >= 1
    resumed = run(
        snort, options=RunOptions(checkpoint=str(tmp_path), resume=True)
    ).pap
    assert cycle_fingerprint(resumed) == cold
    assert resumed.extra["checkpoint"]["hits"] == resumed.num_segments
    assert resumed.extra["checkpoint"]["writes"] == 0


def test_hedged_speculative_dispatch_stays_exact(snort, cold):
    """A hedge copy of a dispatch sent without its FIV is sent without
    it too, so whichever copy wins, the rule decides as for one copy."""
    last = run(snort).pap.num_segments - 1
    faults = FaultPlan(
        specs=(FaultSpec(segment=last, kind="straggler"),), straggler_s=0.5
    )
    backend = ProcessPoolBackend(
        workers=2, hedge=HedgePolicy(mad_multiplier=1e-6)
    )
    try:
        result = run(
            snort, backend=backend, options=RunOptions(faults=faults)
        ).pap
    finally:
        backend.close()
    assert cycle_fingerprint(result) == cold
    assert result.health["hedges"] >= 1
    assert result.health["retries"] == 0


def test_run_summary_prints_speculation_on_pool_runs(capsys):
    argv = ["run", "Snort", "--scale", "0.05", "--trace-bytes", "8192"]
    assert main(argv + ["--backend", "process", "--workers", "2"]) == 0
    assert re.search(
        r"^speculation +: 1 kept, 3 sent again with their FIV$",
        capsys.readouterr().out,
        re.MULTILINE,
    )
    assert main(argv) == 0
    assert "speculation" not in capsys.readouterr().out
