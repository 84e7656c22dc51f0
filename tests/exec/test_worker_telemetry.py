"""Worker-side telemetry capture and merge (repro.obs.remote).

Two contracts under test.  First, the merge is loss-free and
order-safe: every record a worker ships lands in the parent tracer
exactly once, with pid/parent-span lineage, whatever order batches
arrive in — including under injected faults and retries, where only
successful attempts ship batches.  Second, telemetry never perturbs
the simulation: cycle fingerprints and phase totals are identical
whichever backend ran the segments, captured or not.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ap.geometry import BoardGeometry
from repro.automata.random_gen import random_ruleset_automaton
from repro.core.config import PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.exec import FaultPlan, ProcessPoolBackend, RetryPolicy, RunOptions
from repro.exec.worker import RunPayload, run_segment_task
from repro.obs import Tracer, verify_phase_totals
from repro.obs.remote import (
    ARG_PARENT_SPAN,
    ARG_PID,
    BATCH_MARKER,
    RecordingObserver,
    merge_batch,
    worker_track,
)


def board(half_cores: int) -> BoardGeometry:
    return BoardGeometry(ranks=1, devices_per_rank=max(1, half_cores // 2))


def trace(seed=5, size=300):
    return bytes(random.Random(seed).choice(b"abcdef") for _ in range(size))


def small_pap(seed=5, patterns=4, observer=None):
    return ParallelAutomataProcessor(
        random_ruleset_automaton(seed, num_patterns=patterns),
        config=PAPConfig(geometry=board(4)),
        observer=observer,
    )


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


def make_batch(rng: random.Random, pid: int):
    """Drive a real RecordingObserver and re-stamp its pid."""
    recorder = RecordingObserver()
    for i in range(rng.randrange(1, 6)):
        span = recorder.begin_span(f"work{i}", track="seg0", cycle=i * 10)
        recorder.instant(f"mark{i}", track="seg0", cycle=i * 10 + 1)
        recorder.counter("flows", rng.randrange(8), track="seg0")
        recorder.metrics.counter("vector.limb_cache.misses").inc(
            rng.randrange(4)
        )
        recorder.end_span(span, cycle=i * 10 + 5)
    batch = recorder.to_batch(
        compile_hit=rng.random() < 0.5, compile_wall_ns=rng.randrange(1000)
    )
    return dataclasses.replace(batch, pid=pid)


class TestMergeProperties:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 10_000), order_seed=st.integers(0, 10_000))
    def test_merge_is_loss_free_and_order_safe(self, seed, order_seed):
        rng = random.Random(seed)
        batches = [
            make_batch(rng, pid=1000 + i) for i in range(rng.randrange(1, 5))
        ]
        shipped = sum(len(b.events) for b in batches)

        def merged(ordering):
            tracer = Tracer()
            spans = {}
            for batch in ordering:
                spans[batch.pid] = tracer.begin_span(
                    f"dispatch[{batch.pid}]", track="exec"
                )
            for batch in ordering:
                tracer.end_span(spans[batch.pid])
                merge_batch(
                    tracer, batch, span=spans[batch.pid], segment=0
                )
            return tracer

        tracer = merged(batches)
        shuffled = list(batches)
        random.Random(order_seed).shuffle(shuffled)
        other = merged(shuffled)

        worker_events = [
            e for e in tracer.events if e.track.startswith("pid")
        ]
        # Loss-free: every shipped record arrives, plus one batch
        # marker per batch; every record carries full lineage.
        markers = [e for e in worker_events if e.name == BATCH_MARKER]
        assert len(worker_events) == shipped + len(batches)
        assert len(markers) == len(batches)
        for event in worker_events:
            assert event.args[ARG_PID] >= 1000
            assert event.args[ARG_PARENT_SPAN] >= 0
            assert event.track == worker_track(
                event.args[ARG_PID], event.track.split(":", 1)[1]
            )
        assert tracer.metrics.counter("worker.batches").value == len(batches)
        assert tracer.metrics.counter("worker.records").value == shipped

        # Order-safe: arrival order never changes what was merged.
        def payload(t):
            return sorted(
                (e.name, e.track, e.kind, e.cycle_start)
                for e in t.events
                if e.track.startswith("pid")
            )

        assert payload(other) == payload(tracer)
        assert (
            other.metrics.counter("worker.records").value
            == tracer.metrics.counter("worker.records").value
        )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 10_000))
    def test_rebased_events_land_inside_dispatch_span(self, seed):
        batch = make_batch(random.Random(seed), pid=77)
        tracer = Tracer()
        span = tracer.begin_span("dispatch[0]", track="exec")
        tracer.end_span(span)
        merge_batch(tracer, batch, span=span, segment=0)
        anchor = tracer.events[span].wall_end_ns
        for event in tracer.events:
            # The batch marker is stamped at merge time on the parent
            # clock; only the shipped records themselves are re-based.
            if not event.track.startswith("pid") or (
                event.name == BATCH_MARKER
            ):
                continue
            assert event.wall_start_ns <= anchor
            if event.wall_end_ns is not None:
                assert event.wall_end_ns <= anchor

    def test_merge_none_batch_is_a_no_op(self):
        tracer = Tracer()
        merge_batch(tracer, None, span=0, segment=0)
        assert tracer.events == []


class TestWorkerCapture:
    def test_capture_off_ships_no_batch(self):
        """Un-observed runs ship no extra pickles: without ``capture``
        the task result carries no batch at all."""
        pap = small_pap()
        data = trace(size=120)
        plan = pap.plan(data).segments[0]
        payload = RunPayload(
            automaton=pap.automaton,
            config=pap.config,
            path_independent=pap.path_independent,
            data=data,
        )
        result = run_segment_task("tok-off", payload, plan, None, None)
        assert result.batch is None

    def test_process_run_ships_batches_with_lineage(self, pool):
        tracer = Tracer()
        pap = small_pap(observer=tracer)
        pap.run(trace(), backend=pool)
        dispatches = tracer.metrics.counter("exec.dispatches").value
        markers = [e for e in tracer.events if e.name == BATCH_MARKER]
        assert len(markers) == dispatches
        assert tracer.metrics.counter("worker.batches").value == dispatches
        hits = tracer.metrics.counter("worker.compile_hits").value
        misses = tracer.metrics.counter("worker.compile_misses").value
        assert hits + misses == dispatches
        assert misses >= 1  # every worker compiles at least once
        for event in tracer.events:
            if event.track.startswith("pid"):
                assert event.args[ARG_PID] > 0
                assert event.args[ARG_PARENT_SPAN] >= 0

    def test_limb_cache_metrics_in_process_and_merged(self, pool):
        """The vector engine's limb cache reports itself: in-process
        under ``vector.limb_cache.*`` (the counts every segment added,
        summing to the tables' own), and from pool workers merged under
        ``worker.``; the set walk publishes none of it."""
        names = ("misses", "entries", "bytes")
        tracer = Tracer()
        pap = small_pap(observer=tracer)
        pap.run(trace(), options=RunOptions(engine="vector"))
        tables = pap.compiled.vector_tables()
        stats = tables.limb_cache_stats()
        assert stats["misses"] > 0 and stats["exhausted"] == 0
        for name in names:
            counter = tracer.metrics.counter(f"vector.limb_cache.{name}")
            assert counter.value == stats[name], name
        assert tracer.metrics.gauge("vector.limb_cache.exhausted").value == 0

        pooled = Tracer()
        small_pap(observer=pooled).run(
            trace(), backend=pool, options=RunOptions(engine="vector")
        )
        snapshot = pooled.metrics.snapshot()
        assert snapshot["worker.vector.limb_cache.misses"]["value"] > 0
        assert not any(key.startswith("vector.") for key in snapshot)

        walked = Tracer()
        small_pap(observer=walked).run(
            trace(), options=RunOptions(engine="set")
        )
        assert not any("limb_cache" in key for key in walked.metrics.snapshot())

    def test_worker_cache_hit_skips_recompile(self):
        """Direct worker-entry check of the one-slot cache counters:
        same token -> hit with zero compile wall, new token -> miss."""
        pap = small_pap()
        data = trace(size=120)
        plan = pap.plan(data).segments[0]
        payload = RunPayload(
            automaton=pap.automaton,
            config=pap.config,
            path_independent=pap.path_independent,
            data=data,
        )
        first = run_segment_task(
            "tok-a", payload, plan, None, None, capture=True
        )
        second = run_segment_task(
            "tok-a", payload, plan, None, None, capture=True
        )
        assert first.batch.compile_hit is False
        assert first.batch.compile_wall_ns > 0
        assert second.batch.compile_hit is True
        assert second.batch.compile_wall_ns == 0


configs = st.builds(
    PAPConfig,
    geometry=st.sampled_from([board(2), board(4), board(8)]),
    tdm_slice_symbols=st.sampled_from([5, 17, 64]),
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
def test_phase_totals_match_across_backends(pool, seed, data, config):
    """Phase attribution is a pure function of the cycle accounting, so
    it must be bit-identical whichever backend ran the segments — and
    pass the exactness proof on both."""
    automaton = random_ruleset_automaton(seed, num_patterns=4)
    serial = ParallelAutomataProcessor(automaton, config=config).run(data)
    parallel = ParallelAutomataProcessor(
        automaton, config=config, observer=Tracer()
    ).run(data, backend=pool)
    assert verify_phase_totals(serial)
    assert verify_phase_totals(parallel)
    assert serial.phases["cycles"] == parallel.phases["cycles"]
    assert serial.phases["per_segment"] == [
        {k: v for k, v in entry.items() if k != "wall_ns"}
        for entry in parallel.phases["per_segment"]
    ]


#: Series no run record holds (what the host did: dispatches, pool
#: width, the per-process limb cache, worker batches, drift checks),
#: plus the recovery series, which a resumed run changes by design.
NOT_CYCLE_DOMAIN = ("exec.", "worker.", "vector.", "drift.")


@pytest.mark.parametrize(
    "use_deactivation, dynamic",
    [(True, "flows.deactivated"), (False, "flows.converged")],
)
def test_cycle_series_match_across_backends_engines_and_resume(
    pool, tmp_path, use_deactivation, dynamic
):
    """The cycle-domain series are derived from the run's records, so
    a pool run, either engine and a run replayed from its checkpoint
    export the same names and values as a serial run."""
    automaton = random_ruleset_automaton(
        0, num_patterns=4, min_length=1, max_length=3
    )
    data = trace(seed=0, size=400)
    config = PAPConfig(
        geometry=board(4),
        use_deactivation=use_deactivation,
        convergence_period_steps=1,
        tdm_slice_symbols=17,
    )

    def cycle_series(backend=None, **options):
        tracer = Tracer()
        ParallelAutomataProcessor(
            automaton, config=config, observer=tracer
        ).run(data, backend=backend, options=RunOptions(**options))
        return {
            name: payload
            for name, payload in tracer.metrics.snapshot().items()
            if not name.startswith(NOT_CYCLE_DOMAIN)
        }

    serial = cycle_series(checkpoint=str(tmp_path))
    for name in ("flows.spawned", "events.pushed", dynamic, "pap.runs"):
        assert serial[name]["value"] > 0, name
    assert serial["segment.finish_cycles"]["count"] > 1
    others = {
        "process": cycle_series(pool),
        "set": cycle_series(engine="set"),
        "vector": cycle_series(engine="vector"),
        "resumed": cycle_series(checkpoint=str(tmp_path), resume=True),
    }
    for way, series in others.items():
        assert series == serial, way


class TestMergeUnderFaults:
    def test_retried_run_merges_loss_free(self, pool):
        """Crash + transient faults with retries: the run recovers
        bit-exact, and the merged timeline still carries exactly one
        batch per successful dispatch with full lineage (failed
        attempts ship nothing — the task raised)."""
        data = trace(seed=9)
        baseline = small_pap(seed=9).run(data)
        tracer = Tracer()
        result = small_pap(seed=9, observer=tracer).run(
            data,
            backend=pool,
            options=RunOptions(
                retry=RetryPolicy(max_retries=3, backoff_base_s=0.0),
                faults=FaultPlan.parse("1:crash,2:transient"),
            ),
        )
        assert result.reports == baseline.reports
        assert result.enumeration_cycles == baseline.enumeration_cycles
        health = result.extra["health"]
        assert health["crashes"] >= 1 and health["retries"] >= 2
        markers = [e for e in tracer.events if e.name == BATCH_MARKER]
        segments = {e.args["segment"] for e in markers}
        assert segments == set(range(result.num_segments))
        # One batch per *successful* dispatch; each is parented by a
        # live dispatch span and counted exactly once.
        assert (
            tracer.metrics.counter("worker.batches").value == len(markers)
        )
        for marker in markers:
            parent = tracer.events[marker.args[ARG_PARENT_SPAN]]
            assert parent.name.startswith("dispatch[")
            assert marker.args[ARG_PID] > 0

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 1_000))
    def test_seeded_fault_rates_keep_merge_consistent(self, pool, seed):
        data = trace(seed=seed, size=200)
        tracer = Tracer()
        pap = small_pap(seed=seed, observer=tracer)
        baseline = small_pap(seed=seed).run(data)
        result = pap.run(
            data,
            backend=pool,
            options=RunOptions(
                retry=RetryPolicy(max_retries=4, backoff_base_s=0.0),
                faults=FaultPlan.parse(
                    f"seed={seed},rate=0.2,kinds=transient"
                ),
            ),
        )
        assert result.reports == baseline.reports
        markers = [e for e in tracer.events if e.name == BATCH_MARKER]
        shipped = sum(e.args["records"] for e in markers)
        worker_events = [
            e
            for e in tracer.events
            if e.track.startswith("pid") and e.name != BATCH_MARKER
        ]
        assert len(worker_events) == shipped
