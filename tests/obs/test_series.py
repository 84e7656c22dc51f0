"""Record-derived metrics series (repro.obs.series).

An observed run publishes its cycle-domain and recovery series from
its own records, so what it exports is a function of the result it
returns: :func:`result_series` rebuilds the same series from the
result alone, and every count equals the record it is derived from.
"""

import random

import pytest

from repro.ap.geometry import BoardGeometry
from repro.automata.random_gen import random_ruleset_automaton
from repro.core.config import PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.exec import FaultPlan, RetryPolicy, RunOptions
from repro.obs import NULL_REGISTRY, Tracer
from repro.obs.openmetrics import parse_openmetrics, render_openmetrics
from repro.obs.series import (
    publish_health,
    publish_run,
    publish_segment,
    result_series,
)

#: Series no run record holds (see the repro.obs.series docstring).
HOST = ("exec.dispatches", "exec.workers", "vector.", "worker.", "drift.")


def traced_run(use_deactivation, options=RunOptions()):
    tracer = Tracer()
    pap = ParallelAutomataProcessor(
        random_ruleset_automaton(0, num_patterns=4, min_length=1, max_length=3),
        config=PAPConfig(
            geometry=BoardGeometry(ranks=1, devices_per_rank=2),
            use_deactivation=use_deactivation,
            convergence_period_steps=1,
            tdm_slice_symbols=17,
        ),
        observer=tracer,
    )
    data = bytes(random.Random(0).choice(b"abcdef") for _ in range(400))
    return pap, pap.run(data, options=options), tracer


@pytest.mark.parametrize("use_deactivation", [True, False])
def test_observed_series_are_the_result_series(use_deactivation):
    _, result, tracer = traced_run(
        use_deactivation,
        RunOptions(
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.0),
            faults=FaultPlan.parse("1:transient"),
        ),
    )
    observed = {
        name: payload
        for name, payload in tracer.metrics.snapshot().items()
        if not name.startswith(HOST)
    }
    assert observed == result_series(result).snapshot()
    assert observed["exec.retries"]["value"] == 1
    assert observed["exec.faults_injected"]["value"] == 1
    assert observed["exec.attempts_per_segment"]["max"] == 2


@pytest.mark.parametrize("use_deactivation", [True, False])
def test_counts_equal_their_records(use_deactivation):
    pap, result, _ = traced_run(use_deactivation)
    series = result_series(result).snapshot()
    assert series["events.pushed"]["value"] == result.raw_events > 0
    assert series["flows.deactivated"]["value"] == result.deactivations
    assert series["flows.converged"]["value"] == result.convergence_merges
    assert series["flows.fiv_killed"]["value"] == result.fiv_invalidations
    assert series["segment.finish_cycles"]["count"] == result.num_segments
    assert series["segment.finish_cycles"]["total"] == sum(
        segment.metrics.finish_cycles for segment in result.segment_results
    )
    assert series["svc.saves"]["value"] == result.extra["svc"]["saves"]
    assert series["pap.golden_fallbacks"]["value"] == result.golden_fallback
    assert series["pap.runs"]["value"] == 1
    # Each enumerated segment spawns its planned flows plus the ASG
    # flow when the automaton has path-independent states.
    asg = 1 if pap.path_independent else 0
    assert series["flows.spawned"]["value"] == sum(
        len(plan.flows) + asg for plan in result.plans if not plan.is_golden
    )


def test_svc_counts_are_counters_and_levels_gauges():
    """The cache's six traffic counts are summed over segments, so they
    export as counters; its three levels and ``plan.max_flows`` stay
    gauges.  The ten facts are 14 OpenMetrics samples: six ``_total``s
    and four gauge/``_max`` pairs."""
    _, _, tracer = traced_run(True)
    series = tracer.metrics.snapshot()
    for key in ("saves", "restores", "hits", "misses", "invalidations",
                "comparisons"):
        assert series[f"svc.{key}"]["type"] == "counter"
    for name in ("svc.capacity", "svc.occupied", "svc.peak_occupancy",
                 "plan.max_flows"):
        assert series[name]["type"] == "gauge"
    samples = parse_openmetrics(render_openmetrics(series))
    assert samples["repro_svc_saves_total"] == series["svc.saves"]["value"]
    assert "repro_svc_saves_max" not in samples
    assert "repro_svc_peak_occupancy_max" in samples
    assert len(
        [s for s in samples if s.startswith(("repro_svc_", "repro_plan_"))]
    ) == 14


def test_disabled_registry_records_nothing():
    _, result, _ = traced_run(True)
    for segment in result.segment_results:
        publish_segment(NULL_REGISTRY, segment)
    publish_run(NULL_REGISTRY, result)
    publish_health(NULL_REGISTRY, result.health)
    assert len(NULL_REGISTRY) == 0
