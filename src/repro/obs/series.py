"""Registry series derived from a run's own records.

``SegmentMetrics``, ``PAPRunResult`` and ``RunHealth`` record each
cycle-domain and recovery fact of a run exactly once.  This module
names the registry series for those facts and is their only writer, so
a series is a function of its record: serial, pool and resumed runs
export the same ones.  Host facts that no record holds
(``exec.dispatches``, ``exec.workers``, ``vector.limb_cache.*``,
``worker.*``, ``drift.*``) are counted where they are observed.
"""

from __future__ import annotations

from typing import Any

from repro.ap.state_vector import LEVELS as SVC_LEVELS
from repro.obs.metrics import MetricsRegistry


def publish_segment(registry: MetricsRegistry, result: Any) -> None:
    """A composed ``SegmentResult``'s cycle-domain series."""
    if not registry.enabled:
        return
    metrics = result.metrics
    # Every spawned flow is live in a segment's first TDM step (each
    # segment holds a symbol); the golden segment spawns none.
    spawned = 0 if result.plan.is_golden else metrics.active_flow_samples[0]
    for name, value in (
        ("flows.spawned", spawned),
        ("flows.deactivated", metrics.deactivations),
        ("flows.converged", metrics.convergence_merges),
        ("flows.fiv_killed", metrics.fiv_invalidations),
        ("events.pushed", metrics.raw_events),
    ):
        registry.counter(name).inc(value)
    registry.histogram("segment.finish_cycles").observe(metrics.finish_cycles)
    registry.histogram("segment.flows_at_end").observe(metrics.flows_at_end)


def publish_run(registry: MetricsRegistry, result: Any) -> None:
    """A finished ``PAPRunResult``'s run-level cycle-domain series."""
    if not registry.enabled:
        return
    for key, value in result.extra["svc"].items():
        if key in SVC_LEVELS:
            registry.gauge(f"svc.{key}").set(value)
        else:
            registry.counter(f"svc.{key}").inc(value)
    registry.gauge("plan.max_flows").set(
        max((len(plan.flows) for plan in result.plans), default=0)
    )
    registry.counter("pap.golden_fallbacks").inc(int(result.golden_fallback))
    registry.counter("pap.runs").inc()


def publish_health(registry: MetricsRegistry, health: dict[str, Any]) -> None:
    """The recovery series of a settled ``RunHealth.to_dict()``; every
    attempted segment, a failed run's last one too, counts in
    ``exec.attempts_per_segment``."""
    if not registry.enabled:
        return
    for name, value in (
        ("exec.retries", health["retries"]),
        ("exec.timeouts", health["timeouts"]),
        ("exec.crashes", health["crashes"]),
        ("exec.faults_injected", health["faults_injected"]),
        ("exec.checkpoint.hits", health["checkpoint_hits"]),
        ("exec.checkpoint.writes", health["checkpoint_writes"]),
        ("exec.worker_stepdowns", len(health["worker_steps"])),
        ("exec.downgrades", int(health["downgraded"])),
        ("exec.hedges", health["hedges"]),
        ("exec.hedge_wins", len(health["hedge_wins"])),
    ):
        registry.counter(name).inc(value)
    attempts = registry.histogram("exec.attempts_per_segment")
    for count in health["attempts"].values():
        attempts.observe(count)


def result_series(result: Any) -> MetricsRegistry:
    """Every record-derived series of one finished run, in a new registry."""
    registry = MetricsRegistry()
    for segment in result.segment_results:
        publish_segment(registry, segment)
    publish_run(registry, result)
    publish_health(registry, result.health)
    return registry
