"""Durability study: checkpoint overhead and hedged straggler recovery.

Two questions a durable run setup has to answer with numbers:

* What does write-through checkpointing cost, and what does resuming
  from a complete checkpoint buy?  Measured on three workloads as
  cold wall vs. checkpointed wall vs. resumed wall, with the resumed
  run asserted bit-exact against the cold run (the whole point of the
  content-addressed store).
* How much faster does straggler *hedging* recover a hung segment than
  the deadline path (segment timeout -> teardown -> retry) it
  replaces?  One seeded hang, same workload, both policies.

Tables land in ``benchmarks/results/`` (see EXPERIMENTS.md).
"""

from __future__ import annotations

import tempfile
import time

from conftest import publish, trace_budget

from repro.exec import (
    FaultPlan,
    FaultSpec,
    HedgePolicy,
    ProcessPoolBackend,
    RetryPolicy,
    RunOptions,
    cycle_fingerprint,
)
from repro.sim.runner import run_benchmark

DURABILITY_BENCHMARKS = ("Snort", "Bro217", "Ranges1")


def _timed_run(instance, actual, modeled, **kwargs):
    start = time.perf_counter()
    run = run_benchmark(
        instance,
        trace_bytes=actual,
        modeled_bytes=modeled,
        trace_seed=1,
        **kwargs,
    )
    return run, time.perf_counter() - start


def test_checkpoint_overhead(benchmark, suite_cache):
    def sweep():
        rows = []
        for name in DURABILITY_BENCHMARKS:
            actual, modeled = trace_budget(name, "1MB")
            instance = suite_cache.instance(name)
            cold, cold_s = _timed_run(instance, actual, modeled)
            with tempfile.TemporaryDirectory() as root:
                written, write_s = _timed_run(
                    instance,
                    actual,
                    modeled,
                    options=RunOptions(checkpoint=root),
                )
                resumed, resume_s = _timed_run(
                    instance,
                    actual,
                    modeled,
                    options=RunOptions(checkpoint=root, resume=True),
                )
                ckpt = resumed.pap.extra["checkpoint"]
            # The durability contract: write-through changes nothing,
            # and a resume replays every segment from the store.
            assert cycle_fingerprint(written.pap) == cycle_fingerprint(
                cold.pap
            ), name
            assert cycle_fingerprint(resumed.pap) == cycle_fingerprint(
                cold.pap
            ), name
            assert ckpt["hits"] == cold.pap.num_segments, name
            rows.append((name, cold.pap.num_segments, cold_s, write_s, resume_s))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = ["== Checkpoint overhead and resume speedup (1MB-class) =="]
    lines.append(
        f"{'Benchmark':<14}{'Segs':>6}{'Cold(ms)':>10}{'+Ckpt(ms)':>11}"
        f"{'Write ovh':>11}{'Resume(ms)':>12}{'vs cold':>9}"
    )
    for name, segs, cold_s, write_s, resume_s in rows:
        overhead = (write_s - cold_s) / cold_s * 100
        lines.append(
            f"{name:<14}{segs:>6}{cold_s * 1e3:>10.1f}{write_s * 1e3:>11.1f}"
            f"{overhead:>+10.1f}%{resume_s * 1e3:>12.1f}"
            f"{cold_s / resume_s:>8.2f}x"
        )
    publish("durability_checkpoint", "\n".join(lines))


def test_hedge_vs_deadline_recovery(benchmark, suite_cache):
    def race():
        name = "Ranges1"
        actual = min(trace_budget(name, "1MB")[0], 16_384)
        instance = suite_cache.instance(name)
        reference = cycle_fingerprint(
            run_benchmark(instance, trace_bytes=actual, trace_seed=1).pap
        )
        last = run_benchmark(
            instance, trace_bytes=actual, trace_seed=1
        ).pap.num_segments - 1
        faults = FaultPlan(
            specs=(FaultSpec(segment=last, kind="hang"),), hang_s=3.0
        )
        results = {}
        for policy, hedge, timeout in (
            ("hedged", HedgePolicy(), 30.0),
            ("deadline", None, 1.5),
        ):
            backend = ProcessPoolBackend(workers=2, hedge=hedge)
            try:
                # Warm the pool so spawn/compile cost stays out of the
                # recovery measurement.
                run_benchmark(
                    instance, trace_bytes=actual, trace_seed=1,
                    backend=backend,
                )
                run, wall = _timed_run(
                    instance,
                    actual,
                    None,
                    backend=backend,
                    options=RunOptions(
                        retry=RetryPolicy(
                            max_retries=2,
                            segment_timeout_s=timeout,
                            backoff_base_s=0.0,
                        ),
                        faults=faults,
                    ),
                )
                assert cycle_fingerprint(run.pap) == reference, policy
                results[policy] = (wall, run.pap.extra["health"])
            finally:
                backend.close()
        return results

    results = benchmark.pedantic(race, rounds=1, iterations=1)
    hedged_wall, hedged_health = results["hedged"]
    deadline_wall, deadline_health = results["deadline"]

    lines = ["== Hedge vs. deadline recovery of one hung segment =="]
    lines.append(f"{'Policy':<12}{'Wall(ms)':>10}  detail")
    lines.append(
        f"{'hedged':<12}{hedged_wall * 1e3:>10.1f}  "
        f"{hedged_health['hedges']} hedge(s), "
        f"{len(hedged_health['hedge_wins'])} won, "
        f"{hedged_health['timeouts']} timeouts"
    )
    lines.append(
        f"{'deadline':<12}{deadline_wall * 1e3:>10.1f}  "
        f"{deadline_health['timeouts']} timeout(s), "
        f"{deadline_health['retries']} retries"
    )
    publish("durability_hedge", "\n".join(lines))

    # Hedging must recover the seeded hang without tripping the
    # deadline machinery, and strictly faster than the deadline path.
    assert len(hedged_health["hedge_wins"]) >= 1
    assert hedged_health["timeouts"] == 0
    assert deadline_health["timeouts"] >= 1
    assert hedged_wall < deadline_wall
