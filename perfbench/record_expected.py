"""Record the cycle payloads every benchmark run must reproduce.

Run from the repository root, after a change that is meant to move the
cycle domain and only then::

    python3 perfbench/record_expected.py

For each workload and each ``--seed`` from 0 to ``SEEDS - 1`` (automaton
seed 0, trace seed ``seed + 1``) it makes one verified run and keeps
``BenchmarkRun.to_dict()["cycles"]``.  The ``--seed 0`` payloads are
cross-checked against the matching ``BENCH_seed.json`` rows, skipping
keys that artifact lacks; on a mismatch nothing is written and the
script exits 1.
"""

from __future__ import annotations

import json
import sys
from statistics import median

import run as harness
from layers import SpanRecorder

SEEDS = 32
BENCH_SEED = harness.ROOT / "BENCH_seed.json"


def bench_seed_mismatches(recorded: dict) -> list[str]:
    """Where a ``--seed 0`` payload differs from its ``BENCH_seed`` row."""
    rows = json.loads(BENCH_SEED.read_text())["benchmarks"]
    key = harness.Seeds(automaton=0, trace=1).key
    mismatches = []
    for workload, spec in harness.WORKLOADS.items():
        payload = recorded[workload][key]
        for name, value in rows[f"{spec.benchmark}@r1"]["cycles"].items():
            if payload.get(name) != value:
                mismatches.append(
                    f"{workload} {name}: {payload.get(name)!r} != {value!r}"
                )
    return mismatches


def record(workload: str, spec: harness.Workload) -> dict[str, dict]:
    payloads = {}
    for seed in range(SEEDS):
        seeds = harness.Seeds(automaton=0, trace=seed + 1)
        backends: list = []
        try:
            prep = harness.set_up(
                spec, seeds, harness.TRACE_BYTES, SpanRecorder(), backends
            )
        finally:
            for backend in backends:
                backend.close()
        payloads[seeds.key] = prep.warm.to_dict()["cycles"]
    speedups = [payload["speedup"] for payload in payloads.values()]
    print(
        f"{workload}: sim_speedup over {SEEDS} seeds: min {min(speedups):.4f}"
        f", median {median(speedups):.4f}, max {max(speedups):.4f}"
    )
    return payloads


def dumps(recorded: dict) -> str:
    """JSON with one line per recorded payload."""
    blocks = [
        f" {json.dumps(workload)}: {{\n"
        + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(payload, sort_keys=True)}"
            for key, payload in payloads.items()
        )
        + "\n }"
        for workload, payloads in recorded.items()
    ]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    try:
        recorded = {
            workload: record(workload, spec)
            for workload, spec in harness.WORKLOADS.items()
        }
    finally:
        harness.stop_resource_tracker()
    mismatches = bench_seed_mismatches(recorded)
    for mismatch in mismatches:
        print(f"MISMATCH {mismatch}")
    if mismatches:
        return 1
    harness.EXPECTED_PATH.write_text(dumps(recorded))
    print(f"wrote {harness.EXPECTED_PATH.relative_to(harness.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
