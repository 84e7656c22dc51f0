"""Wall-clock speedup of the bit-parallel vector executor at full size.

The 64 KiB scaled-trace substitution (DESIGN.md "Scaling notes") exists
because the set-walk executor steps ~10^3x slower than VASim; the
vector engine attacks exactly that substrate, so this experiment
measures it at the paper's *actual* input sizes — no trace scaling.
Setup: transition-bound suite workloads (the phase profiler shows the
transition phase at 97-100% of cycles on 18/19 workloads), a full 1 MB
trace by default, the set walk vs. the vector engine
(``RunOptions(engine=...)``) on the same single-rank in-process run.
The last column is the engine the default ``auto`` option picks for
the automaton.  Run directly::

    python benchmarks/vector_speedup.py

Environment knobs: ``REPRO_VECTOR_BYTES`` overrides the trace size
(e.g. 10485760 for the 10 MB point) and ``REPRO_VECTOR_BENCH`` the
comma-separated workload list.  Cycle-domain results are asserted
bit-identical between the engines — the speedup is pure host wall
clock, the modeled cycles do not move.

Expected shape (see the module docstring of ``repro.automata.vector``):
sparse-active-set workloads whose cost is dominated by per-state
successor walks (Levenshtein, Hamming) gain the most — the acceptance
bar is >= 5x on at least one of them at >= 1 MB — while dense or
heavily-latched workloads sit near or below 1x because the set path's
latched fast-path already skips most of the work the vector path
vectorizes.
"""

from __future__ import annotations

import os

from repro.automata.vector import choose_engine
from repro.core.config import DEFAULT_CONFIG
from repro.core.pap import ParallelAutomataProcessor
from repro.exec import RunOptions
from repro.perf.measure import measure_wall
from repro.workloads.suite import build_benchmark

TRACE_BYTES = int(os.environ.get("REPRO_VECTOR_BYTES", str(1_048_576)))
BENCHMARKS = os.environ.get("REPRO_VECTOR_BENCH", "Levenshtein,Hamming").split(",")


def main() -> None:
    print(f"trace bytes       : {TRACE_BYTES} ({TRACE_BYTES // 1024} KiB, unscaled)")
    print("workload            set walk      vector       speedup  auto")
    for name in BENCHMARKS:
        bench = build_benchmark(name, scale=0.1, seed=0)
        data = bench.trace(TRACE_BYTES, 1)
        pap = ParallelAutomataProcessor(
            bench.automaton,
            config=DEFAULT_CONFIG,
            half_cores=bench.half_cores,
        )
        serial_run, serial_wall = measure_wall(
            lambda: pap.run(data, options=RunOptions(engine="set")),
            warmup=0,
            repeats=1,
        )
        vector_run, vector_wall = measure_wall(
            lambda: pap.run(data, options=RunOptions(engine="vector")),
            warmup=0,
            repeats=1,
        )

        assert vector_run.reports == serial_run.reports
        assert vector_run.truth_times == serial_run.truth_times
        assert vector_run.total_cycles == serial_run.total_cycles

        per_sym = 1e6 / len(data)
        print(
            f"{name:<18}"
            f"{serial_wall.median_s * per_sym:7.2f} us/sym"
            f"{vector_wall.median_s * per_sym:9.2f} us/sym"
            f"{serial_wall.median_s / vector_wall.median_s:9.2f}x"
            f"  {choose_engine('auto', bench.automaton.num_states)[0]}"
        )
    print("cycle domain      : bit-identical (asserted)")


if __name__ == "__main__":
    main()
