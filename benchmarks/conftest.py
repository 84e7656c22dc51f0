"""Shared infrastructure for the paper-reproduction benchmarks.

Environment knobs (all optional):

``REPRO_BENCH_SCALE``
    Workload scale relative to the paper's state counts (default 0.1).
``REPRO_BENCH_1MB``
    Trace bytes standing in for the paper's 1 MB input (default 65536).
``REPRO_BENCH_10MB``
    Trace bytes standing in for the paper's 10 MB input (default 262144).
``REPRO_BENCH_ONLY``
    Comma-separated benchmark names to restrict the suite.

Per-segment constant costs are rescaled with the trace (see
``TimingModel.scaled_for_input``), so speedup ratios model the paper's
full-size experiments.  Expensive automata (Fermi) run on a quarter of
the trace budget, by the rule ``repro bench`` and ``repro analyze``
apply too (:func:`repro.perf.bench.trace_budget`); their absolute
speedups are flat anyway.

Benchmark instances and PAP runs are cached per session so the figure
benches share the Figure 8 measurements instead of recomputing them.
Formatted tables are printed and written to ``benchmarks/results/``;
at session end every cached run is also serialized as a
machine-readable ``benchmarks/results/suite_runs.json`` artifact (the
``repro.perf`` schema), so each bench session leaves a diffable
cycle-domain record next to the human-readable tables.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.perf import bench
from repro.perf.artifact import BenchmarkRecord, PerfReport, run_key
from repro.sim.runner import BenchmarkRun, run_benchmark
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

PAPER_1MB = 1_048_576
PAPER_10MB = 10_485_760

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))
TRACE_1MB_CLASS = int(os.environ.get("REPRO_BENCH_1MB", str(64 * 1024)))
TRACE_10MB_CLASS = int(os.environ.get("REPRO_BENCH_10MB", str(256 * 1024)))

_only = os.environ.get("REPRO_BENCH_ONLY", "")
SELECTED: tuple[str, ...] = (
    tuple(name for name in BENCHMARK_NAMES if name in set(_only.split(",")))
    if _only
    else BENCHMARK_NAMES
)

RESULTS_DIR = Path(__file__).parent / "results"


def trace_budget(name: str, size_class: str) -> tuple[int, int | None]:
    """(actual trace bytes, modeled paper bytes) for one run."""
    base = TRACE_1MB_CLASS if size_class == "1MB" else TRACE_10MB_CLASS
    modeled = PAPER_1MB if size_class == "1MB" else PAPER_10MB
    return bench.trace_budget(name, base, modeled)


class SuiteCache:
    """Session-wide lazy store of benchmark instances and PAP runs."""

    def __init__(self) -> None:
        self._instances: dict[str, object] = {}
        self._runs: dict[tuple[str, int, str], BenchmarkRun] = {}

    def instance(self, name: str):
        if name not in self._instances:
            self._instances[name] = build_benchmark(name, scale=SCALE, seed=0)
        return self._instances[name]

    def run(self, name: str, ranks: int, size_class: str) -> BenchmarkRun:
        key = (name, ranks, size_class)
        if key not in self._runs:
            actual, modeled = trace_budget(name, size_class)
            self._runs[key] = run_benchmark(
                self.instance(name),
                ranks=ranks,
                trace_bytes=actual,
                modeled_bytes=modeled,
                trace_seed=1,
            )
        return self._runs[key]

    def runs(
        self, ranks: int, size_class: str, names=SELECTED
    ) -> list[BenchmarkRun]:
        return [self.run(name, ranks, size_class) for name in names]

    def perf_report(self, label: str = "pytest-bench") -> PerfReport:
        """Every cached run as a repro.perf artifact."""
        report = PerfReport(
            label=label,
            parameters={
                "scale": SCALE,
                "trace_1mb_class": TRACE_1MB_CLASS,
                "trace_10mb_class": TRACE_10MB_CLASS,
                "selected": list(SELECTED),
            },
        )
        for (name, ranks, size_class), run in sorted(self._runs.items()):
            report.add(
                BenchmarkRecord.from_run(
                    run, key=run_key(name, ranks, size_class)
                )
            )
        return report


_CACHE = SuiteCache()


@pytest.fixture(scope="session")
def suite_cache() -> SuiteCache:
    return _CACHE


def pytest_sessionfinish(session, exitstatus) -> None:
    """Persist the session's cached runs as a JSON artifact."""
    if not _CACHE._runs:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = _CACHE.perf_report().write(RESULTS_DIR / "suite_runs.json")
    print(f"\n[benchmark artifact written to {path}]")


def publish(title: str, text: str) -> None:
    """Print a formatted table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{title}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
