"""Suite driver behind ``repro bench run``.

Runs a selection of the evaluation benchmarks end to end, once each
(their cycles are deterministic), and packages everything as a
:class:`~repro.perf.artifact.PerfReport`.  Trace budgets shrink for
the heavy functional-simulation workloads; ``benchmarks/conftest.py``
and ``repro analyze`` apply the same rule through :func:`trace_budget`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.core.config import DEFAULT_CONFIG
from repro.errors import ConfigurationError
from repro.exec.backend import ExecutionBackend, RunOptions, resolve_backend
from repro.perf.artifact import BenchmarkRecord, PerfReport
from repro.sim.runner import run_benchmark
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

# Dense active sets make functional simulation slow; shrink their trace
# budget (speedups are flat in trace size for these).
HEAVY_TRACE_DIVISOR = {"Fermi": 4}


def trace_budget(
    name: str, trace_bytes: int, modeled_bytes: int | None
) -> tuple[int, int | None]:
    """The (trace, modeled) byte budget one benchmark actually runs at.

    Heavy workloads divide both by :data:`HEAVY_TRACE_DIVISOR` so the
    timing scale factor — and therefore every speedup ratio — is
    unchanged.  ``repro.analyze`` mirrors these budgets so predictions
    compare against ``BENCH_*.json`` artifacts byte-for-byte.
    """
    divisor = HEAVY_TRACE_DIVISOR.get(name, 1)
    return (
        trace_bytes // divisor,
        modeled_bytes // divisor if modeled_bytes is not None else None,
    )


def select_benchmarks(spec: str | None = None) -> tuple[str, ...]:
    """Resolve the benchmark selection for one bench run: the names of
    a comma-separated ``spec``, or the full suite when it is empty.
    Unknown names, and a non-empty ``spec`` that names no benchmark
    (``","``), raise :class:`ConfigurationError`: a run that checks
    nothing must not pass.
    """
    if not spec:
        return BENCHMARK_NAMES
    names = tuple(name for name in spec.split(",") if name)
    if not names:
        raise ConfigurationError(
            f"benchmark selection {spec!r} names no benchmark "
            "(see `repro list`)"
        )
    unknown = [name for name in names if name not in BENCHMARK_NAMES]
    if unknown:
        raise ConfigurationError(
            f"unknown benchmark(s) {', '.join(sorted(unknown))} "
            f"(see `repro list`)"
        )
    return names


def run_bench_suite(
    names: tuple[str, ...] = BENCHMARK_NAMES,
    *,
    label: str = "local",
    scale: float = 0.1,
    seed: int = 0,
    ranks: int = 1,
    trace_bytes: int = 65_536,
    modeled_bytes: int | None = None,
    backend: ExecutionBackend | str | None = None,
    use_fiv: bool = True,
    options: RunOptions = RunOptions(),
    progress: Callable[[str], None] | None = None,
) -> PerfReport:
    """Run ``names`` once each and return the artifact-ready report.

    ``backend`` selects the host execution backend (:mod:`repro.exec`);
    pass an instance to size or hedge a pool (the caller closes it).
    Cycle-domain metrics are backend-invariant, so artifacts captured
    under different backends compare clean.  One backend instance is
    shared by every benchmark, so process pools are spawned (and their
    workers warmed) once per suite, not once per run.

    ``use_fiv=False`` disables the flow-invalidation vector, removing
    the cross-segment dispatch dependency so the process backend can run
    all segments concurrently (wall-parallel ablation).

    ``options`` (:class:`~repro.exec.RunOptions`) applies to every run
    (the chaos CI job injects worker crashes, the kill-and-resume stage
    resumes from a checkpoint).  They are recorded in the artifact's
    ``parameters`` — which are never gated — while ``cycles`` stay
    bit-exact under recovery and resume, so such an artifact compares
    clean against a fault-free baseline with ``--fail-on cycles``.
    """
    resolved = resolve_backend(backend)
    config = (
        DEFAULT_CONFIG if use_fiv else replace(DEFAULT_CONFIG, use_fiv=False)
    )
    report = PerfReport(
        label=label,
        parameters={
            "scale": scale,
            "seed": seed,
            "ranks": ranks,
            "trace_bytes": trace_bytes,
            "modeled_bytes": modeled_bytes,
            "backend": resolved.name,
            "engine": options.engine,
            "workers": getattr(resolved, "workers", 1),
            "use_fiv": use_fiv,
            "benchmarks": list(names),
            "retries": options.retry.max_retries,
            "segment_timeout_s": options.retry.segment_timeout_s,
            "faults": (
                options.faults.to_dict() if options.faults is not None else None
            ),
            "checkpoint": options.checkpoint,
            "resume": options.resume,
            "hedge": getattr(resolved, "hedge", None) is not None,
        },
    )
    try:
        for name in names:
            budget, modeled = trace_budget(name, trace_bytes, modeled_bytes)
            bench = build_benchmark(name, scale=scale, seed=seed)
            run = run_benchmark(
                bench,
                ranks=ranks,
                trace_bytes=budget,
                modeled_bytes=modeled,
                trace_seed=seed + 1,
                config=config,
                backend=resolved,
                options=options,
            )
            report.add(BenchmarkRecord.from_run(run))
            if progress is not None:
                progress(f"{run.name}: speedup {run.speedup:.2f}x")
    finally:
        if resolved is not backend:
            resolved.close()
    return report
