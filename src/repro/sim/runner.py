"""End-to-end experiment runner: sequential baseline vs. PAP.

One :func:`run_benchmark` call reproduces one bar of Figure 8 (one
benchmark, one rank count, one input size) and carries every per-figure
metric with it: flow-reduction stats (Fig. 9), switching overhead
(Fig. 10), decode costs (Fig. 11), and event amplification (Fig. 12).
Report equality against the baseline is checked on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.ap.geometry import BoardGeometry
from repro.ap.sequential import BaselineResult, run_sequential
from repro.core.config import DEFAULT_CONFIG, PAPConfig
from repro.core.metrics import PAPRunResult
from repro.core.pap import ParallelAutomataProcessor
from repro.errors import ExecutionError
from repro.exec.backend import ExecutionBackend, RunOptions
from repro.obs.series import result_series
from repro.obs.tracer import Observer, Tracer
from repro.workloads.suite import BenchmarkInstance


@dataclass(frozen=True)
class BenchmarkRun:
    """One benchmark x board x input-size measurement."""

    name: str
    ranks: int
    trace_bytes: int
    baseline: BaselineResult
    pap: PAPRunResult
    reports_match: bool
    trace: Tracer | None = None
    """The run's tracer when one was attached (``observer=Tracer()``),
    so sweep results carry their traces alongside their metrics."""

    @property
    def speedup(self) -> float:
        if self.pap.total_cycles == 0:
            return 1.0
        return self.baseline.total_cycles / self.pap.total_cycles

    @property
    def ideal_speedup(self) -> int:
        return self.pap.num_segments

    @property
    def extra_transitions_per_symbol(self) -> float:
        """PAP state activations per symbol relative to the baseline's
        (the Section 5.3 dynamic-energy proxy)."""
        if self.baseline.transitions == 0:
            return 1.0
        return self.pap.transitions / self.baseline.transitions

    def to_dict(self) -> dict:
        """Plain-data view of the run for ``BENCH_*.json`` artifacts.

        Everything here lives in the symbol-cycle domain: given the same
        benchmark, configuration, and seeds, every value is bit-exact
        across runs and machines, so :mod:`repro.perf` compares them
        exactly — any drift is a fidelity regression, not noise.
        """
        pap = self.pap
        svc = pap.extra.get("svc", {})
        return {
            "name": self.name,
            "ranks": self.ranks,
            "trace_bytes": self.trace_bytes,
            "cycles": {
                "baseline_cycles": self.baseline.total_cycles,
                "baseline_symbol_cycles": self.baseline.symbol_cycles,
                "baseline_host_cycles": self.baseline.host_cycles,
                "baseline_transitions": self.baseline.transitions,
                "pap_cycles": pap.total_cycles,
                "enumeration_cycles": pap.enumeration_cycles,
                "golden_cycles": pap.golden_cycles,
                "golden_fallback": pap.golden_fallback,
                "segments": pap.num_segments,
                "speedup": self.speedup,
                "ideal_speedup": self.ideal_speedup,
                "avg_active_flows": pap.average_active_flows,
                "switching_overhead": pap.switching_overhead,
                "convergence_check_cycles": pap.convergence_check_cycles,
                "average_tcpu": pap.average_tcpu,
                "deactivations": pap.deactivations,
                "convergence_merges": pap.convergence_merges,
                "fiv_invalidations": pap.fiv_invalidations,
                "transitions": pap.transitions,
                "extra_transitions_per_symbol": (
                    self.extra_transitions_per_symbol
                ),
                "reports": len(pap.reports),
                "raw_events": pap.raw_events,
                "true_events": pap.true_events,
                "event_amplification": pap.event_amplification,
                "reports_match": self.reports_match,
                "svc_overflow": pap.svc_overflow,
                "svc_hits": svc.get("hits", 0),
                "svc_misses": svc.get("misses", 0),
                "svc_saves": svc.get("saves", 0),
                "svc_restores": svc.get("restores", 0),
                "svc_invalidations": svc.get("invalidations", 0),
                "svc_peak_occupancy": svc.get("peak_occupancy", 0),
            },
        }

    def telemetry_dict(self) -> dict:
        """Quantile summaries of per-segment distributions, the engine
        that stepped the flows with the reason it was chosen, and what
        the reference check's memo did.

        The quantiles are an observed run's published series, derived
        from its records (:func:`~repro.obs.series.result_series`), so
        they are as deterministic as :meth:`to_dict`; they ride in the
        never-gated ``telemetry`` field because distributions are for
        reading trends, the exact ``cycles`` keys for gating.
        """
        series = result_series(self.pap).snapshot()
        health = self.pap.health
        out = {
            "segment_finish_cycles": series["segment.finish_cycles"]["quantiles"],
            "segment_flows_at_end": series["segment.flows_at_end"]["quantiles"],
            "segment_attempts": series["exec.attempts_per_segment"]["quantiles"],
            # Which engine stepped the flows, and why: it moves the
            # wall, never the cycles, so it lives here, not in cycles.
            "engine": health.get("engine"),
            "engine_reason": health.get("engine_reason"),
            # The same holds for the reference check's executor.
            "reference": self.baseline.reference.to_dict(),
            "reference_reason": self.baseline.reference_reason,
        }
        phases = self.pap.extra.get("phases")
        if phases:
            # The run-level phase attribution (repro.obs.phases); like
            # everything in this field it is carried for reading, never
            # gated.  Wall rows are dropped — they are host noise and
            # the artifact's cycle payload must stay machine-invariant.
            out["phases"] = {
                "cycles": dict(phases["cycles"]),
                "accounted_cycles": phases["accounted_cycles"],
                "hot_phase": phases["hot_phase"],
            }
        return out


def run_benchmark(
    benchmark: BenchmarkInstance,
    *,
    ranks: int = 1,
    trace_bytes: int = 65_536,
    modeled_bytes: int | None = None,
    trace_seed: int = 1,
    config: PAPConfig = DEFAULT_CONFIG,
    verify_reports: bool = True,
    observer: Observer | None = None,
    backend: ExecutionBackend | str | None = None,
    options: RunOptions = RunOptions(),
) -> BenchmarkRun:
    """Run one benchmark end to end and package the measurement.

    ``modeled_bytes`` names the experiment being reproduced (the
    paper's 1 MB or 10 MB input) when ``trace_bytes`` is a scaled-down
    stand-in: the per-segment constant costs (state-vector readout,
    host decode, FIV transfer) are shrunk by the same factor so every
    speedup ratio matches the full-size experiment — see
    :meth:`repro.ap.timing.TimingModel.scaled_for_input`.

    ``observer`` threads an :mod:`repro.obs` instrumentation sink
    through the PAP execution; when it is a
    :class:`~repro.obs.Tracer`, the returned run carries it as
    ``run.trace``.

    ``backend`` selects the host execution backend (:mod:`repro.exec`);
    cycle-domain measurements are backend-invariant, so a
    :class:`BenchmarkRun`'s ``to_dict`` payload is bit-identical across
    backends.  Pass a backend *instance* to reuse one worker pool
    across repeated runs (the caller closes it).

    ``options`` (:class:`~repro.exec.RunOptions`: retries, faults,
    checkpoint/resume, admission) passes through to
    :meth:`ParallelAutomataProcessor.run`.  Recovered and resumed runs
    are bit-exact in the cycle domain, so the ``to_dict`` payload stays
    identical under injected faults and across a kill-and-resume — what
    the chaos CI stages gate.  The recovery record lands in
    ``run.pap.extra["health"]``.
    """
    board = BoardGeometry(ranks=ranks)
    timing = config.timing
    if modeled_bytes is not None:
        timing = timing.scaled_for_input(trace_bytes, modeled_bytes)
    config = replace(config, geometry=board, timing=timing)
    data = benchmark.trace(trace_bytes, trace_seed)

    baseline = run_sequential(benchmark.automaton, data)
    pap = ParallelAutomataProcessor(
        benchmark.automaton,
        config=config,
        half_cores=benchmark.half_cores,
        observer=observer,
    ).run(data, backend=backend, options=options)

    matches = pap.reports == baseline.reports
    if verify_reports and not matches:
        missing = len(baseline.reports - pap.reports)
        extra = len(pap.reports - baseline.reports)
        raise ExecutionError(
            f"{benchmark.name}: PAP reports diverged from baseline "
            f"({missing} missing, {extra} extra)"
        )
    return BenchmarkRun(
        name=benchmark.name,
        ranks=ranks,
        trace_bytes=len(data),
        baseline=baseline,
        pap=pap,
        reports_match=matches,
        trace=observer if isinstance(observer, Tracer) else None,
    )


def geometric_mean(values: list[float]) -> float:
    """Geomean as the paper aggregates speedups.

    An empty input is an error, not ``0.0``: a silent zero geomean
    would read as "infinitely slow" in any baseline comparison and
    poison the perf trajectory.
    """
    if not values:
        raise ValueError("geometric_mean of an empty sequence is undefined")
    product = 1.0
    for value in values:
        product *= max(value, 1e-12)
    return product ** (1.0 / len(values))
