"""Command-line interface.

``python -m repro <command>`` drives the library without writing code:

* ``list`` — the 19 evaluation benchmarks and their Table 1 rows;
* ``run`` — one benchmark end to end (baseline vs. PAP) with metrics,
  optionally explained by a Chrome trace (``--trace``) and by the
  verified phase profile (``--profile``) with its speedscope and
  collapsed-stack exports (``--speedscope``, ``--folded``);
* ``bench`` — benchmark artifacts and regression gating: ``run``
  captures a ``BENCH_*.json``, ``compare`` diffs two artifacts
  exactly, ``report`` renders one;
* ``obs`` — the one reader of run artifacts: ``summary`` validates and
  summarizes a ledger, an OpenMetrics export, a Chrome trace or a
  speedscope profile; ``export`` renders a ledger's metrics; ``diff``
  compares two runs' metrics;
* ``chaos`` — seeded fault-matrix sweep (crash / hang / transient /
  straggler / corrupt_checkpoint × segment coordinates) over one
  workload, printing a recovery table; exits 1 on any recovery that
  is not bit-exact against the fault-free run;
* ``match`` — compile patterns and scan a file, sequential vs. PAP;
* ``lint`` — static diagnostics (apcheck) for automata and deployments;
* ``analyze`` — predictive static analysis (repro.analyze): cost-model
  cycle/speedup predictions, capacity plans, and the prediction-vs-
  actual tolerance gate against a committed ``BENCH_*.json``;
* ``table1`` / ``fig3`` — regenerate the characterization tables;
* ``speculate`` — the speculation extension on one benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from repro.automata.analysis import AutomatonAnalysis
from repro.core.config import DEFAULT_CONFIG, PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.core.ranges import choose_partition_symbol, range_profile
from repro.core.speculation import SpeculativeAutomataProcessor
from repro.ap.geometry import BoardGeometry
from repro.ap.sequential import run_sequential
from repro.automata.anml import Automaton
from repro.automata.anml_xml import automaton_from_anml_xml
from repro.automata.serialization import loads as automaton_loads
from repro.errors import (
    ArtifactError,
    AutomatonError,
    ConfigurationError,
    ReproError,
)
from repro.exec import (
    AdmissionPolicy,
    BACKEND_NAMES,
    ENGINE_CHOICES,
    ExecutionBackend,
    FaultPlan,
    FaultSpec,
    HedgePolicy,
    ProcessPoolBackend,
    RetryPolicy,
    RunOptions,
    cycle_fingerprint,
    resolve_backend,
)
from repro.analyze.render import (
    render_analysis_sarif,
    render_analysis_text,
)
from repro.analyze.report import (
    DEFAULT_TOLERANCE,
    analyze_suite,
    compare_to_baseline,
    load_baseline,
)
from repro.lint import (
    FAMILIES,
    LintConfig,
    Severity,
    render_json,
    render_sarif,
    render_text,
    rules_for,
    run_lint,
    severity_gate,
)
from repro.obs import (
    FlightRecorder,
    Tracer,
    parse_openmetrics,
    read_ledger,
    render_openmetrics,
    render_phase_profile,
    summarize_ledger,
    to_folded,
    to_speedscope,
    validate_chrome_trace,
    validate_speedscope,
    verify_phase_totals,
)
from repro.perf import (
    compare_reports,
    load_report,
    render_diff,
    render_report,
    run_bench_suite,
    select_benchmarks,
)
from repro.regex.ruleset import compile_ruleset
from repro.sim.report import format_figure3, format_table1
from repro.sim.runner import run_benchmark
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

PAPER_BYTES = {"1MB": 1_048_576, "10MB": 10_485_760}


def _add_backend(parser: argparse.ArgumentParser) -> None:
    """Execution-backend and engine flags shared by ``run`` and
    ``bench run``."""
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="serial",
        help=(
            "where segments run (repro.exec): in-process, or 'process' "
            "for worker processes — cycle metrics are identical on both"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help=(
            "how flows step on either backend: 'set' walks active sets, "
            "'vector' advances packed bitsets, 'auto' (default) picks "
            "vector for automata of at most 32 64-bit limbs (2,048 "
            "states) — cycle metrics are identical on every engine"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --backend process (default: CPU count)",
    )
    parser.add_argument(
        "--no-fiv",
        action="store_true",
        help=(
            "disable the flow-invalidation vector; removes the "
            "cross-segment dependency so --backend process runs all "
            "segments concurrently (wall-clock parallel ablation)"
        ),
    )


def _add_resilience(parser: argparse.ArgumentParser) -> None:
    """Recovery/fault-injection flags shared by ``run`` and ``bench run``."""
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help=(
            "re-executions allowed per segment after a retryable failure "
            "(worker crash, dispatch timeout, transient error); "
            "default 0 = fail fast"
        ),
    )
    parser.add_argument(
        "--segment-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-segment dispatch timeout on --backend process; a "
            "segment exceeding it counts as a retryable failure and the "
            "worker pool is recycled"
        ),
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault plan for resilience testing, e.g. "
            "'seed=7,rate=0.25,kinds=crash+transient' or "
            "'2:transient,3:crash*2' (see repro.exec.faults); recovered "
            "runs stay bit-exact in the cycle domain"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help=(
            "durable segment-result store: completed segments are "
            "written through to DIR (append-only JSONL, fsynced) keyed "
            "by the run fingerprint, so a crashed run can resume"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from --checkpoint: segments already proven under "
            "this run's fingerprint are replayed bit-exactly instead "
            "of re-executed"
        ),
    )
    parser.add_argument(
        "--hedge-after",
        type=float,
        default=None,
        metavar="MULT",
        help=(
            "straggler hedging on --backend process: a dispatch "
            "outstanding past MULT MAD multiples of this run's median "
            "segment wall is speculatively re-dispatched and the first "
            "result wins (bit-exact either way)"
        ),
    )


def _options_from_args(args: argparse.Namespace) -> RunOptions:
    """The run's :class:`RunOptions` from the recovery flags (and the
    admission flags, which only ``run`` has).

    Raises :class:`ConfigurationError` on invalid values or
    combinations — the caller maps that to a usage error (exit 2), same
    as bad backend flags.
    """
    budget = getattr(args, "memory_budget", None)
    return RunOptions(
        engine=args.engine,
        retry=RetryPolicy(
            max_retries=args.retries, segment_timeout_s=args.segment_timeout
        ),
        faults=(
            FaultPlan.parse(args.inject_faults) if args.inject_faults else None
        ),
        checkpoint=args.checkpoint,
        resume=args.resume,
        admission=(
            AdmissionPolicy(memory_budget_bytes=budget)
            if budget is not None
            else None
        ),
    )


def _backend_from_args(
    args: argparse.Namespace, options: RunOptions
) -> ExecutionBackend:
    """The backend the ``--backend``/``--workers``/``--hedge-after``
    flags name, checked against ``options``; raises
    :class:`ConfigurationError` like :func:`_options_from_args`."""
    hedge = (
        HedgePolicy(mad_multiplier=args.hedge_after)
        if args.hedge_after is not None
        else None
    )
    backend = resolve_backend(args.backend, workers=args.workers, hedge=hedge)
    backend.check_options(options)
    return backend


def _positive_float(text: str) -> float:
    """argparse type for a value that must be above zero (exit 2)."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _add_workload(parser: argparse.ArgumentParser) -> None:
    """Board and input flags shared by ``run``, ``bench run`` and
    ``analyze``."""
    parser.add_argument("--ranks", type=int, default=1, choices=(1, 2, 4))
    parser.add_argument("--trace-bytes", type=int, default=65_536)
    parser.add_argument(
        "--model-input",
        choices=tuple(PAPER_BYTES),
        default="1MB",
        help="paper input size the trace stands in for",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="workload scale relative to the paper's state counts",
    )
    parser.add_argument("--seed", type=int, default=0)


def _cmd_list(_: argparse.Namespace) -> int:
    print(f"{'Benchmark':<18}{'Paper states':>14}{'CCs':>8}{'Half-cores':>12}")
    for name in BENCHMARK_NAMES:
        bench = build_benchmark(name, scale=0.01)
        row = bench.paper
        print(
            f"{name:<18}{row.states:>14}{row.components:>8}"
            f"{row.half_cores:>12}"
        )
    return 0


def _run_summary(run, bench, args) -> dict:
    """The run summary as plain data — the single source both output
    formats (text and JSON) render from."""
    pap = run.pap
    return {
        "benchmark": run.name,
        "scale": args.scale,
        "seed": args.seed,
        "states": bench.automaton.num_states,
        "trace_bytes": run.trace_bytes,
        "ranks": run.ranks,
        "backend": args.backend,
        "engine": pap.health.get("engine"),
        "engine_reason": pap.health.get("engine_reason"),
        "reference": run.baseline.reference.to_dict(),
        "reference_reason": run.baseline.reference_reason,
        "use_fiv": not args.no_fiv,
        "segments": pap.num_segments,
        "baseline_cycles": run.baseline.total_cycles,
        "pap_cycles": pap.total_cycles,
        "speedup": run.speedup,
        "ideal_speedup": run.ideal_speedup,
        "avg_active_flows": pap.average_active_flows,
        "switching_overhead": pap.switching_overhead,
        "deactivations": pap.deactivations,
        "convergence_merges": pap.convergence_merges,
        "fiv_invalidations": pap.fiv_invalidations,
        "reports": len(pap.reports),
        "event_amplification": pap.event_amplification,
        "golden_fallback": pap.golden_fallback,
        "reports_match": run.reports_match,
        "svc": pap.extra.get("svc", {}),
        "health": pap.health,
        "checkpoint": pap.extra.get("checkpoint"),
    }


def _print_run_text(summary: dict) -> None:
    print(
        f"benchmark        : {summary['benchmark']} "
        f"(scale {summary['scale']})"
    )
    print(f"automaton        : {summary['states']} states")
    print(f"trace            : {summary['trace_bytes']} bytes")
    print(
        f"segments         : {summary['segments']} "
        f"on {summary['ranks']} rank(s)"
    )
    if summary["backend"] != "serial" or not summary["use_fiv"]:
        fiv = "on" if summary["use_fiv"] else "off"
        print(
            f"backend          : {summary['backend']} (FIV {fiv})"
        )
    if summary["engine_reason"]:
        print(f"engine           : {summary['engine_reason']}")
    memo = summary["reference"]
    print(
        f"reference        : {summary['reference_reason']} "
        f"({memo['dfa_states']} DFA states, {memo['hit_share']:.1%} hits)"
    )
    print(f"baseline cycles  : {summary['baseline_cycles']}")
    print(f"PAP cycles       : {summary['pap_cycles']}")
    print(
        f"speedup          : {summary['speedup']:.2f}x "
        f"(ideal {summary['ideal_speedup']}x)"
    )
    print(f"avg active flows : {summary['avg_active_flows']:.2f}")
    print(
        f"dynamics         : {summary['deactivations']} deactivated, "
        f"{summary['convergence_merges']} converged, "
        f"{summary['fiv_invalidations']} FIV-killed"
    )
    svc = summary["svc"]
    if svc:
        print(
            f"state-vector $   : peak {svc.get('peak_occupancy', 0)}"
            f"/{svc.get('capacity', 0)} occupied, "
            f"{svc.get('saves', 0)} saves, {svc.get('hits', 0)} hits, "
            f"{svc.get('misses', 0)} misses"
        )
    health = summary.get("health", {})
    if any(
        health.get(key)
        for key in (
            "retries", "timeouts", "crashes", "faults_injected",
            "downgraded", "hedges", "worker_steps",
        )
    ):
        line = (
            f"resilience       : {health.get('retries', 0)} retries, "
            f"{health.get('timeouts', 0)} timeouts, "
            f"{health.get('crashes', 0)} crashes, "
            f"{health.get('faults_injected', 0)} faults injected"
        )
        if health.get("hedges"):
            line += (
                f", {health['hedges']} hedges "
                f"({len(health.get('hedge_wins', []))} won)"
            )
        if health.get("worker_steps"):
            line += f", {len(health['worker_steps'])} pool step-downs"
        if health.get("downgraded"):
            line += (
                " [degraded to serial at segment "
                f"{health.get('downgraded_at_segment')}]"
            )
        print(line)
    ckpt = summary.get("checkpoint")
    if ckpt:
        print(
            f"checkpoint       : {ckpt['path']} "
            f"({ckpt['hits']} hits, {ckpt['writes']} writes"
            f"{', resumed' if ckpt.get('resumed') else ''})"
        )
    admission = health.get("admission")
    if admission:
        print(
            f"admission        : {admission['action']} "
            f"(predicted peak {admission['predicted_peak_bytes']} B, "
            f"budget {admission['budget_bytes']} B"
            + (
                f", wave {admission['wave_size']} segments"
                if admission.get("wave_size")
                else ""
            )
            + ")"
        )
    print(
        f"reports          : {summary['reports']} "
        f"(amplification {summary['event_amplification']:.2f}x, "
        f"verified {'OK' if summary['reports_match'] else 'MISMATCH'})"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    # Usage errors come first, so a rejected run opens no ledger.
    try:
        options = _options_from_args(args)
        bench = build_benchmark(
            args.benchmark, scale=args.scale, seed=args.seed
        )
        backend = _backend_from_args(args, options)
    except ConfigurationError as error:
        print(f"repro run: {error}", file=sys.stderr)
        return 2
    config = (
        replace(DEFAULT_CONFIG, use_fiv=False)
        if args.no_fiv
        else DEFAULT_CONFIG
    )
    monitor = None
    tracer: Tracer | None = None
    drift = None
    try:
        if args.drift_baseline:
            # Loaded before the ledger opens: a missing or malformed
            # baseline stops the command here (exit 1), not after the run.
            from repro.obs.drift import DriftMonitor

            monitor = DriftMonitor.from_analysis_artifact(
                args.drift_baseline,
                args.benchmark,
                ranks=args.ranks,
                tolerance=args.drift_tolerance,
            )
        # The flight recorder IS a tracer, so --trace/--profile work off
        # it; --metrics-export only needs a live metrics registry.
        if args.ledger:
            tracer = FlightRecorder(path=args.ledger)
        elif args.trace or args.profile or args.metrics_export or (
            monitor is not None
        ):
            tracer = Tracer()
        if monitor is not None:
            assert tracer is not None
            monitor.observer = tracer
        run = run_benchmark(
            bench,
            ranks=args.ranks,
            trace_bytes=args.trace_bytes,
            modeled_bytes=PAPER_BYTES.get(args.model_input),
            trace_seed=args.seed + 1,
            config=config,
            observer=tracer,
            backend=backend,
            options=options,
        )
        if monitor is not None:
            # Checked before the ledger seals so the drift events and
            # counters land inside it.
            drift = monitor.check_run(run.pap)
    finally:
        backend.close()
        # Seal the ledger even when the run raised: the failure record
        # and crash bundle were written by the run_failed hook, and the
        # close record makes the ledger valid for `repro obs summary`.
        if isinstance(tracer, FlightRecorder):
            tracer.close()
    summary = _run_summary(run, bench, args)
    if drift is not None:
        summary["drift"] = [diag.to_dict() for diag in drift]
    phases = run.pap.phases
    # Every phase output comes from a summary whose accounting
    # identities hold: a profile whose rows don't sum to the run is
    # worse than none.
    check = (
        verify_phase_totals(run.pap)
        if args.profile or args.speedscope or args.folded
        else None
    )
    if args.format == "json":
        if args.profile:
            summary["phases"] = dict(phases, verified=check)
        print(json.dumps(summary, indent=2))
    else:
        _print_run_text(summary)
        if drift is not None:
            if drift:
                for diag in drift:
                    print(f"drift            : {diag.code} {diag.message}")
            else:
                print(
                    "drift            : none (within "
                    f"{args.drift_tolerance:.0%} of prediction)"
                )
    out_stream = sys.stderr if args.format == "json" else sys.stdout
    if tracer is not None and args.trace:
        tracer.write_chrome(args.trace, domain=args.trace_domain)
        print(
            f"trace written    : {args.trace} "
            f"({args.trace_domain} domain, open in ui.perfetto.dev)",
            file=out_stream,
        )
    if tracer is not None and args.metrics_export:
        with open(args.metrics_export, "w", encoding="utf-8") as handle:
            handle.write(render_openmetrics(tracer.metrics.snapshot()))
        print(
            f"metrics written  : {args.metrics_export} (OpenMetrics)",
            file=out_stream,
        )
    if isinstance(tracer, FlightRecorder) and args.ledger:
        print(
            f"ledger written   : {args.ledger} "
            f"(run {tracer.run_id}, {tracer.num_records} records)",
            file=out_stream,
        )
    if args.speedscope:
        payload = to_speedscope(phases, name=f"{run.name} phase profile")
        validate_speedscope(payload)
        with open(args.speedscope, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(
            f"profile written  : {args.speedscope} (open in speedscope.app)",
            file=out_stream,
        )
    if args.folded:
        with open(args.folded, "w", encoding="utf-8") as handle:
            handle.write(to_folded(phases, root=run.name))
        print(
            f"folded written   : {args.folded} (collapsed-stack format)",
            file=out_stream,
        )
    if check is not None and args.profile and args.format == "text":
        print(render_phase_profile(phases))
        print(
            f"accounting       : {check['checks']} identities verified "
            f"across {check['segments']} segment(s), "
            f"{check['accounted_cycles']} cycles accounted"
        )
    return 0 if run.reports_match else 1


#: Fault kinds `repro chaos` can sweep; every one must recover to a
#: bit-exact cycle fingerprint for the sweep to pass.
CHAOS_KINDS = ("crash", "hang", "transient", "straggler",
               "corrupt_checkpoint")


def _chaos_coordinates(num_segments: int, count: int) -> list[int]:
    """``count`` segment indices spread over the run, first and last
    included — faults at the golden segment and the tail boundary are
    the historically interesting coordinates."""
    if count >= num_segments:
        return list(range(num_segments))
    if count == 1:
        return [0]
    picks = {
        round(i * (num_segments - 1) / (count - 1)) for i in range(count)
    }
    return sorted(picks)


def _chaos_trial(pap, data, reference, kind, segment, args) -> dict:
    """One fault-matrix cell: inject ``kind`` at ``segment``, recover,
    and compare the cycle fingerprint against the fault-free run."""
    import tempfile
    import time as _time

    row = {"kind": kind, "segment": segment, "recovered": False,
           "wall_ms": 0.0, "detail": ""}
    start = _time.perf_counter()
    try:
        if kind == "corrupt_checkpoint":
            # Write-side corruption: first pass tears the segment's
            # checkpoint record, the resume pass must drop it and
            # re-execute (never crash, never trust the torn record).
            faults = FaultPlan(
                specs=(FaultSpec(segment=segment, kind=kind),)
            )
            with tempfile.TemporaryDirectory(prefix="chaos-ckpt-") as tmp:
                pap.run(data, options=RunOptions(checkpoint=tmp, faults=faults))
                result = pap.run(
                    data, options=RunOptions(checkpoint=tmp, resume=True)
                )
                ckpt = result.extra["checkpoint"]
                row["detail"] = (
                    f"{ckpt['dropped_records']} torn record(s) dropped, "
                    f"{ckpt['hits']} hits on resume"
                )
        else:
            faults = FaultPlan(
                specs=(FaultSpec(segment=segment, kind=kind),),
                hang_s=args.hang,
                straggler_s=args.straggler,
            )
            options = RunOptions(
                retry=RetryPolicy(
                    max_retries=args.retries,
                    segment_timeout_s=args.segment_timeout,
                    backoff_base_s=0.0,
                ),
                faults=faults,
            )
            backend = ProcessPoolBackend(
                workers=args.workers, hedge=HedgePolicy()
            )
            try:
                # Warm the pool (spawn + compile) fault-free first so
                # the dispatch timeout measures recovery, not worker
                # cold start.
                pap.run(data, backend=backend)
                start = _time.perf_counter()
                result = pap.run(data, backend=backend, options=options)
                # Measured before close(): close joins workers, and a
                # hedged-past hang may still be sleeping in one — the
                # recovery wall is the run, not the join.
                row["wall_ms"] = (_time.perf_counter() - start) * 1e3
            finally:
                backend.close()
            health = result.health
            row["detail"] = (
                f"{health['retries']} retries, {health['timeouts']} "
                f"timeouts, {health['crashes']} crashes, "
                f"{health['hedges']} hedges"
            )
        row["recovered"] = cycle_fingerprint(result) == reference
        if not row["recovered"]:
            row["detail"] = "cycle fingerprint diverged; " + row["detail"]
    except ReproError as error:
        row["detail"] = f"{type(error).__name__}: {error}"
    if not row["wall_ms"]:
        row["wall_ms"] = (_time.perf_counter() - start) * 1e3
    return row


def _cmd_chaos(args: argparse.Namespace) -> int:
    try:
        kinds = tuple(k for k in args.kinds.split("+") if k)
        unknown = [k for k in kinds if k not in CHAOS_KINDS]
        if not kinds or unknown:
            raise ConfigurationError(
                f"unknown fault kind(s) {'+'.join(unknown) or '(none)'}; "
                f"choose from {'+'.join(CHAOS_KINDS)}"
            )
        # A sweep of no cells, or a pool of no workers, would pass
        # having checked nothing.
        for flag, value in (("segments", args.segments),
                            ("workers", args.workers)):
            if value < 1:
                raise ConfigurationError(
                    f"--{flag} must be at least 1, got {value}"
                )
        bench = build_benchmark(
            args.benchmark, scale=args.scale, seed=args.seed
        )
    except ConfigurationError as error:
        print(f"repro chaos: {error}", file=sys.stderr)
        return 2
    data = bench.trace(args.trace_bytes, args.seed + 1)
    config = replace(
        DEFAULT_CONFIG, geometry=BoardGeometry(ranks=args.ranks)
    )
    pap = ParallelAutomataProcessor(
        bench.automaton, config=config, half_cores=bench.half_cores
    )
    cold = pap.run(data)
    reference = cycle_fingerprint(cold)
    coords = _chaos_coordinates(cold.num_segments, args.segments)
    print(
        f"chaos sweep: {args.benchmark}, {cold.num_segments} segments, "
        f"{len(kinds)} kind(s) x {len(coords)} coordinate(s)",
        file=sys.stderr,
    )
    rows = [
        _chaos_trial(pap, data, reference, kind, segment, args)
        for kind in kinds
        for segment in coords
    ]
    failed = [row for row in rows if not row["recovered"]]
    if args.format == "json":
        print(json.dumps({"rows": rows, "failed": len(failed)}, indent=2))
    else:
        print(f"{'Kind':<20}{'Seg':>5}  {'Recovered':<10}"
              f"{'Wall(ms)':>9}  Detail")
        for row in rows:
            status = "OK" if row["recovered"] else "FAILED"
            print(
                f"{row['kind']:<20}{row['segment']:>5}  {status:<10}"
                f"{row['wall_ms']:>9.1f}  {row['detail']}"
            )
        print(
            f"{len(rows) - len(failed)}/{len(rows)} recoveries bit-exact"
        )
    return 1 if failed else 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    try:
        names = select_benchmarks(args.benchmarks)
    except ConfigurationError as error:
        # A bad workload *name* is an operational failure (exit 1, like
        # any other run that cannot produce an artifact), not a usage
        # error: the flag was well-formed, the suite just lacks it.
        print(f"repro bench run: {error}", file=sys.stderr)
        return 1
    try:
        options = _options_from_args(args)
        backend = _backend_from_args(args, options)
    except ConfigurationError as error:
        print(f"repro bench run: {error}", file=sys.stderr)
        return 2
    try:
        report = run_bench_suite(
            names,
            label=args.label,
            scale=args.scale,
            seed=args.seed,
            ranks=args.ranks,
            trace_bytes=args.trace_bytes,
            modeled_bytes=PAPER_BYTES.get(args.model_input),
            backend=backend,
            use_fiv=not args.no_fiv,
            options=options,
            progress=lambda line: print(line, file=sys.stderr),
        )
    except ConfigurationError as error:
        print(f"repro bench run: {error}", file=sys.stderr)
        return 2
    finally:
        backend.close()
    out = args.out or f"BENCH_{args.label}.json"
    path = report.write(out)
    print(render_report(report, args.format))
    print(f"[artifact written to {path}]", file=sys.stderr)
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    try:
        baseline = load_report(args.baseline)
        candidate = load_report(args.candidate)
    except ArtifactError as error:
        print(f"repro bench compare: {error}", file=sys.stderr)
        return 2
    diff = compare_reports(baseline, candidate)
    print(render_diff(diff, args.format))
    return 0 if diff.clean else 1


def _cmd_bench_report(args: argparse.Namespace) -> int:
    try:
        report = load_report(args.artifact)
    except ArtifactError as error:
        print(f"repro bench report: {error}", file=sys.stderr)
        return 2
    print(render_report(report, args.format))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    handlers = {
        "run": _cmd_bench_run,
        "compare": _cmd_bench_compare,
        "report": _cmd_bench_report,
    }
    return handlers[args.bench_command](args)


def _obs_read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise ArtifactError(f"cannot read {path!r}: {error}") from error


def _ledger_close_metrics(records: list[dict]) -> dict:
    """The metrics snapshot embedded in a ledger's close record."""
    for record in reversed(records):
        if record["kind"] == "close":
            return (record.get("args") or {}).get("metrics", {})
    raise ArtifactError(
        "ledger has no close record (run was not sealed); "
        "no metrics snapshot to export"
    )


def _obs_load_samples(path: str) -> dict[str, float]:
    """Load a ledger or an OpenMetrics file as a flat sample map."""
    text = _obs_read_text(path)
    if text.lstrip().startswith("{"):
        return parse_openmetrics(
            render_openmetrics(_ledger_close_metrics(read_ledger(path)))
        )
    try:
        return parse_openmetrics(text)
    except ValueError as error:
        raise ArtifactError(f"{path}: {error}") from error


def _json_artifact_summary(text: str) -> tuple[str, dict] | None:
    """The kind and counts of a Chrome trace or a speedscope profile,
    told apart by their top-level keys and validated (``ValueError`` if
    invalid); ``None`` for other artifacts (a ledger is JSON Lines, so
    it does not parse as one document)."""
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    if "traceEvents" in payload:
        events = validate_chrome_trace(payload)
        return "Chrome trace-event JSON", {
            "events": len(events),
            "tracks": len({event["tid"] for event in events if "tid" in event}),
            "domain": payload.get("otherData", {}).get("domain", "?"),
        }
    if "profiles" in payload:
        validate_speedscope(payload)
        profiles = payload["profiles"]
        return "speedscope profile", {
            "profiles": len(profiles),
            "events": sum(len(p.get("events", [])) for p in profiles),
            "frames": len(payload["shared"]["frames"]),
        }
    return None


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    text = _obs_read_text(args.target)
    try:
        artifact = _json_artifact_summary(text)
    except ValueError as error:
        raise ArtifactError(f"invalid {args.target!r}: {error}") from error
    if artifact is not None:
        kind, counts = artifact
        if args.format == "json":
            print(json.dumps({"format": kind, **counts}, indent=2))
        else:
            details = ", ".join(f"{value} {key}" for key, value in counts.items())
            print(f"{args.target}: valid {kind} ({details})")
        return 0
    if text.lstrip().startswith("{"):
        records = read_ledger(args.target)
        summary = summarize_ledger(records)
        if args.format == "json":
            print(json.dumps(summary, indent=2))
            return 0
        print(f"ledger           : {args.target}")
        print(f"run              : {summary['run_id']}")
        print(
            f"schema           : v{summary['schema_version']}, "
            f"{summary['records']} records, "
            f"sealed {'yes' if summary['sealed'] else 'NO'}"
        )
        kinds = ", ".join(
            f"{count} {kind}" for kind, count in summary["kinds"].items()
        )
        print(f"records          : {kinds}")
        print(f"wall time        : {summary['wall_ns'] / 1e6:.2f} ms")
        if "failure" in summary:
            failure = summary["failure"]
            print(
                f"failure          : {failure['type']}: "
                f"{failure['message']}"
            )
        metrics = summary.get("metrics", {})
        if metrics:
            print(f"metrics          : {len(metrics)} instruments")
        workers = summary.get("workers")
        if workers:
            print(
                f"workers          : {len(workers['pids'])} pid(s), "
                f"{workers['batches']} batches, "
                f"{workers['records']} shipped records"
            )
            print(
                f"worker wall      : {workers['worker_wall_ms']:.2f} ms "
                f"measured in-worker vs {workers['dispatch_wall_ms']:.2f} ms "
                f"across {workers['dispatches']} dispatch span(s)"
            )
            for pid, row in sorted(workers["per_pid"].items()):
                segments = ",".join(str(s) for s in row["segments"])
                print(
                    f"  pid {pid:<10}: {row['records']} records in "
                    f"{row['batches']} batch(es), "
                    f"{row['worker_wall_ms']:.2f} ms, "
                    f"compile {row['compile_hits']} hit/"
                    f"{row['compile_misses']} miss, "
                    f"segments [{segments}]"
                )
        return 0
    try:
        samples = parse_openmetrics(text)
    except ValueError as error:
        raise ArtifactError(f"{args.target}: {error}") from error
    if args.format == "json":
        print(json.dumps(samples, indent=2, sort_keys=True))
        return 0
    families = {name.split("{")[0] for name in samples}
    print(f"exposition       : {args.target}")
    print(
        f"samples          : {len(samples)} across "
        f"{len(families)} series"
    )
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    metrics = _ledger_close_metrics(read_ledger(args.ledger))
    if args.format == "json":
        rendered = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    else:
        rendered = render_openmetrics(metrics)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"[metrics written to {args.output}]", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    a = _obs_load_samples(args.a)
    b = _obs_load_samples(args.b)
    changed = sorted(
        name
        for name in a.keys() & b.keys()
        if a[name] != b[name]
    )
    added = sorted(b.keys() - a.keys())
    removed = sorted(a.keys() - b.keys())
    for name in changed:
        print(f"~ {name}: {a[name]:g} -> {b[name]:g}")
    for name in added:
        print(f"+ {name}: {b[name]:g}")
    for name in removed:
        print(f"- {name}: {a[name]:g}")
    if not (changed or added or removed):
        print(f"identical: {len(a)} samples")
        return 0
    print(
        f"{len(changed)} changed, {len(added)} added, "
        f"{len(removed)} removed"
    )
    return 1


def _cmd_obs(args: argparse.Namespace) -> int:
    handlers = {
        "summary": _cmd_obs_summary,
        "export": _cmd_obs_export,
        "diff": _cmd_obs_diff,
    }
    return handlers[args.obs_command](args)


def _cmd_match(args: argparse.Namespace) -> int:
    with open(args.file, "rb") as handle:
        data = handle.read()
    automaton, stats = compile_ruleset(args.pattern, name="cli")
    print(
        f"{stats.num_rules} patterns -> {automaton.num_states} states "
        f"({stats.compression:.0%} prefix compression)"
    )
    baseline = run_sequential(automaton, data)
    pap = ParallelAutomataProcessor(
        automaton, config=PAPConfig(geometry=BoardGeometry(ranks=args.ranks))
    )
    result = pap.run(data)
    status = "OK" if result.reports == baseline.reports else "MISMATCH"
    print(
        f"{len(baseline.reports)} matches over {len(data)} bytes "
        f"[verification {status}]"
    )
    print(
        f"speedup {baseline.total_cycles / max(1, result.total_cycles):.2f}x "
        f"on {result.num_segments} segments"
    )
    limit = args.show
    for report in sorted(result.reports)[:limit]:
        print(f"  rule {report.code} at offset {report.offset}")
    return 0 if status == "OK" else 1


def _lint_target(name: str, args: argparse.Namespace) -> Automaton:
    """Resolve one lint target: benchmark name, ANML-lite JSON, or
    ANML XML file."""
    if name in BENCHMARK_NAMES:
        bench = build_benchmark(name, scale=args.scale, seed=args.seed)
        return bench.automaton
    # Files load WITHOUT Automaton.validate: reporting AP001/AP002/AP003
    # on a broken automaton is the linter's job, not a crash.
    try:
        if name.endswith(".json"):
            with open(name, "r", encoding="utf-8") as handle:
                return automaton_loads(handle.read(), validate=False)
        if name.endswith((".anml", ".xml")):
            with open(name, "r", encoding="utf-8") as handle:
                return automaton_from_anml_xml(
                    handle.read(), validate=False
                )
    except (OSError, ValueError, AutomatonError) as error:
        raise SystemExit(f"cannot load {name!r}: {error}") from error
    raise SystemExit(
        f"unknown lint target {name!r}: not a benchmark name "
        f"(see `repro list`) or a .json/.anml/.xml automaton file"
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    targets = list(args.target)
    if args.suite:
        targets.extend(BENCHMARK_NAMES)
    if not targets:
        raise SystemExit("no lint targets: pass names/files or --suite")
    families = None
    if args.rules:
        families = tuple(
            family for family in args.rules.split(",") if family
        )
        try:
            rules_for(families)
        except ConfigurationError as error:
            raise SystemExit(str(error)) from error
    config = LintConfig(
        geometry=BoardGeometry(ranks=args.ranks),
        counters_used=args.counters,
        booleans_used=args.booleans,
    )
    min_severity = Severity.parse(args.severity)
    reports = []
    for name in targets:
        automaton = _lint_target(name, args)
        reports.append(
            run_lint(automaton, config=config, families=families)
        )
    if args.format == "json":
        print(render_json(reports, min_severity=min_severity))
    elif args.format == "sarif":
        print(render_sarif(reports, min_severity=min_severity))
    else:
        print(render_text(reports, min_severity=min_severity))
    return 1 if severity_gate(reports, args.fail_on) else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    names = tuple(args.target)
    if args.suite:
        names = names + tuple(
            name for name in BENCHMARK_NAMES if name not in names
        )
    if not names:
        raise SystemExit(
            "no analyze targets: pass benchmark names or --suite"
        )
    unknown = [name for name in names if name not in BENCHMARK_NAMES]
    if unknown:
        raise SystemExit(
            f"unknown benchmark(s) {', '.join(sorted(unknown))} "
            f"(see `repro list`)"
        )
    report = analyze_suite(
        names,
        label=args.label,
        scale=args.scale,
        seed=args.seed,
        ranks=args.ranks,
        trace_bytes=args.trace_bytes,
        modeled_bytes=PAPER_BYTES.get(args.model_input),
        use_trials=not args.no_trials,
        progress=lambda line: print(line, file=sys.stderr),
    )
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, ConfigurationError) as error:
            print(f"repro analyze: {error}", file=sys.stderr)
            return 2
        report = compare_to_baseline(
            report, baseline, tolerance=args.tolerance
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"[analysis artifact written to {args.out}]", file=sys.stderr)
    if args.format == "json":
        print(report.to_json(), end="")
    elif args.format == "sarif":
        print(render_analysis_sarif(report))
    else:
        print(render_analysis_text(report))
    return 0 if report.passed else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    for name in BENCHMARK_NAMES:
        bench = build_benchmark(name, scale=args.scale, seed=args.seed)
        analysis = AutomatonAnalysis(bench.automaton)
        components = len(analysis.connected_components())
        data = bench.trace(16_384, args.seed + 7)
        choice = choose_partition_symbol(
            analysis,
            data,
            num_segments=bench.paper.segments_one_rank,
            exclude=analysis.path_independent_states(),
        )
        raw = len(analysis.symbol_range(choice.symbol))
        rows.append((bench, bench.automaton.num_states, components, raw))
    print(format_table1(rows))
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    rows = []
    for name in BENCHMARK_NAMES:
        bench = build_benchmark(name, scale=args.scale, seed=args.seed)
        analysis = AutomatonAnalysis(bench.automaton)
        rows.append(
            (name, bench.automaton.num_states, range_profile(analysis))
        )
    print(format_figure3(rows))
    return 0


def _cmd_speculate(args: argparse.Namespace) -> int:
    bench = build_benchmark(args.benchmark, scale=args.scale, seed=args.seed)
    data = bench.trace(args.trace_bytes, args.seed + 1)
    baseline = run_sequential(bench.automaton, data)
    config = PAPConfig(geometry=BoardGeometry(ranks=args.ranks))
    for predictor in ("cold", "profile"):
        spec = SpeculativeAutomataProcessor(
            bench.automaton,
            config=config,
            half_cores=bench.half_cores,
            predictor=predictor,
        )
        result = spec.run(data)
        ok = result.reports == baseline.reports
        print(
            f"{predictor:<8} speedup "
            f"{baseline.total_cycles / max(1, result.total_cycles):6.2f}x  "
            f"accuracy {result.prediction_accuracy * 100:5.1f}%  "
            f"mispredictions {result.mispredictions}  "
            f"[{'OK' if ok else 'MISMATCH'}]"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel Automata Processor reproduction "
            "(Subramaniyan & Das, ISCA 2017)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the evaluation benchmarks")

    run_parser = commands.add_parser("run", help="run one benchmark")
    run_parser.add_argument("benchmark", choices=BENCHMARK_NAMES)
    _add_workload(run_parser)
    run_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="summary output format",
    )
    run_parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome trace-event JSON of the run (Perfetto)",
    )
    run_parser.add_argument(
        "--trace-domain",
        choices=("cycles", "wall"),
        default="cycles",
        help="time domain of the exported trace",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the verified phase profile (cycle and wall time per "
            "phase and segment) after the summary; with --format json it "
            "is the summary's \"phases\" field"
        ),
    )
    run_parser.add_argument(
        "--speedscope",
        metavar="PATH",
        help="write the verified cycle attribution as a speedscope profile",
    )
    run_parser.add_argument(
        "--folded",
        metavar="PATH",
        help="write the verified cycle attribution as collapsed stacks",
    )
    run_parser.add_argument(
        "--ledger",
        metavar="PATH",
        help=(
            "record the run to a JSONL flight-recorder ledger; on "
            "failure a crash bundle is written next to it "
            "(PATH.crash.json)"
        ),
    )
    run_parser.add_argument(
        "--metrics-export",
        metavar="PATH",
        help=(
            "write the run's metrics registry as an OpenMetrics/"
            "Prometheus text exposition"
        ),
    )
    run_parser.add_argument(
        "--drift-baseline",
        metavar="ANALYZE_JSON",
        help=(
            "ANALYZE_*.json artifact with this benchmark's cost-model "
            "prediction; the run is checked live against it and AP4xx "
            "drift diagnostics are reported"
        ),
    )
    run_parser.add_argument(
        "--drift-tolerance",
        type=_positive_float,
        default=0.10,
        help=(
            "relative divergence beyond which a drift diagnostic "
            "fires (default 0.10)"
        ),
    )
    _add_backend(run_parser)
    _add_resilience(run_parser)
    run_parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "admission guard: refuse a run whose input plus largest "
            "segment exceeds BYTES; a --no-fiv run on --backend process "
            "that fits one segment but not all of them dispatches "
            "segments in waves that fit"
        ),
    )
    _add_common(run_parser)

    chaos_parser = commands.add_parser(
        "chaos",
        help="seeded fault-matrix sweep with bit-exact recovery gating",
        description=(
            "Sweep a fault matrix (kind x segment coordinate) over one "
            "workload: each cell injects a deterministic fault, lets "
            "the recovery machinery (retries, timeouts, hedging, "
            "checkpoint resume) handle it, and verifies the recovered "
            "run's cycle fingerprint against the fault-free run. "
            "Exit codes: 0 all recoveries bit-exact, 1 any divergence "
            "or unrecovered fault, 2 usage."
        ),
    )
    chaos_parser.add_argument("benchmark", choices=BENCHMARK_NAMES)
    chaos_parser.add_argument(
        "--kinds",
        default="crash+hang+transient+straggler",
        help=(
            "'+'-separated fault kinds to sweep "
            f"(any of {'+'.join(CHAOS_KINDS)})"
        ),
    )
    chaos_parser.add_argument(
        "--segments",
        type=int,
        default=3,
        help="segment coordinates per kind, spread over the run",
    )
    chaos_parser.add_argument(
        "--ranks", type=int, default=1, choices=(1, 2, 4)
    )
    chaos_parser.add_argument("--trace-bytes", type=int, default=16_384)
    chaos_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for the faulted process-backend trials",
    )
    chaos_parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-executions allowed per segment in each trial",
    )
    chaos_parser.add_argument(
        "--segment-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-segment dispatch timeout (recovers hang faults)",
    )
    chaos_parser.add_argument(
        "--hang",
        type=float,
        default=6.0,
        metavar="SECONDS",
        help=(
            "injected hang duration; exceeds --segment-timeout so the "
            "deadline path must fire whenever hedging cannot beat it"
        ),
    )
    chaos_parser.add_argument(
        "--straggler",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="injected straggler delay (hedging should beat it)",
    )
    chaos_parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    _add_common(chaos_parser)

    bench_parser = commands.add_parser(
        "bench",
        help="benchmark artifacts and regression gating (repro.perf)",
        description=(
            "Capture machine-readable BENCH_*.json benchmark artifacts "
            "(cycle metrics, one run per workload), diff them exactly, "
            "and render reports. Host wall time is measured by "
            "perfbench, not here. Exit codes: 0 clean, 1 any "
            "difference, 2 usage."
        ),
    )
    bench_commands = bench_parser.add_subparsers(
        dest="bench_command", required=True
    )

    bench_run = bench_commands.add_parser(
        "run", help="run benchmarks and write a BENCH_*.json artifact"
    )
    bench_run.add_argument(
        "--benchmarks",
        default="",
        help="comma-separated subset (default: the full suite)",
    )
    _add_workload(bench_run)
    bench_run.add_argument("--label", default="local")
    bench_run.add_argument(
        "-o", "--out", help="artifact path (default BENCH_<label>.json)"
    )
    bench_run.add_argument(
        "--format", choices=("text", "markdown", "json"), default="text"
    )
    _add_backend(bench_run)
    _add_resilience(bench_run)
    _add_common(bench_run)

    bench_compare = bench_commands.add_parser(
        "compare",
        help=(
            "diff two artifacts; exit 1 on any difference (a cycle "
            "value, or a metric or workload on one side only)"
        ),
    )
    bench_compare.add_argument("baseline", help="baseline BENCH_*.json")
    bench_compare.add_argument("candidate", help="candidate BENCH_*.json")
    bench_compare.add_argument(
        "--format", choices=("text", "markdown", "json"), default="text"
    )

    bench_report = bench_commands.add_parser(
        "report", help="render one artifact"
    )
    bench_report.add_argument("artifact", help="a BENCH_*.json file")
    bench_report.add_argument(
        "--format", choices=("text", "markdown", "json"), default="text"
    )

    obs_parser = commands.add_parser(
        "obs",
        help="read run artifacts: ledgers, metrics, traces, profiles",
        description=(
            "Work with the artifacts `repro run` writes: validate and "
            "summarize JSONL run ledgers, OpenMetrics expositions, "
            "Chrome traces or speedscope profiles, export a ledger's "
            "metrics snapshot, and diff two metric sets. Exit codes: 0 "
            "clean/identical, 1 invalid artifact or differences, 2 usage."
        ),
    )
    obs_commands = obs_parser.add_subparsers(
        dest="obs_command", required=True
    )
    obs_summary = obs_commands.add_parser(
        "summary", help="validate + summarize one run artifact"
    )
    obs_summary.add_argument(
        "target",
        help="a JSONL ledger, OpenMetrics file, Chrome trace or speedscope",
    )
    obs_summary.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    obs_export = obs_commands.add_parser(
        "export",
        help="render a sealed ledger's metrics snapshot",
    )
    obs_export.add_argument("ledger", help="a JSONL flight-recorder ledger")
    obs_export.add_argument(
        "-o", "--output", help="write here instead of stdout"
    )
    obs_export.add_argument(
        "--format", choices=("openmetrics", "json"), default="openmetrics"
    )
    obs_diff = obs_commands.add_parser(
        "diff",
        help="diff two metric sets; exit 1 when they differ",
    )
    obs_diff.add_argument(
        "a", help="baseline ledger or OpenMetrics file"
    )
    obs_diff.add_argument(
        "b", help="candidate ledger or OpenMetrics file"
    )

    match_parser = commands.add_parser(
        "match", help="scan a file with regex patterns"
    )
    match_parser.add_argument("file")
    match_parser.add_argument(
        "--pattern", action="append", required=True, help="repeatable"
    )
    match_parser.add_argument("--ranks", type=int, default=1, choices=(1, 2, 4))
    match_parser.add_argument("--show", type=int, default=10)

    lint_parser = commands.add_parser(
        "lint",
        help="static diagnostics for automata (apcheck)",
        description=(
            "Run the apcheck static-analysis pass: structural "
            "well-formedness, parallelization risk, and AP capacity "
            "diagnostics with stable AP0xx/AP1xx/AP2xx codes."
        ),
    )
    lint_parser.add_argument(
        "target",
        nargs="*",
        help="benchmark names (see `repro list`) or .json/.anml/.xml files",
    )
    lint_parser.add_argument(
        "--suite",
        action="store_true",
        help="lint every bundled benchmark generator",
    )
    lint_parser.add_argument(
        "--rules",
        default="",
        help=f"comma-separated rule families ({', '.join(FAMILIES)})",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    lint_parser.add_argument(
        "--severity",
        choices=("info", "warning", "error"),
        default="info",
        help="minimum severity to display",
    )
    lint_parser.add_argument(
        "--fail-on",
        choices=("info", "warning", "error", "never"),
        default="error",
        help="exit 1 when diagnostics at/above this severity exist",
    )
    lint_parser.add_argument("--ranks", type=int, default=4, choices=(1, 2, 4))
    lint_parser.add_argument(
        "--counters",
        type=int,
        default=0,
        help="counter elements the deployment will program",
    )
    lint_parser.add_argument(
        "--booleans",
        type=int,
        default=0,
        help="boolean elements the deployment will program",
    )
    _add_common(lint_parser)

    analyze_parser = commands.add_parser(
        "analyze",
        help="predictive parallelizability analysis (repro.analyze)",
        description=(
            "Run the semantic static-analysis pass: divergence facts "
            "and the cycle cost model (predicted enumeration cycles and "
            "speedup per workload), each row stating the half-core "
            "footprint the run places. With --baseline, predictions are "
            "gated against a committed BENCH_*.json artifact. Exit "
            "codes: 0 clean, 1 out-of-tolerance prediction or workload "
            "missing from the baseline, 2 usage."
        ),
    )
    analyze_parser.add_argument(
        "target",
        nargs="*",
        help="benchmark names (see `repro list`)",
    )
    analyze_parser.add_argument(
        "--suite",
        action="store_true",
        help="analyze every bundled benchmark",
    )
    _add_workload(analyze_parser)
    analyze_parser.add_argument(
        "--no-trials",
        action="store_true",
        help=(
            "skip concrete refinement trials; unresolved flows are "
            "pessimistically treated as survivors (fully abstract pass)"
        ),
    )
    analyze_parser.add_argument(
        "--baseline",
        metavar="BENCH_JSON",
        help="BENCH_*.json artifact to gate predictions against",
    )
    analyze_parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=(
            "relative prediction-error budget per workload "
            f"(default {DEFAULT_TOLERANCE})"
        ),
    )
    analyze_parser.add_argument("--label", default="local")
    analyze_parser.add_argument(
        "-o", "--out", help="write the full analysis report JSON here"
    )
    analyze_parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    _add_common(analyze_parser)

    table_parser = commands.add_parser(
        "table1", help="regenerate Table 1 characteristics"
    )
    _add_common(table_parser)

    fig3_parser = commands.add_parser(
        "fig3", help="regenerate Figure 3 range profiles"
    )
    _add_common(fig3_parser)

    spec_parser = commands.add_parser(
        "speculate", help="run the speculation extension"
    )
    spec_parser.add_argument("benchmark", choices=BENCHMARK_NAMES)
    spec_parser.add_argument("--ranks", type=int, default=1, choices=(1, 2, 4))
    spec_parser.add_argument("--trace-bytes", type=int, default=65_536)
    _add_common(spec_parser)

    return parser


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "chaos": _cmd_chaos,
    "bench": _cmd_bench,
    "obs": _cmd_obs,
    "match": _cmd_match,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "table1": _cmd_table1,
    "fig3": _cmd_fig3,
    "speculate": _cmd_speculate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0
    except ReproError as error:
        # Operational failures (execution errors, lint gate rejections,
        # exhausted retries, ...) exit 1 with a one-line message; a
        # traceback is for repro bugs, not for runs that legitimately
        # failed.  Exit 2 stays reserved for usage errors.
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
