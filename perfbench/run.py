"""Verified-run benchmark: three workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload levenshtein-serial --seed 0 \\
        --seconds 25 --trace 0

Every run goes through the program's own verified-run path,
:func:`repro.sim.runner.run_benchmark`: PAP construction plus ``.run``,
the sequential reference, and the report-set check.  The automaton and
the input bytes are generated during set-up, so the timed calls receive
only bytes.  Set-up (automaton, input, backend start, one untimed
warm-up run) is repeated :data:`SETUP_REPS` times and reported as its
median.

While each timed call runs, a timer samples the host's speed, and every
time printed is the wall scaled to a fixed reference speed (see
``hostspeed.py``); the wall as measured is printed beside it.

``--trace 0`` times untraced runs and prints the end-to-end metrics,
each timing the median over its timed runs.
``--trace 1`` is the separate traced pass: it wraps each layer's public
calls (see ``layers.py``), reports self time per layer plus the counts
the program's results already carry, checks that the layers add up to
the traced verified run, and writes the spans to ``perfbench/out/``.

Every run is checked: the reports must equal the sequential reference,
and ``BenchmarkRun.to_dict()["cycles"]`` must equal the payload recorded
in ``expected_cycles.json`` (or, for a seed with no recorded payload,
the first warm-up run's).  A run that raises or mismatches counts as
failed, not timed, and the command then exits 1.  The last line of
standard output is the JSON result.

``--seed n`` selects the input: trace seed ``n + 1`` on the automaton
of ``--automaton-seed`` (default 0), so ``--seed 0`` reproduces the
``BENCH_seed.json`` rows (as ``repro bench run --seed 0`` does).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, and insist on it."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {package}"
        )


_import_program()

from hostspeed import REFERENCE_S, HostClock  # noqa: E402
from layers import (  # noqa: E402
    ROOT_SPAN,
    SpanRecorder,
    inclusive_times,
    self_times,
    wrapped,
)

from repro.ap.geometry import BoardGeometry  # noqa: E402
from repro.core.config import DEFAULT_CONFIG, PAPConfig  # noqa: E402
from repro.core.metrics import PAPRunResult  # noqa: E402
from repro.core.pap import ParallelAutomataProcessor  # noqa: E402
from repro.exec.backend import ExecutionBackend, resolve_backend  # noqa: E402
from repro.perf.measure import summarize_samples  # noqa: E402
from repro.sim.runner import BenchmarkRun, run_benchmark  # noqa: E402
from repro.workloads.suite import BenchmarkInstance, build_benchmark  # noqa: E402

SCALE = 0.1
TRACE_BYTES = 65_536
MODEL_FACTOR = 16
"""The 64 KiB trace stands in for the paper's 1 MiB input."""
SETUP_REPS = 3
MIN_ITERATIONS = 3
RESIDUAL_FRAC = 0.05
"""Largest share of a traced verified run the layers may leave
unattributed before the traced run counts as failed."""
EXPECTED_PATH = HERE / "expected_cycles.json"
OUT_DIR = HERE / "out"


@dataclass(frozen=True)
class Workload:
    benchmark: str
    workers: int | None
    """Process-pool size; ``None`` runs the program's default in-process
    backend.  No workload sets an engine option."""


WORKLOADS = {
    "levenshtein-serial": Workload("Levenshtein", None),
    "snort-serial": Workload("Snort", None),
    "bro217-process": Workload("Bro217", 2),
}

#: (name, unit) of the end-to-end metrics printed with ``--trace 0``.
END_TO_END = (
    ("verified_run_s", "s"),
    ("pap_run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_speedup", "x"),
    ("passed_run_frac", "ratio"),
)

#: (name, unit) of the per-layer metrics printed with ``--trace 1``.
PER_LAYER = (
    ("workloads.build_s", "s"),
    ("workloads.trace_s", "s"),
    ("ap.reference_s", "s"),
    ("core.pap_init_s", "s"),
    ("core.plan_s", "s"),
    ("core.ranges_s", "s"),
    ("core.enumeration_s", "s"),
    ("core.segment_s", "s"),
    ("core.compose_s", "s"),
    ("exec.execute_s", "s"),
    ("exec.overhead_s", "s"),
    ("core.run_rest_s", "s"),
    ("ap.reference_transitions", "count"),
    ("core.transitions", "count"),
    ("core.extra_work_ratio", "ratio"),
    ("ap.ns_per_transition", "ns"),
    ("core.ns_per_transition", "ns"),
    ("core.segments", "count"),
    ("core.planned_flows", "count"),
    ("core.avg_active_flows", "count"),
    ("core.deactivations", "count"),
    ("core.convergence_merges", "count"),
    ("core.fiv_invalidations", "count"),
    ("core.svc_hits", "count"),
    ("core.svc_misses", "count"),
    ("core.true_event_frac", "ratio"),
    ("exec.attempts", "count"),
    ("exec.retries", "count"),
    ("obs.unattributed_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
)

#: Span name -> the additive layer metric its self time lands in.  The
#: self time of ``exec.execute`` is the backend's own overhead; that of
#: ``core.run`` is ``.run`` minus plan and execute.
LAYER_OF_SPAN = {
    "ap.reference": "ap.reference_s",
    "core.pap_init": "core.pap_init_s",
    "core.plan": "core.plan_s",
    "core.ranges": "core.ranges_s",
    "core.enumeration": "core.enumeration_s",
    "core.segment": "core.segment_s",
    "core.compose": "core.compose_s",
    "exec.execute": "exec.overhead_s",
    "core.run": "core.run_rest_s",
}


@dataclass(frozen=True)
class Seeds:
    automaton: int
    trace: int

    @property
    def key(self) -> str:
        return f"{self.automaton}/{self.trace}"


@dataclass
class Prepared:
    """One finished set-up: what every timed run reuses."""

    bench: BenchmarkInstance
    """The generated benchmark, its trace factory replaying ``data``."""
    data: bytes
    seeds: Seeds
    backend: ExecutionBackend | None
    warm: BenchmarkRun | None = None
    """The untimed warm-up run; its baseline is the PAP-only runs'
    reference."""

    @property
    def config(self) -> PAPConfig:
        """The configuration ``run_benchmark`` derives for this input."""
        return replace(
            DEFAULT_CONFIG,
            geometry=BoardGeometry(ranks=1),
            timing=DEFAULT_CONFIG.timing.scaled_for_input(
                len(self.data), len(self.data) * MODEL_FACTOR
            ),
        )


class Expectation:
    """The cycle payload every run of one workload must reproduce."""

    def __init__(self, recorded: dict | None) -> None:
        self.cycles = recorded
        self.source = "recorded" if recorded is not None else "first warm-up run"

    def check(self, run: BenchmarkRun) -> str | None:
        if not run.reports_match:
            return "report set differs from the sequential reference"
        cycles = run.to_dict()["cycles"]
        if self.cycles is None:
            self.cycles = cycles
            return None
        if cycles != self.cycles:
            keys = sorted(
                key
                for key in cycles.keys() | self.cycles.keys()
                if cycles.get(key) != self.cycles.get(key)
            )
            return f"cycle payload differs on {', '.join(keys)}"
        return None


@dataclass
class Samples:
    """Walls of one kind of timed run: as measured, and scaled to the
    reference speed."""

    wall: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)

    def add(self, outcome: tuple[Any, float, float]) -> None:
        self.wall.append(outcome[1])
        self.scaled.append(outcome[2])


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    clock: HostClock = field(default_factory=HostClock)

    def timed(
        self,
        label: str,
        call: Callable[[], Any],
        check: Callable[[Any], str | None],
    ) -> tuple[Any, float, float] | None:
        """One attempted run: its result, wall and scaled wall, or
        ``None`` if it raised or failed ``check`` (then it is counted,
        not timed)."""
        self.attempted += 1
        gc.collect()
        try:
            outcome = self.clock.time(call)
        except Exception as error:  # noqa: BLE001 - any raise fails the run
            self.failures.append(f"{label}: {type(error).__name__}: {error}")
            return None
        problem = check(outcome[0])
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
            return None
        return outcome


def _replay(data: bytes) -> Callable[[int, int], bytes]:
    """A trace factory handing back the bytes generated in set-up."""

    def trace(length: int, trace_seed: int) -> bytes:
        if length != len(data):
            raise ValueError(f"set-up generated {len(data)} bytes, not {length}")
        return data

    return trace


def verified_run(prep: Prepared) -> BenchmarkRun:
    return run_benchmark(
        prep.bench,
        trace_bytes=len(prep.data),
        modeled_bytes=len(prep.data) * MODEL_FACTOR,
        trace_seed=prep.seeds.trace,
        backend=prep.backend,
    )


def pap_run(prep: Prepared) -> PAPRunResult:
    pap = ParallelAutomataProcessor(
        prep.bench.automaton,
        config=prep.config,
        half_cores=prep.bench.half_cores,
    )
    return pap.run(prep.data, backend=prep.backend)


def as_benchmark_run(prep: Prepared, result: PAPRunResult) -> BenchmarkRun:
    """A PAP-only result against the warm-up run's reference."""
    baseline = prep.warm.baseline
    return BenchmarkRun(
        name=prep.bench.name,
        ranks=1,
        trace_bytes=len(prep.data),
        baseline=baseline,
        pap=result,
        reports_match=result.reports == baseline.reports,
    )


def set_up(
    spec: Workload,
    seeds: Seeds,
    trace_bytes: int,
    recorder: SpanRecorder,
    backends: list[ExecutionBackend],
) -> Prepared:
    """Generate the automaton and input, start the backend, warm up."""
    with recorder.span("setup"):
        with recorder.span("workloads.build"):
            bench = build_benchmark(
                spec.benchmark, scale=SCALE, seed=seeds.automaton
            )
        with recorder.span("workloads.trace"):
            data = bench.trace(trace_bytes, seeds.trace)
        backend = None
        if spec.workers is not None:
            backend = resolve_backend("process", workers=spec.workers)
            backends.append(backend)
        prep = Prepared(
            bench=replace(bench, trace=_replay(data)),
            data=data,
            seeds=seeds,
            backend=backend,
        )
        with recorder.span("warm_up"):
            prep.warm = verified_run(prep)
    return prep


def set_up_repeatedly(
    spec: Workload,
    seeds: Seeds,
    trace_bytes: int,
    recorder: SpanRecorder,
    tally: Tally,
    expect: Expectation,
    backends: list[ExecutionBackend],
) -> tuple[Prepared | None, Samples]:
    """:data:`SETUP_REPS` independent set-ups; the last one is kept."""
    prep: Prepared | None = None
    samples = Samples()
    for rep in range(SETUP_REPS):
        recorder.run = f"setup-{rep}"
        for backend in backends:
            backend.close()
        outcome = tally.timed(
            "set-up",
            lambda: set_up(spec, seeds, trace_bytes, recorder, backends),
            lambda prepared: expect.check(prepared.warm),
        )
        if outcome is None:
            return None, samples
        prep = outcome[0]
        samples.add(outcome)
    return prep, samples


def timed_pass(
    prep: Prepared, seconds: float, tally: Tally, expect: Expectation
) -> dict[str, Samples]:
    """Untraced verified runs alternating with PAP-only runs."""
    samples = {"verified_run_s": Samples(), "pap_run_s": Samples()}
    deadline = perf_counter() + seconds
    iteration = 0
    while iteration < MIN_ITERATIONS or perf_counter() < deadline:
        iteration += 1
        outcome = tally.timed(
            "verified run", lambda: verified_run(prep), expect.check
        )
        if outcome is not None:
            samples["verified_run_s"].add(outcome)
        outcome = tally.timed(
            "PAP run",
            lambda: pap_run(prep),
            lambda result: expect.check(as_benchmark_run(prep, result)),
        )
        if outcome is not None:
            samples["pap_run_s"].add(outcome)
    return samples


def traced_run(prep: Prepared, recorder: SpanRecorder, run: str) -> BenchmarkRun:
    recorder.run = run
    with wrapped(recorder), recorder.span(ROOT_SPAN):
        return verified_run(prep)


def residual_problem(recorder: SpanRecorder, run: str) -> str | None:
    total = inclusive_times(recorder, run)[ROOT_SPAN]
    unattributed = self_times(recorder, run)[ROOT_SPAN]
    if unattributed > RESIDUAL_FRAC * total:
        return (
            f"layers leave {unattributed:.4f}s of the {total:.4f}s traced "
            f"run unattributed (limit {RESIDUAL_FRAC:.0%})"
        )
    return None


def layer_times(
    recorder: SpanRecorder,
    run: tuple[str, float],
    replay: tuple[str, float] | None,
) -> dict[str, float]:
    """Self time per layer of one traced verified run, at the reference
    speed.

    ``run`` and ``replay`` are a run id and the factor that scales its
    walls to the reference speed.  With ``replay`` (the process-pool
    workload) segment execution ran in pool workers, out of the
    wrappers' sight: ``core.segment_s`` comes from the in-process replay
    of the same input, and the backend's overhead is what ``execute``
    spent beyond that and composition.
    """
    run_id, scale = run
    own = self_times(recorder, run_id)
    layers = {metric: 0.0 for metric in LAYER_OF_SPAN.values()}
    for span, metric in LAYER_OF_SPAN.items():
        layers[metric] += own.get(span, 0.0) * scale
    if replay is not None:
        replay_id, replay_scale = replay
        segment = self_times(recorder, replay_id).get("core.segment", 0.0)
        layers["core.segment_s"] += segment * replay_scale
        layers["exec.overhead_s"] -= segment * replay_scale
    inclusive = inclusive_times(recorder, run_id)
    layers["exec.execute_s"] = inclusive.get("exec.execute", 0.0) * scale
    layers["obs.unattributed_s"] = own[ROOT_SPAN] * scale
    return layers


def run_counts(run: BenchmarkRun, layers: dict[str, float]) -> dict[str, float]:
    """Counts and ratios from the results the program returns."""
    pap, baseline = run.pap, run.baseline
    svc = pap.extra.get("svc", {})
    health = pap.extra.get("health", {})
    return {
        "ap.reference_transitions": baseline.transitions,
        "core.transitions": pap.transitions,
        "core.extra_work_ratio": run.extra_transitions_per_symbol,
        "ap.ns_per_transition": (
            layers["ap.reference_s"] * 1e9 / max(1, baseline.transitions)
        ),
        "core.ns_per_transition": (
            layers["core.segment_s"] * 1e9 / max(1, pap.transitions)
        ),
        "core.segments": pap.num_segments,
        "core.planned_flows": sum(len(plan.flows) for plan in pap.plans),
        "core.avg_active_flows": pap.average_active_flows,
        "core.deactivations": pap.deactivations,
        "core.convergence_merges": pap.convergence_merges,
        "core.fiv_invalidations": pap.fiv_invalidations,
        "core.svc_hits": svc.get("hits", 0),
        "core.svc_misses": svc.get("misses", 0),
        "core.true_event_frac": pap.true_events / max(1, pap.raw_events),
        "exec.attempts": health.get("total_attempts", 0),
        "exec.retries": health.get("retries", 0),
    }


def traced_pass(
    prep: Prepared,
    seconds: float,
    tally: Tally,
    expect: Expectation,
    recorder: SpanRecorder,
) -> tuple[list[dict[str, float]], Samples]:
    """Untraced and traced verified runs, alternating.

    Returns one row of layer times and counts per traced run, and the
    untraced walls the tracing overhead is measured against.
    """
    replayed = prep.backend is not None
    in_process = replace(prep, backend=None)
    rows: list[dict[str, float]] = []
    untraced = Samples()
    deadline = perf_counter() + seconds
    iteration = 0
    while iteration < MIN_ITERATIONS or perf_counter() < deadline:
        iteration += 1
        outcome = tally.timed(
            "verified run", lambda: verified_run(prep), expect.check
        )
        if outcome is not None:
            untraced.add(outcome)
        run_id = f"traced-{iteration}"
        traced = tally.timed(
            "traced verified run",
            lambda: traced_run(prep, recorder, run_id),
            lambda run: expect.check(run)
            or residual_problem(recorder, run_id),
        )
        replay = None
        if replayed:
            replay_id = f"replay-{iteration}"
            outcome = tally.timed(
                "in-process replay",
                lambda: traced_run(in_process, recorder, replay_id),
                expect.check,
            )
            if outcome is None:
                continue
            replay = (replay_id, outcome[2] / outcome[1])
        if traced is None:
            continue
        scale = traced[2] / traced[1]
        layers = layer_times(recorder, (run_id, scale), replay)
        row = dict(layers, **run_counts(traced[0], layers))
        row["traced_run_s"] = (
            inclusive_times(recorder, run_id)[ROOT_SPAN] * scale
        )
        rows.append(row)
    return rows, untraced


def peak_rss_mib(with_workers: bool) -> float:
    """Peak RSS of this process, plus the largest reaped pool worker."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def git_sha() -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git repository.

    The ceiling keeps git from finding a repository above the checkout.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_expected(workload: str, seeds: Seeds, trace_bytes: int) -> dict | None:
    if trace_bytes != TRACE_BYTES or not EXPECTED_PATH.is_file():
        return None
    recorded = json.loads(EXPECTED_PATH.read_text())
    return recorded.get(workload, {}).get(seeds.key)


def stop_resource_tracker() -> None:
    """Reap multiprocessing's resource tracker, started by the pool."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timing(name: str, samples: Samples) -> float:
    """The median scaled wall, printed with the sample count, its MAD
    and the median wall as measured."""
    stats = summarize_samples(samples.scaled)
    wall = summarize_samples(samples.wall)
    print(
        f"  {name:<16} {stats.median_s:.6g} s  median of {stats.repeats} at "
        f"the reference speed, MAD {stats.mad_s:.3g} s; as measured "
        f"{wall.median_s:.6g} s, MAD {wall.mad_s:.3g} s"
    )
    return stats.median_s


def end_to_end(
    setup: Samples,
    samples: dict[str, Samples],
    prep: Prepared,
    tally: Tally,
    rss_mib: float,
) -> dict[str, dict]:
    metrics = {
        "verified_run_s": _timing("verified_run_s", samples["verified_run_s"]),
        "pap_run_s": _timing("pap_run_s", samples["pap_run_s"]),
        "setup_s": _timing("setup_s", setup),
        "peak_rss_mib": rss_mib,
        "sim_speedup": prep.warm.speedup,
        "passed_run_frac": 1 - len(tally.failures) / tally.attempted,
    }
    for name in ("peak_rss_mib", "sim_speedup", "passed_run_frac"):
        print(f"  {name:<16} {metrics[name]:.6g}")
    return {name: _metric(metrics[name], unit) for name, unit in END_TO_END}


def per_layer(
    setup_spans: dict[str, list[float]],
    rows: list[dict[str, float]],
    untraced: Samples,
) -> dict[str, dict]:
    metrics = {
        name: median(setup_spans[name])
        for name in ("workloads.build_s", "workloads.trace_s")
    }
    for name, _ in PER_LAYER:
        if name not in metrics and name != "obs.trace_overhead_frac":
            metrics[name] = median(row[name] for row in rows)
    traced = median(row["traced_run_s"] for row in rows)
    metrics["obs.trace_overhead_frac"] = traced / median(untraced.scaled) - 1
    print(f"  traced verified run {traced:.6g} s, median of {len(rows)}")
    for name, unit in PER_LAYER:
        share = (
            f"  {metrics[name] / traced:6.1%}"
            if unit == "s" and not name.startswith("workloads.")
            else ""
        )
        print(f"  {name:<26} {metrics[name]:<14.6g} {unit}{share}")
    return {name: _metric(metrics[name], unit) for name, unit in PER_LAYER}


def measure(
    args: argparse.Namespace,
    spec: Workload,
    seeds: Seeds,
    expect: Expectation,
    tally: Tally,
) -> dict[str, dict]:
    """Set up, run the timed or the traced pass, and summarize it.

    Returns no metrics when set-up failed or no run of a kind passed.
    """
    recorder = SpanRecorder()
    backends: list[ExecutionBackend] = []
    try:
        prep, setup = set_up_repeatedly(
            spec, seeds, args.trace_bytes, recorder, tally, expect, backends
        )
        if prep is None:
            return {}
        if args.trace:
            rows, untraced = traced_pass(
                prep, args.seconds, tally, expect, recorder
            )
        else:
            samples = timed_pass(prep, args.seconds, tally, expect)
    finally:
        for backend in backends:
            backend.close()
        stop_resource_tracker()
    print(
        f"host speed: median probe {median(tally.clock.probes):.4g} s, "
        f"reference {REFERENCE_S:.4g} s"
    )
    if not args.trace:
        if not all(kind.scaled for kind in samples.values()):
            return {}
        rss = peak_rss_mib(with_workers=spec.workers is not None)
        return end_to_end(setup, samples, prep, tally, rss)
    if not rows or not untraced.scaled:
        return {}
    scale = {
        f"setup-{rep}": scaled / wall
        for rep, (wall, scaled) in enumerate(zip(setup.wall, setup.scaled))
    }
    setup_spans: dict[str, list[float]] = {}
    for span in recorder.spans:
        if span.name.startswith("workloads."):
            setup_spans.setdefault(span.name + "_s", []).append(
                (span.end - span.start) * scale[span.run]
            )
    metrics = per_layer(setup_spans, rows, untraced)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(recorder.to_dict()))
    print(f"  {len(recorder.spans)} spans written to {out.relative_to(ROOT)}")
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--automaton-seed", type=int, default=0)
    parser.add_argument("--trace-bytes", type=int, default=TRACE_BYTES)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    seeds = Seeds(automaton=args.automaton_seed, trace=args.seed + 1)
    expect = Expectation(load_expected(args.workload, seeds, args.trace_bytes))
    print(
        "environment: "
        + json.dumps(
            {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "git_sha": git_sha(),
                "workers": spec.workers or 1,
                "workload": args.workload,
                "benchmark": spec.benchmark,
                "scale": SCALE,
                "automaton_seed": seeds.automaton,
                "trace_seed": seeds.trace,
                "trace_bytes": args.trace_bytes,
                "modeled_bytes": args.trace_bytes * MODEL_FACTOR,
                "expected_cycles": expect.source,
            }
        )
    )
    print(
        "caches: the pool is spawned by the warm-up run and reused; each "
        "run builds a fresh CompiledAutomaton, state-vector cache and "
        "vector limb cache, and the pool workers' compile cache is keyed "
        "per run"
    )
    tally = Tally()
    metrics = measure(args, spec, seeds, expect, tally)
    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": not tally.failures,
                "attempted": tally.attempted,
                "failed": len(tally.failures),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 1 if tally.failures else 0


if __name__ == "__main__":
    sys.exit(main())
