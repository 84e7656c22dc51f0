"""Self-test of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench -q``.
Each workload runs once per pass on a tiny input.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from dataclasses import replace
from time import perf_counter

import pytest

import record_expected
import run as harness
from hostspeed import INTERVAL_S, HostClock

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
TINY_BYTES = 8192


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(
    workload: str, trace: int
) -> None:
    proc = subprocess.run(
        [
            sys.executable,
            str(harness.HERE / "run.py"),
            "--workload", workload,
            "--seed", "0",
            "--seconds", "0",
            "--trace", str(trace),
            "--trace-bytes", str(TINY_BYTES),
        ],
        cwd=harness.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }


def test_tampered_reference_counts_as_failed_run(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    tally = harness.Tally()
    expect = harness.Expectation(None)
    prep, _ = harness.set_up_repeatedly(
        harness.WORKLOADS["levenshtein-serial"],
        harness.Seeds(automaton=0, trace=1),
        TINY_BYTES,
        harness.SpanRecorder(),
        tally,
        expect,
        [],
    )
    assert prep is not None and not tally.failures

    runner = sys.modules["repro.sim.runner"]
    real = runner.run_sequential

    def one_report_short(*args: object, **kwargs: object) -> object:
        baseline = real(*args, **kwargs)
        assert baseline.reports
        return replace(
            baseline, reports=baseline.reports - {next(iter(baseline.reports))}
        )

    monkeypatch.setattr(runner, "run_sequential", one_report_short)
    samples = harness.timed_pass(prep, 0, tally, expect)
    # Every verified run fails and goes untimed; the PAP-only runs are
    # checked against the untampered warm-up reference and still pass.
    assert samples["verified_run_s"].scaled == []
    assert len(tally.failures) == harness.MIN_ITERATIONS
    assert all(f.startswith("verified run:") for f in tally.failures)
    assert len(samples["pap_run_s"].scaled) == harness.MIN_ITERATIONS


def test_host_clock_probes_during_a_call_and_disarms_after_a_raise() -> None:
    clock = HostClock()
    handler = signal.getsignal(signal.SIGALRM)

    def busy() -> None:
        end = perf_counter() + 8 * INTERVAL_S
        while perf_counter() < end:
            pass

    _, wall, scaled = clock.time(busy)
    assert wall >= 8 * INTERVAL_S and scaled > 0
    assert len(clock.probes) >= 4

    def fails() -> None:
        raise RuntimeError("run failed")

    with pytest.raises(RuntimeError):
        clock.time(fails)
    # A timer left armed would later kill the process with SIGALRM.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_recorded_payloads_match_bench_seed() -> None:
    recorded = json.loads(harness.EXPECTED_PATH.read_text())
    assert record_expected.bench_seed_mismatches(recorded) == []
