"""Durability tests: checkpoint/resume, hedging, the failure ladder.

The load-bearing property is ISSUE 10's acceptance criterion: a
resumed run — including one resumed from a checkpoint written by a
``kill -9``'d parent, on a *different* backend than wrote it — is
bit-exact in the cycle domain against a cold run.  Everything here
compares :func:`cycle_fingerprint` digests, the same comparison
``repro chaos`` and the kill-and-resume CI stage gate on.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.random_gen import random_ruleset_automaton
from repro.core.config import DEFAULT_CONFIG
from repro.core.pap import ParallelAutomataProcessor
from repro.errors import CheckpointError, ConfigurationError
from repro.exec import (
    CheckpointStore,
    FaultPlan,
    FaultSpec,
    HedgePolicy,
    ProcessPoolBackend,
    RetryPolicy,
    RunOptions,
    cycle_fingerprint,
    resolve_backend,
    run_fingerprint,
)
from repro.exec.durability import KILL_ENV


def make_workload(seed: int = 5, size: int = 1024):
    automaton = random_ruleset_automaton(seed, num_patterns=4)
    rng = random.Random(seed + 100)
    data = bytes(rng.randrange(256) for _ in range(size))
    return ParallelAutomataProcessor(automaton), data


@pytest.fixture(scope="module")
def workload():
    return make_workload()


@pytest.fixture(scope="module")
def cold(workload):
    pap, data = workload
    return cycle_fingerprint(pap.run(data))


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


def checkpoint_file(tmp_path):
    """The single .ckpt.jsonl file a one-run store directory holds."""
    files = list(tmp_path.glob("*.ckpt.jsonl"))
    assert len(files) == 1, files
    return files[0]


class TestRunFingerprint:
    def test_deterministic_and_input_sensitive(self, workload):
        pap, data = workload
        kwargs = dict(num_segments=8)
        base = run_fingerprint(pap.automaton, DEFAULT_CONFIG, data, **kwargs)
        again = run_fingerprint(pap.automaton, DEFAULT_CONFIG, data, **kwargs)
        assert base == again
        other_input = run_fingerprint(
            pap.automaton, DEFAULT_CONFIG, data + b"x", **kwargs
        )
        other_split = run_fingerprint(
            pap.automaton, DEFAULT_CONFIG, data, num_segments=9
        )
        assert len({base, other_input, other_split}) == 3

    def test_backend_not_part_of_key(self, workload, tmp_path, pool):
        """A serial-written checkpoint file is found by a process-pool
        resume: the fingerprint must not encode the backend."""
        pap, data = workload
        pap.run(data, options=RunOptions(checkpoint=str(tmp_path)))
        resumed = pap.run(
            data,
            backend=pool,
            options=RunOptions(checkpoint=str(tmp_path), resume=True),
        )
        assert resumed.extra["checkpoint"]["hits"] > 0
        assert resumed.extra["checkpoint"]["writes"] == 0

    @pytest.mark.parametrize(
        ("written", "resumed"), [("set", "vector"), ("vector", "set")]
    )
    def test_engine_not_part_of_key(
        self, workload, cold, tmp_path, written, resumed
    ):
        """A checkpoint written under one engine resumes bit-exactly
        under the other: the fingerprint must not encode the engine."""
        pap, data = workload
        first = pap.run(
            data, options=RunOptions(engine=written, checkpoint=str(tmp_path))
        )
        again = pap.run(
            data,
            options=RunOptions(
                engine=resumed, checkpoint=str(tmp_path), resume=True
            ),
        )
        assert first.health["engine"] == written
        assert again.health["engine"] == resumed
        assert again.extra["checkpoint"]["hits"] == first.num_segments
        assert again.extra["checkpoint"]["writes"] == 0
        assert cycle_fingerprint(again) == cold


class TestCheckpointResume:
    def test_serial_write_then_resume_bit_exact(self, workload, cold, tmp_path):
        pap, data = workload
        first = pap.run(data, options=RunOptions(checkpoint=str(tmp_path)))
        ckpt = first.extra["checkpoint"]
        assert ckpt["writes"] == first.num_segments
        assert ckpt["hits"] == 0
        assert cycle_fingerprint(first) == cold

        resumed = pap.run(
            data, options=RunOptions(checkpoint=str(tmp_path), resume=True)
        )
        rckpt = resumed.extra["checkpoint"]
        assert rckpt["hits"] == first.num_segments
        assert rckpt["writes"] == 0
        assert rckpt["resumed"] is True
        assert cycle_fingerprint(resumed) == cold

    def test_cross_backend_resume_bit_exact(
        self, workload, cold, tmp_path, pool
    ):
        """The acceptance criterion across both backends and both
        engines: one serial set-walk checkpoint, resumed by each."""
        pap, data = workload
        pap.run(
            data, options=RunOptions(engine="set", checkpoint=str(tmp_path))
        )
        for backend in (pool, None):
            for engine in ("set", "vector"):
                resumed = pap.run(
                    data,
                    backend=backend,
                    options=RunOptions(
                        engine=engine, checkpoint=str(tmp_path), resume=True
                    ),
                )
                assert cycle_fingerprint(resumed) == cold
                assert resumed.extra["checkpoint"]["writes"] == 0

    def test_partial_checkpoint_executes_only_missing(
        self, workload, cold, tmp_path, pool
    ):
        pap, data = workload
        first = pap.run(data, options=RunOptions(checkpoint=str(tmp_path)))
        total = first.num_segments
        path = checkpoint_file(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")

        resumed = pap.run(
            data,
            backend=pool,
            options=RunOptions(checkpoint=str(tmp_path), resume=True),
        )
        ckpt = resumed.extra["checkpoint"]
        assert ckpt["hits"] == total - 3
        assert ckpt["writes"] == 3
        assert cycle_fingerprint(resumed) == cold

    def test_non_resume_rerun_discards_stale_file(self, workload, tmp_path):
        pap, data = workload
        first = pap.run(data, options=RunOptions(checkpoint=str(tmp_path)))
        rerun = pap.run(
            data, options=RunOptions(checkpoint=str(tmp_path), resume=False)
        )
        assert rerun.extra["checkpoint"]["hits"] == 0
        assert rerun.extra["checkpoint"]["writes"] == first.num_segments

    def test_different_inputs_get_different_files(self, workload, tmp_path):
        pap, data = workload
        pap.run(data, options=RunOptions(checkpoint=str(tmp_path)))
        pap.run(data[:512], options=RunOptions(checkpoint=str(tmp_path)))
        assert len(list(tmp_path.glob("*.ckpt.jsonl"))) == 2

    def test_resume_without_checkpoint_is_rejected(self):
        """A resume with nothing to resume from is a configuration
        error, not a silently cold run."""
        with pytest.raises(ConfigurationError, match="checkpoint"):
            RunOptions(resume=True)

    def test_available_counts_records_loaded_at_open(self, workload, tmp_path):
        pap, data = workload
        cold_run = pap.run(data, options=RunOptions(checkpoint=str(tmp_path)))
        assert cold_run.extra["checkpoint"]["available"] == 0
        resumed = pap.run(
            data, options=RunOptions(checkpoint=str(tmp_path), resume=True)
        )
        assert resumed.extra["checkpoint"]["available"] == cold_run.num_segments

    def test_store_root_must_be_a_directory(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        with pytest.raises(CheckpointError):
            CheckpointStore(target)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 6), size=st.integers(64, 768))
    def test_resume_property_bit_exact(self, tmp_path, seed, size):
        """Property form of the resume contract over random workloads."""
        pap, data = make_workload(seed=seed, size=size)
        root = tmp_path / f"{seed}-{size}"
        cold = pap.run(data)
        pap.run(data, options=RunOptions(checkpoint=str(root)))
        resumed = pap.run(
            data, options=RunOptions(checkpoint=str(root), resume=True)
        )
        assert cycle_fingerprint(resumed) == cycle_fingerprint(cold)
        assert resumed.extra["checkpoint"]["hits"] == cold.num_segments


class TestTornAndCorruptRecords:
    def test_torn_final_record_dropped_and_reexecuted(
        self, workload, cold, tmp_path
    ):
        pap, data = workload
        first = pap.run(data, options=RunOptions(checkpoint=str(tmp_path)))
        path = checkpoint_file(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - len(raw.splitlines()[-1]) // 2])

        resumed = pap.run(
            data, options=RunOptions(checkpoint=str(tmp_path), resume=True)
        )
        ckpt = resumed.extra["checkpoint"]
        assert ckpt["dropped_records"] == 1
        assert ckpt["hits"] == first.num_segments - 1
        assert ckpt["writes"] == 1
        assert cycle_fingerprint(resumed) == cold

    def test_garbage_mid_file_only_loses_that_record(
        self, workload, cold, tmp_path
    ):
        pap, data = workload
        pap.run(data, options=RunOptions(checkpoint=str(tmp_path)))
        path = checkpoint_file(tmp_path)
        lines = path.read_text().splitlines()
        lines[3] = '{"kind": "segment", "index": 2, "payload": "trunca'
        path.write_text("\n".join(lines) + "\n")

        resumed = pap.run(
            data, options=RunOptions(checkpoint=str(tmp_path), resume=True)
        )
        ckpt = resumed.extra["checkpoint"]
        assert ckpt["dropped_records"] == 1
        assert ckpt["writes"] == 1
        assert cycle_fingerprint(resumed) == cold

    def test_tampered_payload_fails_checksum(self, workload, cold, tmp_path):
        """A record that parses but was modified must fail its checksum
        — detection is content-based, not parse-based."""
        pap, data = workload
        pap.run(data, options=RunOptions(checkpoint=str(tmp_path)))
        path = checkpoint_file(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["payload"]["metrics"]["cycles"] = 1
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")

        resumed = pap.run(
            data, options=RunOptions(checkpoint=str(tmp_path), resume=True)
        )
        assert resumed.extra["checkpoint"]["dropped_records"] == 1
        assert cycle_fingerprint(resumed) == cold

    def test_foreign_fingerprint_distrusts_whole_file(
        self, workload, cold, tmp_path
    ):
        pap, data = workload
        pap.run(data, options=RunOptions(checkpoint=str(tmp_path)))
        path = checkpoint_file(tmp_path)
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["fingerprint"] = "0" * 64
        lines[0] = json.dumps(meta)
        path.write_text("\n".join(lines) + "\n")

        resumed = pap.run(
            data, options=RunOptions(checkpoint=str(tmp_path), resume=True)
        )
        ckpt = resumed.extra["checkpoint"]
        assert ckpt["hits"] == 0
        assert ckpt["writes"] == resumed.num_segments
        assert cycle_fingerprint(resumed) == cold

    def test_corrupt_checkpoint_fault_roundtrip(self, workload, cold, tmp_path):
        """The injected write-side corruption: execution is untouched,
        the torn record is dropped on resume, the segment re-executes."""
        pap, data = workload
        faults = FaultPlan(
            specs=(FaultSpec(segment=4, kind="corrupt_checkpoint"),)
        )
        first = pap.run(
            data, options=RunOptions(checkpoint=str(tmp_path), faults=faults)
        )
        assert cycle_fingerprint(first) == cold
        assert first.health["injected_faults"] == [
            {"segment": 4, "attempt": 1, "kind": "corrupt_checkpoint"}
        ]

        resumed = pap.run(
            data, options=RunOptions(checkpoint=str(tmp_path), resume=True)
        )
        ckpt = resumed.extra["checkpoint"]
        assert ckpt["dropped_records"] == 1
        assert ckpt["hits"] == first.num_segments - 1
        assert ckpt["writes"] == 1
        assert cycle_fingerprint(resumed) == cold


KILL_SCRIPT = """
import random
from repro.automata.random_gen import random_ruleset_automaton
from repro.core.pap import ParallelAutomataProcessor
from repro.exec import RunOptions

automaton = random_ruleset_automaton(5, num_patterns=4)
rng = random.Random(105)
data = bytes(rng.randrange(256) for _ in range(1024))
ParallelAutomataProcessor(automaton).run(
    data, options=RunOptions(checkpoint={root!r})
)
raise SystemExit("the kill hook must fire before the run completes")
"""


class TestKillParentResume:
    def test_sigkilled_parent_checkpoint_resumes_bit_exact(
        self, workload, cold, tmp_path
    ):
        """``kill -9`` the *parent* after 5 durable records; the
        survivor file resumes bit-exactly with exactly 5 hits."""
        env = dict(os.environ)
        env[KILL_ENV] = "5"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH", "")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", KILL_SCRIPT.format(root=str(tmp_path))],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        path = checkpoint_file(tmp_path)
        # meta header + the 5 records that were fsync'd before the kill.
        assert len(path.read_text().splitlines()) == 6

        pap, data = workload
        resumed = pap.run(
            data, options=RunOptions(checkpoint=str(tmp_path), resume=True)
        )
        ckpt = resumed.extra["checkpoint"]
        assert ckpt["hits"] == 5
        assert ckpt["writes"] == resumed.num_segments - 5
        assert cycle_fingerprint(resumed) == cold


HASHSEED_SCRIPT = """
import random
from repro.automata.random_gen import random_ruleset_automaton
from repro.core.pap import ParallelAutomataProcessor
from repro.exec import RunOptions, cycle_fingerprint

automaton = random_ruleset_automaton(5, num_patterns=4)
rng = random.Random(105)
data = bytes(rng.randrange(256) for _ in range(1024))
pap = ParallelAutomataProcessor(automaton)
first = pap.run(data, options=RunOptions(checkpoint={root!r}))
resumed = pap.run(data, options=RunOptions(checkpoint={root!r}, resume=True))
print(first.extra["checkpoint"]["fingerprint"])
print(cycle_fingerprint(first))
print(cycle_fingerprint(resumed))
print(resumed.extra["checkpoint"]["hits"])
"""


class TestHashSeedDeterminism:
    def test_fingerprints_identical_across_hash_seeds(self, tmp_path):
        """Run fingerprint, cycle fingerprint, and resume behaviour are
        all hash-seed invariant (the CI determinism job's property,
        proven in-process)."""
        outputs = []
        for hash_seed in ("0", "1"):
            root = tmp_path / f"seed{hash_seed}"
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", env.get("PYTHONPATH", "")])
            )
            proc = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    HASHSEED_SCRIPT.format(root=str(root)),
                ],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 4


class TestHedgePolicy:
    def test_threshold_needs_min_samples(self):
        policy = HedgePolicy()
        assert policy.threshold_s([0.1, 0.1]) is None
        assert policy.threshold_s([0.1, 0.1, 0.1]) is not None

    def test_threshold_floor_and_mad(self):
        policy = HedgePolicy(mad_multiplier=4.0)
        # Zero-MAD samples fall back to the 5%-of-median guard.
        assert policy.threshold_s([1.0, 1.0, 1.0]) == pytest.approx(1.2)
        # Tiny walls clamp to the floor.
        assert policy.threshold_s([0.001] * 5) == 0.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HedgePolicy(mad_multiplier=0.0)

    def test_hedge_needs_process_backend(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("serial", hedge=HedgePolicy())


class TestHedgingRecovery:
    def test_hedge_beats_deadline_path_on_hang(self, workload, cold):
        """ISSUE 10's headline: a seeded hang is recovered by hedging
        strictly faster than by the PR-5 per-segment deadline, and the
        hedged run never burns a retry."""
        pap, data = workload
        last = pap.run(data).num_segments - 1
        hang = FaultPlan(
            specs=(FaultSpec(segment=last, kind="hang"),), hang_s=4.0
        )

        hedge_backend = ProcessPoolBackend(workers=2, hedge=HedgePolicy())
        try:
            pap.run(data, backend=hedge_backend)  # warm the pool
            start = time.monotonic()
            hedged = pap.run(
                data,
                backend=hedge_backend,
                options=RunOptions(
                    retry=RetryPolicy(max_retries=1, segment_timeout_s=30.0),
                    faults=hang,
                ),
            )
            hedged_wall = time.monotonic() - start
        finally:
            hedge_backend.close()
        assert cycle_fingerprint(hedged) == cold
        assert hedged.health["hedges"] >= 1
        assert len(hedged.health["hedge_wins"]) >= 1
        assert hedged.health["retries"] == 0
        assert hedged.health["timeouts"] == 0

        deadline_backend = ProcessPoolBackend(workers=2)
        try:
            pap.run(data, backend=deadline_backend)  # warm the pool
            start = time.monotonic()
            deadline = pap.run(
                data,
                backend=deadline_backend,
                options=RunOptions(
                    retry=RetryPolicy(max_retries=1, segment_timeout_s=1.5),
                    faults=hang,
                ),
            )
            deadline_wall = time.monotonic() - start
        finally:
            deadline_backend.close()
        assert cycle_fingerprint(deadline) == cold
        assert deadline.health["timeouts"] == 1

        # The deadline path cannot beat its own timeout; the hedge can.
        assert deadline_wall >= 1.5
        assert hedged_wall < deadline_wall

    def test_straggler_fault_bit_exact_on_serial(self, workload, cold):
        """The serial model of a straggler: delay, then execute — the
        cycle domain never sees the delay."""
        pap, data = workload
        faults = FaultPlan(
            specs=(FaultSpec(segment=2, kind="straggler"),),
            straggler_s=0.05,
        )
        result = pap.run(data, options=RunOptions(faults=faults))
        assert cycle_fingerprint(result) == cold
        assert result.health["injected_faults"][0]["kind"] == "straggler"


class TestWorkerStepDown:
    @pytest.mark.parametrize(
        "specs, steps",
        [
            pytest.param(
                (FaultSpec(segment=3, kind="crash", times=2),),
                [
                    {
                        "segment": 3,
                        "workers": 1,
                        "consecutive": 2,
                        "error": "WorkerCrashError",
                    }
                ],
                id="crashes",
            ),
            pytest.param(
                (
                    FaultSpec(segment=3, kind="transient"),
                    FaultSpec(segment=3, kind="crash", times=2),
                ),
                [],
                id="transient-then-crash",
            ),
            pytest.param(
                (
                    FaultSpec(segment=3, kind="crash"),
                    FaultSpec(segment=4, kind="crash"),
                ),
                [],
                id="recovered-crashes",
            ),
        ],
    )
    def test_consecutive_crashes_step_workers_down(
        self, workload, cold, specs, steps
    ):
        """The PR-5 rebuild-at-full-width fix: the second consecutive
        infrastructure failure halves the pool (2 -> 1 here), recorded
        in RunHealth.  A transient error before one crash is not an
        infrastructure failure, and a successful retry resets the count,
        so in those cases the pool keeps its width."""
        pap, data = workload
        backend = ProcessPoolBackend(workers=2)
        try:
            faults = FaultPlan(specs=specs)
            result = pap.run(
                data,
                backend=backend,
                options=RunOptions(
                    retry=RetryPolicy(max_retries=3, backoff_base_s=0.0),
                    faults=faults,
                ),
            )
            assert cycle_fingerprint(result) == cold
            assert result.health["worker_steps"] == steps
        finally:
            backend.close()

    def test_fresh_run_restores_configured_width(self, workload):
        pap, data = workload
        backend = ProcessPoolBackend(workers=2)
        try:
            faults = FaultPlan(
                specs=(FaultSpec(segment=3, kind="crash", times=2),)
            )
            pap.run(
                data,
                backend=backend,
                options=RunOptions(
                    retry=RetryPolicy(max_retries=3, backoff_base_s=0.0),
                    faults=faults,
                ),
            )
            assert backend._dispatch_workers == 1
            backend.close()  # stepped pool gone; next run starts fresh
            pap.run(data, backend=backend)
            assert backend._dispatch_workers == 2
        finally:
            backend.close()

    def test_degraded_pool_stays_in_process_until_close(self, workload, cold):
        """Persistent crashes take the ladder to its last rung mid-run;
        the *next* run on the same backend starts in-process without
        touching the pool, naming the earlier degradation; close()
        resets the ladder and the pool is back at full width."""
        pap, data = workload
        backend = ProcessPoolBackend(workers=2)
        try:
            broken = pap.run(
                data,
                backend=backend,
                options=RunOptions(
                    retry=RetryPolicy(max_retries=4, backoff_base_s=0.0),
                    faults=FaultPlan(
                        specs=(FaultSpec(segment=1, kind="crash", times=5),)
                    ),
                ),
            )
            assert cycle_fingerprint(broken) == cold
            health = broken.health
            assert health["downgraded"]
            assert health["downgraded_at_segment"] == 1
            assert health["crashes"] == 3

            again = pap.run(data, backend=backend)
            assert cycle_fingerprint(again) == cold
            assert again.health["downgraded"]
            assert again.health["downgraded_at_segment"] == 0
            assert health["downgrade_reason"] in (
                again.health["downgrade_reason"]
            )
            assert again.health["crashes"] == 0, (
                "a degraded backend must not have touched the pool"
            )

            backend.close()
            fresh = pap.run(data, backend=backend)
            assert cycle_fingerprint(fresh) == cold
            assert not fresh.health["downgraded"]
            assert backend._dispatch_workers == 2
        finally:
            backend.close()

    def test_degraded_pool_without_fiv_charges_each_crash_once(
        self, workload
    ):
        """The no-FIV twin of the test above, with the same counts.
        Segment 1's crash breaks a pool that holds every other segment
        too; only segment 1 is charged, and the dispatches lost with
        the pool are sent again as their same first attempts."""
        automaton, data = workload[0].automaton, workload[1]
        pap = ParallelAutomataProcessor(
            automaton, config=replace(DEFAULT_CONFIG, use_fiv=False)
        )
        cold = cycle_fingerprint(pap.run(data))
        backend = ProcessPoolBackend(workers=2)
        try:
            broken = pap.run(
                data,
                backend=backend,
                options=RunOptions(
                    retry=RetryPolicy(max_retries=4, backoff_base_s=0.0),
                    faults=FaultPlan(
                        specs=(FaultSpec(segment=1, kind="crash", times=5),)
                    ),
                ),
            )
            assert cycle_fingerprint(broken) == cold
            health = broken.health
            assert health["downgraded"]
            assert health["downgraded_at_segment"] == 1
            assert health["crashes"] == 3
            assert health["retries"] == 3
            assert {
                segment: count
                for segment, count in health["attempts"].items()
                if count != 1
            } == {"1": 4}

            again = pap.run(data, backend=backend)
            assert cycle_fingerprint(again) == cold
            assert again.health["downgraded"]
            assert again.health["downgraded_at_segment"] == 0
            assert again.health["crashes"] == 0
        finally:
            backend.close()

    def test_timeout_charged_once_to_the_hung_segment(self, workload, cold):
        """A one-worker pool queues every other segment behind a hung
        segment 0; the timeout recycles the pool, is charged to segment
        0 alone, and the queued dispatches are sent again."""
        pap, data = workload
        backend = ProcessPoolBackend(workers=1)
        try:
            result = pap.run(
                data,
                backend=backend,
                options=RunOptions(
                    retry=RetryPolicy(
                        max_retries=1,
                        backoff_base_s=0.0,
                        segment_timeout_s=1.0,
                    ),
                    faults=FaultPlan(
                        specs=(FaultSpec(segment=0, kind="hang"),),
                        hang_s=5.0,
                    ),
                ),
            )
        finally:
            backend.close()
        assert cycle_fingerprint(result) == cold
        health = result.health
        assert (health["timeouts"], health["crashes"]) == (1, 0)
        assert health["retries"] == 1
        assert health["attempts"]["0"] == 2
        assert health["total_attempts"] == result.num_segments + 1


class TestFaultPlanExtensions:
    def test_parse_straggler_delay(self):
        plan = FaultPlan.parse("seed=3,rate=0.5,kinds=straggler,straggler=1.5")
        assert plan.straggler_s == 1.5
        assert plan.kinds == ("straggler",)

    def test_parse_error_names_straggler_key(self):
        with pytest.raises(ConfigurationError, match="straggler"):
            FaultPlan.parse("bogus=1")

    def test_checkpoint_faults_do_not_shift_execution_draws(self):
        """A corrupt_checkpoint spec must not perturb which execution
        faults fire — the draws live on separate sequences."""
        from repro.exec.faults import FaultInjector

        base = FaultPlan(specs=(FaultSpec(segment=2, kind="transient"),))
        mixed = FaultPlan(
            specs=(
                FaultSpec(segment=1, kind="corrupt_checkpoint"),
                FaultSpec(segment=2, kind="transient"),
            )
        )
        draws_base = [base.fault_at(s, 1) for s in range(6)]
        draws_mixed = [mixed.fault_at(s, 1) for s in range(6)]
        assert draws_base == draws_mixed
        assert "corrupt_checkpoint" not in draws_mixed
        injector = FaultInjector(mixed)
        assert injector.draw_checkpoint(1) is True
        assert injector.draw_checkpoint(3) is False
        # Only the first write of a segment is corrupted — a retry of
        # the same segment lands clean.
        assert injector.draw_checkpoint(1) is False
