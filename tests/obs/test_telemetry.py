"""Flight-recorder tests: ledger schema, ring buffer, crash bundles,
and the property that JSONL output round-trips under fault injection.

The ledger invariants (strict JSON per line, monotone ``seq`` from 0,
constant ``run`` id) are the contract `repro obs summary` and the CI
artifact pipeline rely on, so they are pinned both with unit tests and
with a hypothesis sweep over seeded fault plans — faults plus retries
must never corrupt the ledger.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ap.geometry import BoardGeometry
from repro.automata.random_gen import random_automaton
from repro.core.config import PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.errors import ArtifactError, ExecutionError
from repro.exec import ProcessPoolBackend, RunOptions
from repro.exec.faults import SVC_EXHAUSTION, TRANSIENT, FaultPlan
from repro.exec.resilience import RetryPolicy
from repro.obs import (
    FlightRecorder,
    LEDGER_SCHEMA_VERSION,
    read_ledger,
    summarize_ledger,
)
from repro.obs.telemetry import new_run_id


def board(half_cores: int) -> BoardGeometry:
    return BoardGeometry(ranks=1, devices_per_rank=max(1, half_cores // 2))


def _reject(token):
    raise ValueError(f"non-strict constant {token!r}")


def _strict_lines(path) -> list[dict]:
    """Parse a ledger file line by line, rejecting NaN/Infinity."""
    lines = path.read_text().splitlines()
    return [json.loads(line, parse_constant=_reject) for line in lines]


class TestFlightRecorder:
    def test_ledger_starts_open_and_ends_close(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with FlightRecorder(path=str(path)) as recorder:
            recorder.instant("hello")
            recorder.counter("flows", 3)
        records = read_ledger(str(path))
        assert records[0]["kind"] == "open"
        assert records[0]["args"]["schema_version"] == LEDGER_SCHEMA_VERSION
        assert records[-1]["kind"] == "close"
        kinds = [r["kind"] for r in records]
        assert "instant" in kinds and "counter" in kinds

    def test_spans_write_separate_begin_and_end_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with FlightRecorder(path=str(path)) as recorder:
            handle = recorder.begin_span("segment", args={"index": 0})
            recorder.end_span(handle, args={"cycles": 12})
        records = read_ledger(str(path))
        begin = next(r for r in records if r["kind"] == "span-begin")
        end = next(r for r in records if r["kind"] == "span-end")
        assert begin["span"] == end["span"] == handle
        assert begin["name"] == end["name"] == "segment"

    def test_end_span_ignores_bad_and_stale_handles(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with FlightRecorder(path=str(path)) as recorder:
            handle = recorder.begin_span("s")
            recorder.end_span(handle)
            before = recorder.num_records
            recorder.end_span(handle)  # already closed
            recorder.end_span(999)  # never opened
            assert recorder.num_records == before
        read_ledger(str(path))

    def test_close_is_idempotent_and_embeds_metrics(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(path=str(path))
        recorder.metrics.counter("exec.dispatches").inc(4)
        recorder.close()
        recorder.close()
        records = read_ledger(str(path))
        closes = [r for r in records if r["kind"] == "close"]
        assert len(closes) == 1
        metrics = closes[0]["args"]["metrics"]
        assert metrics["exec.dispatches"]["value"] == 4

    def test_in_memory_mode_keeps_ring_only(self):
        recorder = FlightRecorder()
        recorder.instant("x")
        recorder.close()
        assert recorder.path is None
        assert [r["kind"] for r in recorder.ring] == [
            "open",
            "instant",
            "close",
        ]

    def test_ring_is_bounded(self):
        recorder = FlightRecorder(ring_capacity=4)
        for index in range(10):
            recorder.instant(f"e{index}")
        assert len(recorder.ring) == 4
        # The ring keeps the *most recent* records (the crash tail).
        assert recorder.ring[-1]["name"] == "e9"
        assert recorder.ring[-1]["seq"] == 10  # after the open record

    def test_rejects_zero_ring_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(ring_capacity=0)

    def test_explicit_run_id_is_used(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with FlightRecorder(path=str(path), run_id="cafe0123") as recorder:
            assert recorder.run_id == "cafe0123"
        records = read_ledger(str(path))
        assert {r["run"] for r in records} == {"cafe0123"}

    def test_non_finite_values_sanitized_to_null(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with FlightRecorder(path=str(path)) as recorder:
            recorder.instant(
                "weird", args={"inf": float("inf"), "nan": float("nan")}
            )
        records = _strict_lines(path)  # would raise on Infinity/NaN
        weird = next(r for r in records if r["name"] == "weird")
        assert weird["args"] == {"inf": None, "nan": None}

    def test_new_run_id_is_unique_hex(self):
        first, second = new_run_id(), new_run_id()
        assert first != second
        assert len(first) == 16
        int(first, 16)


class TestReadLedgerValidation:
    def _valid_lines(self, tmp_path) -> list[str]:
        path = tmp_path / "ok.jsonl"
        with FlightRecorder(path=str(path)):
            pass
        return path.read_text().splitlines()

    def _expect_error(self, tmp_path, lines, match):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError, match=match):
            read_ledger(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="not found"):
            read_ledger(str(tmp_path / "nope.jsonl"))

    def test_empty_ledger(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ArtifactError, match="empty"):
            read_ledger(str(path))

    def test_blank_line(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        self._expect_error(
            tmp_path, [lines[0], ""], match="blank ledger line"
        )

    def test_non_json_line(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        self._expect_error(
            tmp_path, [lines[0], "not json"], match="not strict JSON"
        )

    def test_non_strict_constant_rejected(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        record = json.loads(lines[1])
        record["seq"] = 1
        doctored = json.dumps(record).replace(
            '"kind": "close"', '"kind": "close", "x": NaN'
        )
        assert "NaN" in doctored
        self._expect_error(
            tmp_path, [lines[0], doctored], match="not strict JSON"
        )

    def test_sequence_break(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        self._expect_error(
            tmp_path, [lines[0], lines[0]], match="sequence break"
        )

    def test_run_id_change(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        record = json.loads(lines[1])
        record["run"] = "someoneelse"
        self._expect_error(
            tmp_path,
            [lines[0], json.dumps(record)],
            match="run id changed",
        )

    def test_unknown_kind(self, tmp_path):
        record = json.loads(self._valid_lines(tmp_path)[0])
        record["kind"] = "mystery"
        self._expect_error(
            tmp_path, [json.dumps(record)], match="unknown record kind"
        )

    def test_bad_schema_version(self, tmp_path):
        record = json.loads(self._valid_lines(tmp_path)[0])
        record["v"] = 99
        self._expect_error(
            tmp_path, [json.dumps(record)], match="schema"
        )

    def test_must_start_with_open(self, tmp_path):
        record = json.loads(self._valid_lines(tmp_path)[1])
        record["seq"] = 0
        self._expect_error(
            tmp_path, [json.dumps(record)], match="start with 'open'"
        )


class TestSummarizeLedger:
    def test_summary_of_sealed_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with FlightRecorder(path=str(path)) as recorder:
            recorder.metrics.counter("c").inc()
            recorder.instant("x")
        summary = summarize_ledger(read_ledger(str(path)))
        assert summary["run_id"] == recorder.run_id
        assert summary["schema_version"] == LEDGER_SCHEMA_VERSION
        assert summary["records"] == 3
        assert summary["kinds"] == {"close": 1, "instant": 1, "open": 1}
        assert summary["sealed"] is True
        assert summary["metrics"]["c"]["value"] == 1
        assert "failure" not in summary

    def test_summary_of_crashed_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(path=str(path))
        recorder.run_failed(RuntimeError("boom"))
        del recorder  # never closed: ledger is unsealed
        summary = summarize_ledger(read_ledger(str(path)))
        assert summary["sealed"] is False
        assert summary["failure"] == {
            "type": "RuntimeError",
            "message": "boom",
        }


class TestCrashBundle:
    """Acceptance: a seeded crash run produces a strict-JSON crash
    bundle whose ledger tail, health record, and metrics snapshot all
    reference the same ``run_id``."""

    def _crash_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(path=str(path))
        automaton = random_automaton(3, num_states=8, alphabet=b"abc")
        pap = ParallelAutomataProcessor(
            automaton,
            config=PAPConfig(geometry=board(4)),
            observer=recorder,
        )
        data = b"abcabcab" * 32
        # Deterministic crash on segment 1, no retries: fail-fast.
        with pytest.raises(ExecutionError):
            pap.run(data, options=RunOptions(faults=FaultPlan.parse("1:crash")))
        recorder.close()
        return path, recorder

    def test_bundle_written_next_to_ledger(self, tmp_path):
        path, recorder = self._crash_run(tmp_path)
        bundle_path = tmp_path / "run.jsonl.crash.json"
        assert bundle_path.exists()
        bundle = json.loads(
            bundle_path.read_text(), parse_constant=_reject
        )
        assert bundle == recorder.crash_bundle

    def test_bundle_is_strict_json_with_one_run_id(self, tmp_path):
        path, recorder = self._crash_run(tmp_path)
        bundle = recorder.crash_bundle
        json.dumps(bundle, allow_nan=False)
        assert bundle["schema_version"] == LEDGER_SCHEMA_VERSION
        assert bundle["run_id"] == recorder.run_id
        assert bundle["health"]["run_id"] == recorder.run_id
        tail_runs = {r["run"] for r in bundle["ledger_tail"]}
        assert tail_runs == {recorder.run_id}
        assert bundle["error"]["type"]
        assert bundle["metrics"]  # snapshot captured at failure time

    def test_bundle_records_injected_fault(self, tmp_path):
        path, recorder = self._crash_run(tmp_path)
        health = recorder.crash_bundle["health"]
        assert health["faults_injected"] == 1
        injected = health["injected_faults"]
        assert {"segment": 1, "attempt": 1, "kind": "crash"} in injected

    def test_bundle_metrics_carry_the_recovery_series(self, tmp_path):
        """The recovery series are published from the settled health
        before the bundle is written; the failing segment's attempt
        counts too."""
        path, recorder = self._crash_run(tmp_path)
        metrics = recorder.crash_bundle["metrics"]
        assert metrics["exec.crashes"]["value"] == 1
        assert metrics["exec.faults_injected"]["value"] == 1
        assert metrics["exec.attempts_per_segment"]["count"] == 2

    def test_ledger_has_failure_record_and_stays_valid(self, tmp_path):
        path, recorder = self._crash_run(tmp_path)
        records = read_ledger(str(path))
        failure = next(r for r in records if r["kind"] == "failure")
        assert failure["name"] == "ExecutionError"
        assert records[-1]["kind"] == "close"

    @pytest.mark.parametrize(
        "backend, faults, use_fiv",
        [
            pytest.param("serial", "1:crash*9", True, id="serial-crash"),
            pytest.param(
                "serial", "0:transient*9", True, id="serial-transient"
            ),
            pytest.param("process", "0:crash*99", True, id="process-crash"),
            pytest.param(
                "process", "0:crash*99", False, id="process-prefetched"
            ),
        ],
    )
    def test_every_span_begin_has_a_span_end(
        self, tmp_path, backend, faults, use_fiv
    ):
        """A failed run still ends every span it began — the run span,
        each dispatch copy, and (without the FIV) the dispatches it
        prefetched — naming the error that ended it."""
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(path=str(path))
        automaton = random_automaton(3, num_states=8, alphabet=b"abc")
        pap = ParallelAutomataProcessor(
            automaton,
            config=PAPConfig(geometry=board(4), use_fiv=use_fiv),
            observer=recorder,
        )
        pool = ProcessPoolBackend(workers=2) if backend == "process" else None
        try:
            with pytest.raises(ExecutionError):
                pap.run(
                    b"abcabcab" * 32,
                    backend=pool,
                    options=RunOptions(
                        retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
                        faults=FaultPlan.parse(faults),
                    ),
                )
        finally:
            if pool is not None:
                pool.close()
        recorder.close()
        records = read_ledger(str(path))
        begun = {r["span"]: r["name"] for r in records if r["kind"] == "span-begin"}
        ended = {r["span"]: r for r in records if r["kind"] == "span-end"}
        assert set(begun) == set(ended), sorted(
            begun[span] for span in set(begun) - set(ended)
        )
        run_span = next(span for span, name in begun.items() if name == "run")
        assert ended[run_span]["args"]["outcome"] == "ExecutionError"


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    fault_seed=st.integers(0, 10_000),
    rate=st.floats(0.0, 0.6),
)
def test_ledger_round_trips_under_fault_injection(
    tmp_path_factory, seed, fault_seed, rate
):
    """Property: whatever seeded faults do to a run, every ledger line
    is strict JSON, ``seq`` is monotone from 0, and the run id never
    changes — and ``read_ledger`` accepts the file."""
    path = tmp_path_factory.mktemp("ledger") / "run.jsonl"
    recorder = FlightRecorder(path=str(path))
    automaton = random_automaton(seed, num_states=8, alphabet=b"abc")
    pap = ParallelAutomataProcessor(
        automaton,
        config=PAPConfig(geometry=board(4)),
        observer=recorder,
    )
    data = bytes(b"abc"[b % 3] for b in range(200))
    plan = FaultPlan(
        seed=fault_seed, rate=rate, kinds=(TRANSIENT, SVC_EXHAUSTION)
    )
    # Seeded faults fire on first attempts only, so three retries
    # always recover: the run must succeed AND the ledger must hold.
    pap.run(
        data,
        options=RunOptions(retry=RetryPolicy(max_retries=3), faults=plan),
    )
    recorder.close()

    records = _strict_lines(path)
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert {r["run"] for r in records} == {recorder.run_id}
    assert all(r["v"] == LEDGER_SCHEMA_VERSION for r in records)
    parsed = read_ledger(str(path))
    assert len(parsed) == len(records)
