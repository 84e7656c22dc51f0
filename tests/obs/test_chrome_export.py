"""Chrome trace-event export: shape, domains, and end-to-end content.

The end-to-end class is the ISSUE's acceptance check: a real PAP run's
trace must validate against the Chrome trace-event shape and contain
per-segment spans, flow lifecycle events, and cache counters.
"""

import itertools
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import export_chrome_trace, validate_chrome_trace
from repro.obs.tracer import Tracer
from repro.sim.runner import run_benchmark
from repro.sim.sweep import tdm_slice_sweep
from repro.workloads.suite import build_benchmark


def fake_clock(start: int = 1_000, step: int = 10):
    counter = itertools.count(start, step)
    return lambda: next(counter)


def small_tracer() -> Tracer:
    tracer = Tracer(clock=fake_clock())
    handle = tracer.begin_span("segment[1]", track="seg1", cycle=0)
    tracer.instant("flow-deactivate", track="seg1", cycle=40)
    tracer.counter("active_flows", 3, track="seg1", cycle=50)
    tracer.end_span(handle, cycle=100)
    wall_only = tracer.begin_span("plan", track="run")
    tracer.end_span(wall_only)
    return tracer


class TestExportShape:
    def test_cycles_domain_timestamps_are_cycles(self):
        trace = small_tracer().to_chrome(domain="cycles")
        payload = validate_chrome_trace(trace)
        spans = [e for e in payload if e["ph"] == "X"]
        assert len(spans) == 1  # wall-only "plan" span is dropped
        assert spans[0]["ts"] == 0.0
        assert spans[0]["dur"] == 100.0
        counters = [e for e in payload if e["ph"] == "C"]
        assert counters[0]["args"] == {"active_flows": 3}
        assert trace["otherData"]["domain"] == "cycles"

    def test_wall_domain_includes_everything(self):
        trace = small_tracer().to_chrome(domain="wall")
        payload = validate_chrome_trace(trace)
        spans = [e for e in payload if e["ph"] == "X"]
        assert {s["name"] for s in spans} == {"segment[1]", "plan"}
        # Rebased to the first event at ts 0, in microseconds.
        assert min(e["ts"] for e in payload) == 0.0

    def test_tracks_become_named_threads(self):
        trace = small_tracer().to_chrome(domain="cycles")
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names == {"seg1", "run"}

    def test_metrics_snapshot_embedded(self):
        tracer = small_tracer()
        tracer.metrics.counter("flows.deactivated").inc(2)
        trace = tracer.to_chrome()
        assert (
            trace["otherData"]["metrics"]["flows.deactivated"]["value"] == 2
        )

    def test_unknown_domain_rejected(self):
        with pytest.raises(ConfigurationError, match="domain"):
            export_chrome_trace([], domain="nonsense")

    def test_export_is_json_serializable(self):
        json.dumps(small_tracer().to_chrome())


class TestValidator:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_rejects_span_without_dur(self):
        bad = {
            "traceEvents": [
                {"name": "s", "ph": "X", "ts": 0, "pid": 1, "tid": 1}
            ]
        }
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(bad)

    def test_rejects_event_without_phase(self):
        bad = {"traceEvents": [{"name": "s", "ts": 0, "pid": 1, "tid": 1}]}
        with pytest.raises(ValueError, match="ph"):
            validate_chrome_trace(bad)

    def test_metadata_needs_no_tid(self):
        ok = {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 1, "args": {}}
            ]
        }
        assert validate_chrome_trace(ok) == []


class TestLaneAssignment:
    def test_nested_spans_share_a_lane(self):
        tracer = Tracer(clock=fake_clock())
        outer = tracer.begin_span("outer", track="exec", cycle=0)
        inner = tracer.begin_span("inner", track="exec", cycle=10)
        tracer.end_span(inner, cycle=20)
        tracer.end_span(outer, cycle=100)
        trace = tracer.to_chrome(domain="cycles")
        payload = validate_chrome_trace(trace)
        spans = [e for e in payload if e["ph"] == "X"]
        assert len({s["tid"] for s in spans}) == 1

    def test_partially_overlapping_spans_spill_to_lanes(self):
        tracer = Tracer(clock=fake_clock())
        a = tracer.begin_span("a", track="exec", cycle=0)
        b = tracer.begin_span("b", track="exec", cycle=50)
        tracer.end_span(a, cycle=80)
        tracer.end_span(b, cycle=120)
        trace = tracer.to_chrome(domain="cycles")
        payload = validate_chrome_trace(trace)  # nesting check passes
        spans = {e["name"]: e["tid"] for e in payload if e["ph"] == "X"}
        assert spans["a"] != spans["b"]
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"exec", "exec/1"} <= thread_names

    def test_sequential_spans_reuse_lane_zero(self):
        tracer = Tracer(clock=fake_clock())
        for i in range(3):
            span = tracer.begin_span(f"s{i}", track="exec", cycle=i * 100)
            tracer.end_span(span, cycle=i * 100 + 50)
        payload = validate_chrome_trace(tracer.to_chrome(domain="cycles"))
        spans = [e for e in payload if e["ph"] == "X"]
        assert len({s["tid"] for s in spans}) == 1

    def test_validator_rejects_overlap_on_one_tid(self):
        bad = {
            "traceEvents": [
                {
                    "name": "a",
                    "ph": "X",
                    "ts": 0,
                    "dur": 80,
                    "pid": 1,
                    "tid": 1,
                },
                {
                    "name": "b",
                    "ph": "X",
                    "ts": 50,
                    "dur": 70,
                    "pid": 1,
                    "tid": 1,
                },
            ]
        }
        with pytest.raises(ValueError, match="two open spans share tid"):
            validate_chrome_trace(bad)

    def test_validator_accepts_proper_nesting_on_one_tid(self):
        ok = {
            "traceEvents": [
                {
                    "name": "parent",
                    "ph": "X",
                    "ts": 0,
                    "dur": 100,
                    "pid": 1,
                    "tid": 1,
                },
                {
                    "name": "child",
                    "ph": "X",
                    "ts": 0,
                    "dur": 40,
                    "pid": 1,
                    "tid": 1,
                },
            ]
        }
        assert len(validate_chrome_trace(ok)) == 2


class TestWorkerTracks:
    """Merged worker batches land on per-pid tracks and keep both
    export domains valid — the acceptance criterion for the merged
    timeline."""

    @pytest.fixture(scope="class")
    def merged_tracer(self):
        from repro.exec import ProcessPoolBackend

        bench = build_benchmark("Snort", scale=0.05, seed=0)
        tracer = Tracer()
        with ProcessPoolBackend(workers=1) as backend:
            run_benchmark(
                bench, trace_bytes=8_192, observer=tracer, backend=backend
            )
        return tracer

    def test_worker_tracks_present(self, merged_tracer):
        worker_tracks = {
            t for t in merged_tracer.tracks() if t.startswith("pid")
        }
        assert worker_tracks
        assert any(":seg" in t for t in worker_tracks)

    @pytest.mark.parametrize("domain", ["cycles", "wall"])
    def test_both_domains_validate_with_worker_spans(
        self, merged_tracer, domain
    ):
        payload = validate_chrome_trace(
            merged_tracer.to_chrome(domain=domain)
        )
        assert any(
            e["ph"] == "X" and "args" in e and "pid" in e["args"]
            for e in payload
        )


class TestEndToEnd:
    """The acceptance-criteria trace: real run, real content."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        bench = build_benchmark("Snort", scale=0.05, seed=0)
        tracer = Tracer()
        run = run_benchmark(bench, trace_bytes=8_192, observer=tracer)
        return run, tracer

    def test_trace_validates(self, traced_run, tmp_path):
        _, tracer = traced_run
        path = tmp_path / "trace.json"
        tracer.write_chrome(str(path))
        with open(path, "r", encoding="utf-8") as handle:
            payload = validate_chrome_trace(json.load(handle))
        assert payload

    def test_per_segment_spans_present(self, traced_run):
        run, tracer = traced_run
        payload = validate_chrome_trace(tracer.to_chrome())
        segment_spans = {
            e["name"]
            for e in payload
            if e["ph"] == "X" and e["name"].startswith("segment[")
        }
        assert len(segment_spans) == run.pap.num_segments

    def test_flow_lifecycle_events_present(self, traced_run):
        run, tracer = traced_run
        names = {e.name for e in tracer.events}
        assert "flow-spawn" in names
        dynamics = (
            run.pap.deactivations
            + run.pap.convergence_merges
            + run.pap.fiv_invalidations
        )
        assert dynamics > 0  # this workload exercises the machinery
        lifecycle = {"flow-deactivate", "flow-converge", "flow-fiv-kill"}
        assert lifecycle & names

    def test_cache_counters_present(self, traced_run):
        run, tracer = traced_run
        svc = run.pap.extra["svc"]
        assert svc["saves"] > 0
        assert svc["peak_occupancy"] > 0
        metrics = tracer.metrics.snapshot()
        assert metrics["svc.saves"]["value"] == svc["saves"]
        counter_names = {
            e.name for e in tracer.events if e.kind == "counter"
        }
        assert "svc_occupied" in counter_names
        assert "active_flows" in counter_names

    def test_host_decode_spans_in_cycle_domain(self, traced_run):
        _, tracer = traced_run
        decodes = [
            e for e in tracer.events if e.name.startswith("decode[")
        ]
        assert decodes
        assert all(e.cycle_duration > 0 for e in decodes)

    def test_run_carries_trace(self, traced_run):
        run, tracer = traced_run
        assert run.trace is tracer


class TestSweepTracing:
    def test_sweep_runs_carry_independent_traces(self):
        bench = build_benchmark("Bro217", scale=0.05, seed=0)
        sweep = tdm_slice_sweep(
            bench, slice_sizes=(64, 256), trace_bytes=2_048, trace=True
        )
        traces = [run.trace for run in sweep.values()]
        assert all(trace is not None for trace in traces)
        assert traces[0] is not traces[1]
        assert all(trace.events for trace in traces)

    def test_sweep_without_trace_flag_has_none(self):
        bench = build_benchmark("Bro217", scale=0.05, seed=0)
        sweep = tdm_slice_sweep(
            bench, slice_sizes=(256,), trace_bytes=2_048
        )
        assert all(run.trace is None for run in sweep.values())
