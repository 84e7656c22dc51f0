"""repro.obs — observability for PAP executions.

The instrumentation spine of the simulator: a span/event tracer that
records in both simulated-cycle and host wall-clock domains
(:mod:`repro.obs.tracer`), a counter/gauge/histogram metrics registry
(:mod:`repro.obs.metrics`), a Chrome trace-event exporter loadable in
Perfetto (:mod:`repro.obs.chrome`), a phase-attribution profiler
(:mod:`repro.obs.phases`), and worker-side capture for the process
backend (:mod:`repro.obs.remote`) — shipped record batches merge into
the parent's timeline so ledgers and exports stay whole-run truthful
across backends.

The :class:`Observer` base class is a null object — hooks threaded
through :class:`~repro.core.pap.ParallelAutomataProcessor`, the
segment scheduler, host composition, the state-vector cache, and the
event buffer cost near-zero until a :class:`Tracer` is attached::

    from repro.obs import Tracer, render_phase_profile

    tracer = Tracer()
    result = ParallelAutomataProcessor(automaton, observer=tracer).run(data)
    tracer.write_chrome("trace.json")     # open in ui.perfetto.dev
    print(render_phase_profile(result.phases))
"""

from repro.obs.chrome import export_chrome_trace, validate_chrome_trace
from repro.obs.phases import (
    NULL_PHASES,
    PhaseAccumulator,
    PhaseAccountingError,
    PhaseRecorder,
    render_phase_profile,
    summarize_run_phases,
    to_speedscope,
    validate_speedscope,
    verify_phase_totals,
)
from repro.obs.remote import RecordBatch, RecordingObserver, merge_batch
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
)
from repro.obs.openmetrics import parse_openmetrics, render_openmetrics
from repro.obs.telemetry import (
    FlightRecorder,
    LEDGER_SCHEMA_VERSION,
    read_ledger,
    summarize_ledger,
    summarize_workers,
)
from repro.obs.tracer import (
    CountingObserver,
    NULL_OBSERVER,
    Observer,
    TraceEvent,
    Tracer,
)

# Drift detection reuses the lint Diagnostic model; importing
# repro.obs.drift therefore executes repro.lint.__init__ (the whole
# rule registry and its repro.core dependencies).  Export it lazily so
# `import repro.obs` inside the hot scheduler path stays light.
_LAZY = {
    "DEFAULT_DRIFT_TOLERANCE": "repro.obs.drift",
    "DriftMonitor": "repro.obs.drift",
    "DriftObservation": "repro.obs.drift",
}

__all__ = [
    "Counter",
    "CountingObserver",
    "DEFAULT_DRIFT_TOLERANCE",
    "DriftMonitor",
    "DriftObservation",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA_VERSION",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NULL_PHASES",
    "NULL_REGISTRY",
    "NullMetricsRegistry",
    "Observer",
    "PhaseAccountingError",
    "PhaseAccumulator",
    "PhaseRecorder",
    "RecordBatch",
    "RecordingObserver",
    "TraceEvent",
    "Tracer",
    "export_chrome_trace",
    "merge_batch",
    "parse_openmetrics",
    "read_ledger",
    "render_openmetrics",
    "render_phase_profile",
    "summarize_ledger",
    "summarize_run_phases",
    "summarize_workers",
    "to_speedscope",
    "validate_chrome_trace",
    "validate_speedscope",
    "verify_phase_totals",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)
