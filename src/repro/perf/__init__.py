"""repro.perf — benchmark artifacts, baselines, and regression gating.

The cycle-tracking spine of the repo: every benchmark run can be
captured as a versioned ``BENCH_*.json`` artifact
(:mod:`repro.perf.artifact`), diffed exactly against a committed
baseline (:mod:`repro.perf.compare`), and rendered as text, markdown,
or JSON (:mod:`repro.perf.render`).  Host wall time is perfbench's to
measure; :mod:`repro.perf.measure` holds the median/MAD summary it
shares.  The ``repro bench run/compare/report`` CLI family and CI's
perf gate are thin wrappers over these pieces::

    from repro.perf import compare_reports, load_report

    diff = compare_reports(load_report("benchmarks/baselines/smoke.json"),
                           load_report("BENCH_ci.json"))
    assert diff.clean, diff.changes
"""

from repro.perf.artifact import (
    CYCLE_DOMAIN,
    SCHEMA_VERSION,
    BenchmarkRecord,
    PerfReport,
    load_report,
    report_from_runs,
    run_key,
)
from repro.perf.bench import (
    HEAVY_TRACE_DIVISOR,
    run_bench_suite,
    select_benchmarks,
)
from repro.perf.compare import (
    ChangeKind,
    MetricChange,
    PerfDiff,
    compare_reports,
)
from repro.perf.measure import (
    WallClockStats,
    measure_wall,
    summarize_samples,
)
from repro.perf.render import (
    FORMATS,
    render_diff,
    render_report,
)

__all__ = [
    "BenchmarkRecord",
    "CYCLE_DOMAIN",
    "ChangeKind",
    "FORMATS",
    "HEAVY_TRACE_DIVISOR",
    "MetricChange",
    "PerfDiff",
    "PerfReport",
    "SCHEMA_VERSION",
    "WallClockStats",
    "compare_reports",
    "load_report",
    "measure_wall",
    "render_diff",
    "render_report",
    "report_from_runs",
    "run_bench_suite",
    "run_key",
    "select_benchmarks",
    "summarize_samples",
]
