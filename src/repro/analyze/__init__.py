"""Predictive static analysis over compiled automata and segment plans.

``repro.analyze`` is the semantic layer above :mod:`repro.lint`: where
the lint pass *checks* facts post hoc (AP001–AP208; the AP2xx rules
are the one capacity check), this package *derives* them and rolls
them into predictions:

* :mod:`repro.analyze.facts` — a dataflow/abstract-interpretation pass
  over the NFA and the segment plan: per-component range widths under
  composition, enumeration-unit bounds, flow divergence lifetimes
  (convergence depth), parent sharing, and trace-profile facts.
* :mod:`repro.analyze.cost` — the cycle cost model: an abstract TDM
  interpretation per enumerated segment chained through the paper's
  availability recurrence, predicting enumeration cycles and parallel
  speedup *before* running the simulator.
* :mod:`repro.analyze.report` — one row per workload, stating the
  half-core footprint the run uses and the segment count it implies
  (:func:`repro.ap.placement.segments_available`), and the
  prediction-vs-actual comparison against committed ``BENCH_*.json``
  artifacts with a tolerance gate (the CI ``analysis-gate`` job).
"""

from repro.analyze.cost import (
    SegmentPrediction,
    WorkloadPrediction,
    predict_workload,
)
from repro.analyze.facts import (
    BoundaryFacts,
    ComponentFacts,
    FlowDivergence,
    TraceProfile,
    WorkloadFacts,
    divergence_depth,
    gather_facts,
    profile_trace,
)
from repro.analyze.report import (
    AnalysisReport,
    ComparisonRow,
    WorkloadAnalysis,
    analyze_workload,
    analyze_suite,
    compare_to_baseline,
)

__all__ = [
    "AnalysisReport",
    "BoundaryFacts",
    "ComparisonRow",
    "ComponentFacts",
    "FlowDivergence",
    "SegmentPrediction",
    "TraceProfile",
    "WorkloadAnalysis",
    "WorkloadFacts",
    "WorkloadPrediction",
    "analyze_suite",
    "analyze_workload",
    "compare_to_baseline",
    "divergence_depth",
    "gather_facts",
    "predict_workload",
    "profile_trace",
]
