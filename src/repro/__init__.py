"""repro — a reproduction of "Parallel Automata Processor"
(Subramaniyan & Das, ISCA 2017).

The package implements, from scratch:

* an automata substrate (character classes, classic NFAs, homogeneous
  ANML-style automata, a functional executor) — :mod:`repro.automata`;
* a regex front-end compiling rulesets to homogeneous automata —
  :mod:`repro.regex`;
* a model of Micron's D480 Automata Processor (geometry, placement,
  state-vector cache, timing, the sequential baseline) — :mod:`repro.ap`;
* the paper's contribution: enumerative parallel NFA execution with
  range-guided partitioning, flow merging, convergence/deactivation
  checks, and overlapped host composition — :mod:`repro.core`;
* the 19 evaluation workloads and trace generators —
  :mod:`repro.workloads`;
* the experiment harness regenerating every table and figure —
  :mod:`repro.sim`;
* a static-analysis pass ("apcheck") over automata, parallelization
  risk, and AP capacity — :mod:`repro.lint`;
* observability (dual-domain tracing, metrics, Chrome trace export) —
  :mod:`repro.obs`;
* benchmark artifacts, baselines, and regression gating —
  :mod:`repro.perf`.

Quickstart::

    from repro import compile_ruleset, ParallelAutomataProcessor, run_sequential

    automaton, _ = compile_ruleset(["virus[0-9]+", "worm.{3}x"])
    data = open("trace.bin", "rb").read()

    baseline = run_sequential(automaton, data)
    pap = ParallelAutomataProcessor(automaton)
    result = pap.run(data)

    assert result.reports == baseline.reports
    print("speedup:", baseline.total_cycles / result.total_cycles)
"""

from repro.automata import (
    Automaton,
    AutomatonAnalysis,
    CharClass,
    Nfa,
    Report,
    StartKind,
    run_automaton,
)
from repro.ap import (
    FOUR_RANKS,
    ONE_RANK,
    BaselineResult,
    BoardGeometry,
    TimingModel,
    run_sequential,
)
from repro.core import (
    DEFAULT_CONFIG,
    PAPConfig,
    PAPRunResult,
    ParallelAutomataProcessor,
)
from repro.lint import LintConfig, LintReport, Severity, run_lint
from repro.regex import compile_pattern, compile_ruleset

__version__ = "1.0.0"

__all__ = [
    "Automaton",
    "AutomatonAnalysis",
    "BaselineResult",
    "BoardGeometry",
    "CharClass",
    "DEFAULT_CONFIG",
    "FOUR_RANKS",
    "LintConfig",
    "LintReport",
    "Nfa",
    "ONE_RANK",
    "Severity",
    "PAPConfig",
    "PAPRunResult",
    "ParallelAutomataProcessor",
    "Report",
    "StartKind",
    "TimingModel",
    "compile_pattern",
    "compile_ruleset",
    "run_automaton",
    "run_lint",
    "run_sequential",
    "__version__",
]
