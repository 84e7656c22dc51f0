"""Sequential AP baseline.

The paper's baseline processes the whole input on one FSM instance at
one symbol per 7.5 ns cycle.  Host-side output-report post-processing
is accounted for in both the baseline and PAP (Section 5.3, "We account
for the time taken for post-processing the output reports in both
baseline AP and PAP").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.anml import Automaton
from repro.automata.execution import CompiledAutomaton, Report
from repro.automata.lazy_dfa import LazyDfaStats, run_lazy_dfa
from repro.ap.timing import DEFAULT_TIMING, TimingModel
from repro.host.reporting import report_processing_cycles


@dataclass(frozen=True)
class BaselineResult:
    """Outcome and cost of one sequential AP run."""

    reports: frozenset[Report]
    symbol_cycles: int
    host_cycles: int
    transitions: int
    reference: LazyDfaStats = field(compare=False)
    """What the reference executor's memo did: DFA states, hits,
    misses, memo bytes, flushes, where memoizing stopped and why.  Host
    facts that move the wall, never the cycles."""

    @property
    def reference_reason(self) -> str:
        """The executor that ran the reference check, and what its memo
        did."""
        return f"lazy-dfa: {self.reference.reason}"

    @property
    def total_cycles(self) -> int:
        return self.symbol_cycles + self.host_cycles

    def seconds(self, timing: TimingModel = DEFAULT_TIMING) -> float:
        return timing.cycles_to_seconds(self.total_cycles)


def run_sequential(
    automaton: Automaton | CompiledAutomaton, data: bytes
) -> BaselineResult:
    """Execute the baseline: one flow, the whole input, start to end.

    The flow runs on :func:`~repro.automata.lazy_dfa.run_lazy_dfa`, an
    executor that shares no stepping code with either PAP engine, so
    the verified run's report check never trusts the code it checks.
    """
    result, stats = run_lazy_dfa(automaton, data)
    return BaselineResult(
        reports=result.report_set,
        symbol_cycles=len(data),
        host_cycles=report_processing_cycles(len(result.reports)),
        transitions=result.transitions,
        reference=stats,
    )
