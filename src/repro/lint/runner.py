"""Entry points of the ``apcheck`` pass: :func:`run_lint` and the gate.

``run_lint`` executes every registered rule (optionally restricted to
families) over one automaton and returns a :class:`LintReport`.
``lint_gate`` is the opt-out pre-deployment check wired into
:class:`repro.core.pap.ParallelAutomataProcessor`: it raises
:class:`~repro.errors.LintError` when error-level diagnostics are
present, so malformed automata fail at load time instead of deep inside
execution.  It refuses the errors of whichever families it runs; the
PAP gate runs the structural family.  The AP201–AP208 rules are the one
capacity check, run by ``repro lint``.
"""

from __future__ import annotations

from typing import Iterable

from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton
from repro.errors import LintError
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.registry import (
    FAMILY_STRUCTURAL,
    REGISTRY,
    DEFAULT_LINT_CONFIG,
    LintConfig,
    LintContext,
    rules_for,
)

# Importing the rule modules populates the registry.
from repro.lint import structural as _structural  # noqa: F401
from repro.lint import parallel as _parallel  # noqa: F401
from repro.lint import capacity as _capacity  # noqa: F401
from repro.lint import predictive as _predictive  # noqa: F401


def run_lint(
    automaton: Automaton,
    *,
    config: LintConfig | None = None,
    analysis: AutomatonAnalysis | None = None,
    families: Iterable[str] | None = None,
) -> LintReport:
    """Run the static-analysis pass over ``automaton``.

    Parameters
    ----------
    config:
        Thresholds and the target board; defaults model the evaluated
        4-rank D480 board.
    analysis:
        A pre-built analysis to reuse.  A *stale* analysis (its
        automaton mutated since construction) short-circuits the pass
        into a single ``AP009`` error — no other rule can answer its
        queries against a moved-underneath automaton.
    families:
        Restrict to rule families (``structural``, ``parallel``,
        ``capacity``, ``predictive``); ``None`` runs everything.
    """
    config = config or DEFAULT_LINT_CONFIG
    if analysis is not None and not analysis.is_fresh():
        stale = REGISTRY["AP009"]
        return LintReport(
            automaton=automaton.name,
            diagnostics=(
                Diagnostic(
                    code=stale.code,
                    rule=stale.name,
                    severity=stale.default_severity,
                    message=(
                        "analysis is stale: the automaton mutated after "
                        "the AutomatonAnalysis was constructed; rebuild "
                        "it before linting"
                    ),
                    automaton=automaton.name,
                ),
            ),
        )
    analysis = analysis or AutomatonAnalysis(automaton)
    context = LintContext(automaton, analysis, config)
    diagnostics: list[Diagnostic] = []
    for registered in rules_for(families):
        diagnostics.extend(registered.check(context))
    return LintReport(
        automaton=automaton.name, diagnostics=tuple(diagnostics)
    )


def lint_gate(
    automaton: Automaton,
    *,
    config: LintConfig | None = None,
    analysis: AutomatonAnalysis | None = None,
    families: Iterable[str] = (FAMILY_STRUCTURAL,),
) -> LintReport:
    """Refuse error-level diagnostics before deployment.

    Runs the structural family by default (capacity violations surface
    as precise :class:`~repro.errors.PlacementError` /
    :class:`~repro.errors.CapacityError` at placement time; the CLI
    lints them earlier and advisorily).  Returns the report on success
    so callers can log warnings; raises :class:`LintError` otherwise.
    """
    report = run_lint(
        automaton, config=config, analysis=analysis, families=families
    )
    if report.has_errors:
        errors = report.at_least(Severity.ERROR)
        summary = "; ".join(
            f"{d.code} {d.message}" for d in list(errors)[:3]
        )
        if len(errors) > 3:
            summary += f"; ... (+{len(errors) - 3} more)"
        raise LintError(
            f"automaton {automaton.name!r} failed the pre-deployment "
            f"lint gate with {len(errors)} error(s): {summary}",
            report=report,
        )
    return report
