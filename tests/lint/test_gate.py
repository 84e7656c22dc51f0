"""The pre-deployment lint gate: PAP refuses automata with error-level
structural findings unless linting is opted out.

``Automaton.validate`` already rejects the always-fatal shapes (no
starts, empty labels, dangling edges) at every pipeline entry, so the
gate wiring is exercised by temporarily upgrading the unreachable-state
rule (``AP004``) to an error on an automaton validate accepts.
"""

import dataclasses

import pytest

from repro.ap.geometry import BoardGeometry
from repro.automata import builder
from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton, StartKind
from repro.automata.charclass import CharClass
from repro.core.config import PAPConfig
from repro.core.pap import ParallelAutomataProcessor
from repro.errors import LintError
from repro.lint import REGISTRY, Severity, lint_gate, run_lint

TINY = BoardGeometry(ranks=1, devices_per_rank=2, stes_per_half_core=64)


def bad_automaton() -> Automaton:
    """Structurally broken: a state with an empty label.  Rejected by
    ``Automaton.validate`` too, so only ``lint_gate`` sees it directly."""
    automaton = Automaton("bad")
    head = automaton.add_state(
        CharClass.single("a"), start=StartKind.START_OF_DATA
    )
    hole = automaton.add_state(CharClass.empty(), reporting=True)
    automaton.add_edge(head, hole)
    return automaton


def island_automaton() -> Automaton:
    """Passes ``validate`` but has an unreachable state (``AP004``)."""
    automaton = Automaton("island")
    hub = builder.star_self_loop(automaton)
    builder.attach_pattern(automaton, hub, builder.classes_for("abc"))
    automaton.add_state(CharClass.single("z"))
    return automaton


def good_automaton() -> Automaton:
    automaton = Automaton("good")
    hub = builder.star_self_loop(automaton)
    builder.attach_pattern(automaton, hub, builder.classes_for("abc"))
    return automaton


@pytest.fixture
def strict_unreachable(monkeypatch):
    """Upgrade AP004 to an error for the duration of one test."""
    upgraded = dataclasses.replace(
        REGISTRY["AP004"], default_severity=Severity.ERROR
    )
    monkeypatch.setitem(REGISTRY, "AP004", upgraded)


class TestLintGate:
    def test_gate_raises_with_report_attached(self):
        with pytest.raises(LintError) as excinfo:
            lint_gate(bad_automaton())
        report = excinfo.value.report
        assert report is not None
        assert "AP002" in report.codes()

    def test_gate_passes_clean_automaton(self):
        report = lint_gate(good_automaton())
        assert not report.has_errors

    def test_gate_tolerates_warnings(self):
        report = lint_gate(island_automaton())
        assert "AP004" in report.codes()

    def test_gate_default_checks_structural_family_only(self):
        # Capacity problems stay the placement layer's job (typed
        # PlacementError/CapacityError); the default gate only looks at
        # structural codes.
        report = lint_gate(island_automaton())
        assert all(d.code.startswith("AP0") for d in report)


class TestPapGate:
    def test_pap_gate_refuses_errors(self, strict_unreachable):
        with pytest.raises(LintError, match="AP004"):
            ParallelAutomataProcessor(island_automaton())

    def test_pap_lint_opt_out(self, strict_unreachable):
        pap = ParallelAutomataProcessor(island_automaton(), lint=False)
        assert pap.automaton.name == "island"

    def test_pap_accepts_warnings_by_default(self):
        pap = ParallelAutomataProcessor(
            island_automaton(), config=PAPConfig(geometry=TINY)
        )
        assert pap.automaton.name == "island"


class TestStaleAnalysisGate:
    def test_stale_analysis_is_an_error(self):
        automaton = good_automaton()
        analysis = AutomatonAnalysis(automaton)
        automaton.add_state(CharClass.single("z"))
        report = run_lint(automaton, analysis=analysis)
        assert report.codes() == {"AP009"}
        with pytest.raises(LintError):
            lint_gate(automaton, analysis=analysis)
