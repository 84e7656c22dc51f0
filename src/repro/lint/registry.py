"""Rule registry and shared context of the lint pass.

Rules are plain generator functions registered under a stable code with
the :func:`rule` decorator::

    @rule("AP004", "unreachable-state", FAMILY_STRUCTURAL, Severity.WARNING,
          "states not reachable from any start state")
    def _unreachable(ctx: LintContext) -> Iterator[Diagnostic]:
        ...
        yield ctx.emit("AP004", "...", states=(...))

The registry keeps rules in code order, which makes report ordering
deterministic and lets renderers group by family.  Codes are permanent:
a retired rule's code is never reassigned.

:class:`LintContext` carries the automaton, its
:class:`~repro.automata.analysis.AutomatonAnalysis`, the
:class:`LintConfig` thresholds, and lazily computed shared artifacts
(placement, per-symbol enumeration ranges) so independent rules do not
recompute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.ap.geometry import (
    OUTPUT_REGIONS_PER_DEVICE,
    REPORTING_ELEMENTS_PER_REGION,
    STATE_VECTOR_CACHE_ENTRIES,
    BoardGeometry,
)
from repro.ap.placement import Placement, place_automaton
from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton
from repro.core.enumeration import EnumerationUnit, build_units
from repro.core.ranges import enumeration_range, enumeration_range_sizes
from repro.errors import ConfigurationError, PlacementError
from repro.lint.diagnostics import Diagnostic, Severity

FAMILY_STRUCTURAL = "structural"
FAMILY_PARALLEL = "parallel"
FAMILY_CAPACITY = "capacity"
FAMILY_PREDICTIVE = "predictive"
FAMILIES = (
    FAMILY_STRUCTURAL,
    FAMILY_PARALLEL,
    FAMILY_CAPACITY,
    FAMILY_PREDICTIVE,
)


@dataclass(frozen=True)
class LintConfig:
    """Thresholds and modeled resources of one lint pass.

    Attributes
    ----------
    geometry:
        The target AP board; capacity rules check against it.
    max_flows:
        State-vector-cache entries per device — the hard bound on
        simultaneously live flows of one segment.
    max_enumeration_range:
        Blowup threshold: when even the best partition symbol's
        enumeration range exceeds this, segment start-state enumeration
        cannot be tamed (``AP101``).
    asg_max_depth:
        Bootstrap depth treated as always-active (Section 3.3.2);
        depth 0 is exact at every segment offset.
    counters_used / booleans_used:
        Counter and boolean elements the deployment intends to program,
        checked against the per-device budgets (``AP205``/``AP206``).
    reporting_elements_per_device:
        Output-region capacity per device (6 regions x 1,024 elements
        on the D480), the ``AP204`` budget.
    routing_edge_factor:
        Routing-pressure proxy: warn when a half-core's programmed
        edges exceed ``factor * STE capacity`` (``AP207``).
    min_utilization:
        Placement-fragmentation floor for the ``AP208`` note.
    """

    geometry: BoardGeometry = field(default_factory=BoardGeometry)
    max_flows: int = STATE_VECTOR_CACHE_ENTRIES
    max_enumeration_range: int = STATE_VECTOR_CACHE_ENTRIES
    asg_max_depth: int = 0
    counters_used: int = 0
    booleans_used: int = 0
    reporting_elements_per_device: int = (
        OUTPUT_REGIONS_PER_DEVICE * REPORTING_ELEMENTS_PER_REGION
    )
    routing_edge_factor: float = 1.0
    min_utilization: float = 0.05

    def __post_init__(self) -> None:
        if self.max_flows < 1:
            raise ConfigurationError("max_flows must be >= 1")
        if self.max_enumeration_range < 1:
            raise ConfigurationError("max_enumeration_range must be >= 1")
        if self.asg_max_depth < 0:
            raise ConfigurationError("asg_max_depth must be >= 0")
        if self.counters_used < 0 or self.booleans_used < 0:
            raise ConfigurationError("element budgets must be >= 0")


DEFAULT_LINT_CONFIG = LintConfig()


class LintContext:
    """Shared state handed to every rule of one lint pass."""

    def __init__(
        self,
        automaton: Automaton,
        analysis: AutomatonAnalysis,
        config: LintConfig,
    ) -> None:
        self.automaton = automaton
        self.analysis = analysis
        self.config = config
        self._placement: Placement | None = None
        self._placement_error: PlacementError | None = None
        self._placement_done = False
        self._enum_range_sizes: tuple[int, ...] | None = None
        self._path_independent: frozenset[int] | None = None
        self._best_symbol_units: list[EnumerationUnit] | None = None

    # -- shared derived artifacts ------------------------------------------

    @property
    def path_independent(self) -> frozenset[int]:
        """States the ASG flow covers for free (Section 3.3.2)."""
        if self._path_independent is None:
            self._path_independent = self.analysis.path_independent_states(
                self.config.asg_max_depth
            )
        return self._path_independent

    def placement(self) -> Placement | None:
        """First-fit-decreasing placement, or ``None`` when impossible
        (an over-capacity component; ``AP201`` reports the cause)."""
        if not self._placement_done:
            self._placement_done = True
            try:
                self._placement = place_automaton(
                    self.automaton,
                    capacity=self.config.geometry.stes_per_half_core,
                    analysis=self.analysis,
                )
            except PlacementError as exc:
                self._placement_error = exc
        return self._placement

    def enumeration_range_sizes(self) -> tuple[int, ...]:
        """Per-symbol enumeration-range sizes with the always-active
        group excluded — the quantity segment planning minimizes."""
        if self._enum_range_sizes is None:
            sizes = enumeration_range_sizes(
                self.analysis, exclude=self.path_independent
            )
            self._enum_range_sizes = tuple(sizes.tolist())
        return self._enum_range_sizes

    def best_partition_symbol(self) -> tuple[int, int]:
        """``(symbol, range_size)`` of the smallest enumeration range."""
        sizes = self.enumeration_range_sizes()
        symbol = min(range(256), key=lambda s: sizes[s])
        return symbol, sizes[symbol]

    def best_symbol_units(self) -> list[EnumerationUnit]:
        """Enumeration units (common-parent grouping, Section 3.3.2)
        for the best partition symbol."""
        if self._best_symbol_units is None:
            symbol, _ = self.best_partition_symbol()
            range_states = enumeration_range(
                self.analysis, symbol, exclude=self.path_independent
            )
            self._best_symbol_units = build_units(
                self.analysis, range_states
            )
        return self._best_symbol_units

    # -- diagnostic construction -------------------------------------------

    def emit(
        self,
        code: str,
        message: str,
        *,
        states: Iterable[int] = (),
        severity: Severity | None = None,
        data: dict[str, Any] | None = None,
    ) -> Diagnostic:
        registered = REGISTRY[code]
        return Diagnostic(
            code=code,
            rule=registered.name,
            severity=severity or registered.default_severity,
            message=message,
            automaton=self.automaton.name,
            states=tuple(sorted(states)),
            data=data or {},
        )


RuleCheck = Callable[[LintContext], Iterator[Diagnostic]]


@dataclass(frozen=True)
class LintRule:
    """One registered rule: identity, family, severity, and its check."""

    code: str
    name: str
    family: str
    default_severity: Severity
    summary: str
    check: RuleCheck


REGISTRY: dict[str, LintRule] = {}


def rule(
    code: str,
    name: str,
    family: str,
    severity: Severity,
    summary: str,
) -> Callable[[RuleCheck], RuleCheck]:
    """Register a rule under a stable diagnostic code."""
    if family not in FAMILIES:
        raise ValueError(f"unknown rule family {family!r}")

    def decorate(check: RuleCheck) -> RuleCheck:
        if code in REGISTRY:
            raise ValueError(f"diagnostic code {code} registered twice")
        REGISTRY[code] = LintRule(
            code=code,
            name=name,
            family=family,
            default_severity=severity,
            summary=summary,
            check=check,
        )
        return check

    return decorate


def rules_for(families: Iterable[str] | None = None) -> tuple[LintRule, ...]:
    """Registered rules of the given families, in code order."""
    if families is None:
        wanted = set(FAMILIES)
    else:
        wanted = set(families)
        unknown = wanted - set(FAMILIES)
        if unknown:
            raise ConfigurationError(
                f"unknown rule families: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(FAMILIES)}"
            )
    return tuple(
        REGISTRY[code]
        for code in sorted(REGISTRY)
        if REGISTRY[code].family in wanted
    )
