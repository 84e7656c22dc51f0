"""Functional execution of homogeneous automata.

This is the library's VASim substitute: an active-set executor that only
touches states reachable from the currently matched set, which is what
makes simulating large automata over long inputs tractable.

Semantics (shared by every component of the library):

* The dynamic state of an execution is the set of states that *matched*
  the previous symbol (the *current set*, ``C``).
* One step on symbol ``b``::

      enabled  = succ(C) | persistent | one_shot     # one_shot first step only
      C'       = {s in enabled : b in label(s)}

* A report event ``(element, code, offset)`` fires whenever a reporting
  state enters ``C'``.

``persistent`` models ANML all-input start states (enabled on every
symbol).  ``one_shot`` models start-of-data states (enabled for the first
symbol only).

Executions are incremental: :meth:`FlowExecution.step` and
:meth:`FlowExecution.run` may be interleaved freely, which is how the TDM
scheduler time-slices many flows over one automaton.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.automata.anml import Automaton

if TYPE_CHECKING:
    from repro.automata.vector import VectorTables


@dataclass(frozen=True, order=True)
class Report:
    """One output event: reporting ``element`` matched at input ``offset``."""

    offset: int
    element: int
    code: int


class CompiledAutomaton:
    """Immutable per-automaton tables shared by all executions.

    Compiling once and instantiating many :class:`FlowExecution` objects
    against the same tables is what makes flow enumeration affordable:
    flows differ only in their (small) dynamic current sets.

    ``latchable`` lists the states that, once matched, stay matched
    forever: full-alphabet labels with a self loop (``.*`` gap and hub
    states).  The executor exploits this — saturated automata (SPM,
    Dotstar) otherwise pay for their whole stable active set on every
    symbol.

    Every table holds one int object per state id, the state's own
    ``Ste.sid``: a pickled or deserialized automaton carries a fresh int
    per edge, so ``succ`` maps its edges onto those objects.  Set
    lookups of equal but distinct ints miss CPython's identity
    shortcut, and flows mix these ids with the analysis's state sets
    (path-independent states), which hold ``Ste.sid`` objects too.
    """

    __slots__ = (
        "automaton",
        "succ",
        "label_masks",
        "reporting",
        "report_codes",
        "start_of_data",
        "all_input",
        "latchable",
        "_symbols",
        "_vector_tables",
    )

    def __init__(self, automaton: Automaton) -> None:
        automaton.validate()
        self.automaton = automaton
        ids = [ste.sid for ste in automaton.states()]
        self.succ: list[tuple[int, ...]] = [
            tuple(ids[dst] for dst in automaton.successors(sid)) for sid in ids
        ]
        self.label_masks: list[int] = [
            ste.label.mask for ste in automaton.states()
        ]
        self.reporting: frozenset[int] = frozenset(automaton.reporting_states())
        self.report_codes: dict[int, int] = {
            sid: automaton.state(sid).code for sid in self.reporting
        }
        self.start_of_data: frozenset[int] = frozenset(
            automaton.start_of_data_states()
        )
        self.all_input: frozenset[int] = frozenset(automaton.all_input_states())
        self.latchable: frozenset[int] = frozenset(
            ste.sid
            for ste in automaton.states()
            if ste.label.is_full() and automaton.has_self_loop(ste.sid)
        )
        self._symbols: list[tuple[int, ...] | None] = [None] * len(self.succ)
        self._vector_tables: object | None = None

    def __len__(self) -> int:
        return len(self.succ)

    def symbols(self, sid: int) -> tuple[int, ...]:
        """The symbols of ``sid``'s label, ascending.

        Built on first use and cached: only states whose label is
        indexed per symbol (latch successors, persistent states) pay for
        a tuple, and every flow after the first reuses it.
        """
        symbols = self._symbols[sid]
        if symbols is None:
            symbols = tuple(self.automaton.state(sid).label)
            self._symbols[sid] = symbols
        return symbols

    def vector_tables(self) -> "VectorTables":
        """The bit-parallel transition tables for this automaton.

        Built on first use and cached, so only runs that select the
        vector strategy pay the compilation cost (and the NumPy
        import).  See :mod:`repro.automata.vector`.
        """
        tables = self._vector_tables
        if tables is None:
            from repro.automata.vector import VectorTables

            tables = VectorTables(self)
            self._vector_tables = tables
        return tables  # type: ignore[return-value]


class FlowExecution:
    """One incremental execution (one AP flow) over a compiled automaton.

    Parameters
    ----------
    compiled:
        Shared static tables.
    initial_current:
        States treated as having matched the (virtual) symbol just before
        this execution's first symbol.  Enumeration flows seed this with
        candidate boundary states.
    persistent:
        States enabled on *every* step.  ``None`` means the automaton's
        all-input start states (normal semantics).
    one_shot:
        States enabled for the first step only.  ``None`` means the
        automaton's start-of-data states; pass ``frozenset()`` for flows
        that resume mid-input.
    """

    __slots__ = (
        "compiled",
        "persistent",
        "one_shot",
        "reports",
        "symbols_processed",
        "transitions",
        "_started",
        "_volatile",
        "_latched",
        "_latched_index",
        "_latched_reports",
        "_persistent_index",
    )

    def __init__(
        self,
        compiled: CompiledAutomaton,
        *,
        initial_current: Iterable[int] = (),
        persistent: frozenset[int] | None = None,
        one_shot: frozenset[int] | None = None,
    ) -> None:
        self.compiled = compiled
        self.persistent = (
            compiled.all_input if persistent is None else persistent
        )
        self.one_shot = (
            compiled.start_of_data if one_shot is None else one_shot
        )
        self.reports: list[Report] = []
        self.symbols_processed = 0
        self.transitions = 0
        self._started = False

        # The current set is split into a monotone *latched* part
        # (full-label self-loop states: once matched, matched forever)
        # and the *volatile* remainder.  Per-symbol work touches only
        # the volatile part plus precomputed per-symbol indexes of the
        # latched successors and persistent states.
        self._volatile: set[int] = set()
        self._latched: set[int] = set()
        self._latched_index: list[set[int]] = [set() for _ in range(256)]
        self._latched_reports: list[int] = []
        self._persistent_index: list[tuple[int, ...]] | None = None
        for sid in initial_current:
            self._admit(sid)

    # -- latched bookkeeping --------------------------------------------

    def _admit(self, sid: int) -> None:
        """Place a just-matched state into latched or volatile."""
        if sid in self.compiled.latchable:
            if sid not in self._latched:
                self._latch(sid)
        else:
            self._volatile.add(sid)

    def _latch(self, sid: int) -> None:
        compiled = self.compiled
        self._latched.add(sid)
        self._volatile.discard(sid)
        if sid in compiled.reporting:
            # Sorted insertion keeps latched-report order a pure function
            # of the latched set, never of latch arrival order or of set
            # iteration order.  Without it, a flow seeded with another's
            # ``state_vector()`` — which rebuilds this list by iterating a
            # frozenset — could order ``reports`` unlike the original.
            insort(self._latched_reports, sid)
        index = self._latched_index
        for dst in compiled.succ[sid]:
            if dst in self._latched:
                continue
            for symbol in compiled.symbols(dst):
                index[symbol].add(dst)

    def _build_persistent_index(self) -> list[tuple[int, ...]]:
        table: list[list[int]] = [[] for _ in range(256)]
        compiled = self.compiled
        for sid in self.persistent:
            if sid in compiled.latchable:
                continue  # latches on its first match instead
            for symbol in compiled.symbols(sid):
                table[symbol].append(sid)
        self._persistent_index = [tuple(row) for row in table]
        return self._persistent_index

    # -- stepping ---------------------------------------------------------

    def step(self, symbol: int, offset: int) -> None:
        """Consume one symbol whose global input offset is ``offset``."""
        compiled = self.compiled
        masks = compiled.label_masks
        succ = compiled.succ
        latchable = compiled.latchable
        bit = 1 << symbol

        fresh: set[int] = set()
        add = fresh.add
        for src in self._volatile:
            for dst in succ[src]:
                if masks[dst] & bit:
                    add(dst)
        fresh |= self._latched_index[symbol]

        if self.persistent:
            persistent_index = self._persistent_index
            if persistent_index is None:
                persistent_index = self._build_persistent_index()
            fresh.update(persistent_index[symbol])
            for sid in self.persistent & latchable:
                if sid not in self._latched and masks[sid] & bit:
                    add(sid)

        if not self._started:
            for dst in self.one_shot:
                if masks[dst] & bit:
                    add(dst)
            self._started = True

        to_latch = [
            sid
            for sid in fresh
            if sid in latchable and sid not in self._latched
        ]
        fresh -= self._latched
        for sid in to_latch:
            self._latch(sid)
            fresh.discard(sid)
        self._volatile = fresh

        self.symbols_processed += 1
        self.transitions += len(self._latched) + len(fresh)

        if compiled.reporting:
            codes = compiled.report_codes
            hits = fresh & compiled.reporting
            # Each step's events are emitted in ascending sid order (the
            # latched list is kept sorted; a fresh batch is sorted and
            # merged in).  This makes the reports *list* — not just its
            # set — a pure function of the execution semantics, which is
            # what lets the vector executor reproduce it bit-for-bit.
            if hits:
                if self._latched_reports:
                    sids: list[int] = sorted(
                        [*self._latched_reports, *hits]
                    )
                else:
                    sids = sorted(hits)
                self.reports.extend(
                    Report(offset=offset, element=sid, code=codes[sid])
                    for sid in sids
                )
            elif self._latched_reports:
                self.reports.extend(
                    Report(offset=offset, element=sid, code=codes[sid])
                    for sid in self._latched_reports
                )

    def run(self, data: bytes, base_offset: int = 0) -> None:
        """Consume every byte of ``data``; offsets start at ``base_offset``."""
        for index, symbol in enumerate(data):
            self.step(symbol, base_offset + index)

    # -- inspection -----------------------------------------------------

    @property
    def current(self) -> set[int]:
        """The full current (just-matched) state set."""
        return self._latched | self._volatile

    def state_vector(self) -> frozenset[int]:
        """Canonical snapshot of the dynamic state (for convergence and
        deactivation checks — the AP's state-vector-cache comparator)."""
        return frozenset(self._latched | self._volatile)


@dataclass
class ExecutionResult:
    """Outcome of a complete run: reports plus the final matched set."""

    reports: list[Report]
    final_current: frozenset[int]
    symbols_processed: int
    transitions: int

    @property
    def report_set(self) -> frozenset[Report]:
        """Deduplicated reports — the library-wide correctness currency."""
        return frozenset(self.reports)


def run_automaton(
    automaton: Automaton | CompiledAutomaton,
    data: bytes,
    *,
    base_offset: int = 0,
) -> ExecutionResult:
    """Execute ``automaton`` over ``data`` with normal start semantics.

    This is the reference sequential execution used as ground truth by
    the test suite and as the AP baseline by :mod:`repro.ap.sequential`.
    """
    compiled = (
        automaton
        if isinstance(automaton, CompiledAutomaton)
        else CompiledAutomaton(automaton)
    )
    flow = FlowExecution(compiled)
    flow.run(data, base_offset)
    return ExecutionResult(
        reports=flow.reports,
        final_current=flow.state_vector(),
        symbols_processed=flow.symbols_processed,
        transitions=flow.transitions,
    )
