"""Homogeneous (ANML-style) automata.

The Micron AP represents NFAs in the homogeneous *ANML* form: every state
(State-Transition Element, STE) carries the character class it matches,
and edges are unlabeled.  A state *matches* in a cycle when it is enabled
(some predecessor matched the previous symbol, or it is a start state) and
the current input symbol is in its label.

:class:`Automaton` is the central data structure of this library.  It is
append-only: states and edges can be added but never removed, which lets
analyses cache derived structure keyed on a version counter.  Use
:meth:`Automaton.compact` to obtain a renumbered copy restricted to a
subset of states when pruning is needed.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.automata.charclass import CharClass
from repro.errors import AutomatonError


class StartKind(enum.Enum):
    """How a state participates in starting the automaton.

    ``NONE``
        An interior state: enabled only via incoming edges.
    ``START_OF_DATA``
        Enabled for the very first input symbol only (ANML
        ``start-of-data``).
    ``ALL_INPUT``
        Persistently enabled on every input symbol (ANML ``all-input``);
        this is how leading ``.*`` of patterns is realized on the AP.
    """

    NONE = "none"
    START_OF_DATA = "start-of-data"
    ALL_INPUT = "all-input"


@dataclass(frozen=True)
class Ste:
    """One state-transition element.

    Attributes
    ----------
    sid:
        Dense integer id; equals the state's index in the automaton.
    label:
        The character class this state matches.
    start:
        The state's :class:`StartKind`.
    reporting:
        True when a match of this state emits a report event.
    report_code:
        Report payload communicated to the host; defaults to ``sid``.
    name:
        Optional human-readable name for diagnostics.
    """

    sid: int
    label: CharClass
    start: StartKind = StartKind.NONE
    reporting: bool = False
    report_code: int | None = None
    name: str = ""

    @property
    def code(self) -> int:
        """The effective report code (``report_code`` or ``sid``)."""
        return self.sid if self.report_code is None else self.report_code


@dataclass
class Automaton:
    """A homogeneous automaton: labeled states with unlabeled edges.

    States are identified by dense integer ids assigned by
    :meth:`add_state`.  The structure is append-only; derived analyses
    (predecessor lists, start sets) are cached and invalidated through a
    version counter that bumps on every mutation.
    """

    name: str = "automaton"
    _states: list[Ste] = field(default_factory=list)
    _succ: list[list[int]] = field(default_factory=list)
    _version: int = 0
    _pred_cache: tuple[int, list[tuple[int, ...]]] | None = None

    # -- construction ---------------------------------------------------

    def add_state(
        self,
        label: CharClass,
        *,
        start: StartKind = StartKind.NONE,
        reporting: bool = False,
        report_code: int | None = None,
        name: str = "",
    ) -> int:
        """Append a state and return its new id."""
        sid = len(self._states)
        self._states.append(
            Ste(
                sid=sid,
                label=label,
                start=start,
                reporting=reporting,
                report_code=report_code,
                name=name,
            )
        )
        self._succ.append([])
        self._version += 1
        return sid

    def add_edge(self, src: int, dst: int) -> None:
        """Add the edge ``src -> dst``; duplicate edges are ignored."""
        self._check_sid(src)
        self._check_sid(dst)
        if dst not in self._succ[src]:
            self._succ[src].append(dst)
            self._version += 1

    def add_edges(self, src: int, dsts: Iterable[int]) -> None:
        for dst in dsts:
            self.add_edge(src, dst)

    # -- basic queries ---------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation (for cache keys)."""
        return self._version

    def __len__(self) -> int:
        return len(self._states)

    @property
    def num_states(self) -> int:
        return len(self._states)

    @property
    def num_edges(self) -> int:
        return sum(len(out) for out in self._succ)

    def state(self, sid: int) -> Ste:
        self._check_sid(sid)
        return self._states[sid]

    def states(self) -> Iterator[Ste]:
        return iter(self._states)

    def successors(self, sid: int) -> tuple[int, ...]:
        self._check_sid(sid)
        return tuple(self._succ[sid])

    def predecessors(self, sid: int) -> tuple[int, ...]:
        self._check_sid(sid)
        return self._predecessor_table()[sid]

    def edges(self) -> Iterator[tuple[int, int]]:
        for src, outs in enumerate(self._succ):
            for dst in outs:
                yield src, dst

    def start_states(self) -> tuple[int, ...]:
        """Ids of all states with a non-``NONE`` start kind."""
        return tuple(s.sid for s in self._states if s.start is not StartKind.NONE)

    def start_of_data_states(self) -> tuple[int, ...]:
        return tuple(s.sid for s in self._states if s.start is StartKind.START_OF_DATA)

    def all_input_states(self) -> tuple[int, ...]:
        return tuple(s.sid for s in self._states if s.start is StartKind.ALL_INPUT)

    def reporting_states(self) -> tuple[int, ...]:
        return tuple(s.sid for s in self._states if s.reporting)

    def has_self_loop(self, sid: int) -> bool:
        self._check_sid(sid)
        return sid in self._succ[sid]

    def states_matching(self, symbol: int) -> tuple[int, ...]:
        """Ids of every state whose label contains ``symbol``."""
        return tuple(s.sid for s in self._states if symbol in s.label)

    # -- validation and transforms ----------------------------------------

    def validate(self) -> None:
        """Raise :class:`AutomatonError` on structural problems.

        Checks: at least one start state, no empty labels, no dangling
        edge endpoints (impossible via the API but guarded for
        deserialized automata), and that some reporting state exists when
        the automaton is non-trivial is *not* required (pure filters are
        legal), but reporting states are allowed outgoing edges here even
        though AP hardware forbids them — :mod:`repro.ap.placement`
        enforces the hardware rule.
        """
        if self._states and not self.start_states():
            raise AutomatonError(f"automaton {self.name!r} has no start states")
        for ste in self._states:
            if not ste.label:
                raise AutomatonError(
                    f"state {ste.sid} of {self.name!r} has an empty label"
                )
        for src, outs in enumerate(self._succ):
            for dst in outs:
                if not 0 <= dst < len(self._states):
                    raise AutomatonError(
                        f"edge {src}->{dst} of {self.name!r} is dangling"
                    )

    def compact(self, keep: Iterable[int], name: str | None = None) -> "Automaton":
        """A renumbered copy containing only ``keep`` states.

        Edges with either endpoint outside ``keep`` are dropped.  The
        relative order of kept states is preserved, so ids stay stable
        across repeated compactions with the same ``keep`` set.
        """
        keep_sorted = sorted(set(keep))
        remap = {old: new for new, old in enumerate(keep_sorted)}
        out = Automaton(name=name or self.name)
        for old in keep_sorted:
            ste = self._states[old]
            out.add_state(
                ste.label,
                start=ste.start,
                reporting=ste.reporting,
                report_code=ste.report_code,
                name=ste.name,
            )
        for old in keep_sorted:
            for dst in self._succ[old]:
                if dst in remap:
                    out.add_edge(remap[old], remap[dst])
        return out

    def copy(self, name: str | None = None) -> "Automaton":
        return self.compact(range(len(self._states)), name=name)

    def union(self, other: "Automaton", name: str | None = None) -> "Automaton":
        """Disjoint union: both automata side by side, ids of ``other``
        shifted past this automaton's ids."""
        out = self.copy(name=name or f"{self.name}+{other.name}")
        out.append(other)
        return out

    def append(self, other: "Automaton") -> None:
        """Append ``other`` in place as a disjoint part: its states and
        edges, in order, with ids shifted past this automaton's ids."""
        # Every edge into a state holds that state's one id object (as
        # compact() leaves it), so the executors' set lookups of equal
        # ids match on identity; a fresh int per edge measurably slows
        # them.  Iterating over copies lets an automaton append itself.
        ids = [
            self.add_state(
                ste.label,
                start=ste.start,
                reporting=ste.reporting,
                report_code=ste.report_code,
                name=ste.name,
            )
            for ste in list(other.states())
        ]
        for src, dst in list(other.edges()):
            self.add_edge(ids[src], ids[dst])

    # -- internals ---------------------------------------------------------

    def _check_sid(self, sid: int) -> None:
        if not 0 <= sid < len(self._states):
            raise AutomatonError(f"unknown state id {sid} in {self.name!r}")

    def _predecessor_table(self) -> list[tuple[int, ...]]:
        if self._pred_cache is not None and self._pred_cache[0] == self._version:
            return self._pred_cache[1]
        preds: list[list[int]] = [[] for _ in self._states]
        for src, outs in enumerate(self._succ):
            for dst in outs:
                preds[dst].append(src)
        table = [tuple(p) for p in preds]
        self._pred_cache = (self._version, table)
        return table

    def __repr__(self) -> str:
        return (
            f"Automaton(name={self.name!r}, states={self.num_states}, "
            f"edges={self.num_edges})"
        )
