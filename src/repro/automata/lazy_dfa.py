"""Lazily determinized execution: the reference check's own executor.

Section 2.1 of the paper rejects DFAs because subset construction of a
large NFA "leads to exponential growth in the number of states".  A
*lazy* determinization pays only for the subsets the input actually
visits, so it keeps the DFA's per-symbol saving (one table lookup) on
automata whose active sets repeat, and bounds the blowup where they do
not.  :func:`run_lazy_dfa` is that executor.  It is built only from
:class:`~repro.automata.execution.CompiledAutomaton`'s own tables
(``succ``, ``label_masks``, ``latchable``, ``reporting``,
``report_codes``, ``start_of_data``, ``all_input``) and shares no
stepping code with either PAP engine, so the sequential reference check
(:func:`repro.ap.sequential.run_sequential`) is independent of whatever
engine the PAP run steps its flows on.

The step semantics are :mod:`repro.automata.execution`'s, split the same
way: the current set is a monotone *latched* part ``L`` (full-label
self-loop states, matched forever once matched) and a *volatile* rest
``V``.  A DFA state is an interned volatile set, packed as the bytes of
its ascending sids.  A transition is memoized per (DFA state, symbol
class), where symbols that every label treats alike form one class.
Around the memo:

* ``L`` is a parameter of every memo entry, so the memo is flushed
  whenever ``L`` grows (at most once per latchable state).
* The first step is never memoized: start-of-data states are enabled on
  it only, and a memoized first step would enable them again whenever
  the volatile set returned to the first step's source, the empty set.
* The memo is charged an estimated byte count per entry, from entry
  counts and key lengths.  Memoizing stops for the rest of the input
  when the charge would pass :data:`MEMO_BUDGET`, or when more than
  :data:`MISS_LIMIT` of a :data:`MISS_WINDOW`-symbol window's lookups
  miss (a miss costs more than a plain step, so past that share the
  memo no longer pays).  The rule reads counts only, never the clock,
  so where it stops is a function of the automaton and the input.
  After the stop, the executor steps its own per-class successor rows.

Output is bit-exact with :func:`~repro.automata.execution.run_automaton`:
the reports list in order, the transition count and the final set.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

from repro.automata.anml import Automaton
from repro.automata.execution import CompiledAutomaton, ExecutionResult, Report

__all__ = [
    "MEMO_BUDGET",
    "MISS_LIMIT",
    "MISS_WINDOW",
    "LazyDfaStats",
    "run_lazy_dfa",
    "symbol_classes",
]

MEMO_BUDGET = 4 << 20
"""Estimated bytes the memo may hold at once.  Levenshtein at scale 0.1
over 64 KiB (9,463 DFA states) charges 2.5 MiB; Fermi, whose volatile
sets take 2 KiB keys and never repeat, reaches the budget after about
2,100 DFA states."""

MISS_WINDOW = 4096
"""Symbols per miss-share window.  The first window, and any window in
which the memo was flushed, warms the memo up and is not judged."""

MISS_LIMIT = 0.8
"""Largest share of a window's memo lookups that may miss.  A miss costs
about 1.3 plain steps and a hit almost nothing, so the memo stops paying
near a 75-80% miss share."""

_STATE_BYTES = 120
"""Charge per DFA state besides its key and its row: the key's bytes
object header, its intern-dict slot and its list slots."""

_EMIT_BYTES = 80
"""Charge per DFA state that emits reports, besides 8 bytes a sid: the
tuple header and its dict slot."""


def _budget_reason() -> str:
    return f"memo budget of {MEMO_BUDGET} bytes reached"


@dataclass(frozen=True)
class LazyDfaStats:
    """What the memo did over one run."""

    dfa_states: int
    """DFA states interned, summed over every memo generation."""
    hits: int
    misses: int
    """Memo lookups that hit and missed: one per symbol after the first,
    up to ``stopped_at``."""
    memo_bytes: int
    """Peak estimated bytes the memo held."""
    flushes: int
    """Memo flushes, one per step that latched new states."""
    stopped_at: int | None
    """Offset of the first symbol stepped without the memo, or ``None``
    when the memo served to the end of the input."""
    reason: str

    @property
    def hit_share(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "dfa_states": self.dfa_states,
            "hits": self.hits,
            "misses": self.misses,
            "hit_share": round(self.hit_share, 4),
            "memo_bytes": self.memo_bytes,
            "flushes": self.flushes,
            "stopped_at": self.stopped_at,
        }


def symbol_classes(label_masks: Iterable[int]) -> tuple[bytes, list[int]]:
    """Partition the 256 symbols into classes no label tells apart.

    Returns the class of every symbol, as a 256-byte translation table,
    and one representative symbol per class.  Classes are numbered in
    order of their lowest symbol.
    """
    classes = [(1 << 256) - 1]
    for mask in set(label_masks):
        split = []
        for members in classes:
            inside = members & mask
            if inside and inside != members:
                split.append(inside)
                split.append(members ^ inside)
            else:
                split.append(members)
        classes = split
    classes.sort(key=lambda members: members & -members)
    class_of = bytearray(256)
    reps = []
    for cls, members in enumerate(classes):
        reps.append((members & -members).bit_length() - 1)
        while members:
            low = members & -members
            class_of[low.bit_length() - 1] = cls
            members ^= low
    return bytes(class_of), reps


class _Stepper:
    """Plain subset steps over per-class successor rows, and the
    latched part of the current set."""

    __slots__ = (
        "compiled",
        "class_bits",
        "latched",
        "latched_reports",
        "_rows",
        "_enabled",
        "_always",
    )

    def __init__(self, compiled: CompiledAutomaton, reps: list[int]) -> None:
        self.compiled = compiled
        self.class_bits = [1 << symbol for symbol in reps]
        self.latched: set[int] = set()
        self.latched_reports: list[int] = []
        # rows[cls][sid]: sid's successors whose labels hold class cls,
        # built on first use.
        self._rows: list[dict[int, tuple[int, ...]]] = [{} for _ in reps]
        # States enabled on every step: all-input states and the
        # successors of latched states.
        self._enabled: set[int] = set(compiled.all_input)
        self._always: list[tuple[int, ...] | None] = [None] * len(reps)

    def _row(self, cls: int, sid: int) -> tuple[int, ...]:
        masks = self.compiled.label_masks
        bit = self.class_bits[cls]
        row = tuple(dst for dst in self.compiled.succ[sid] if masks[dst] & bit)
        self._rows[cls][sid] = row
        return row

    def _always_row(self, cls: int) -> tuple[int, ...]:
        masks = self.compiled.label_masks
        bit = self.class_bits[cls]
        latched = self.latched
        row = tuple(
            sid
            for sid in self._enabled
            if masks[sid] & bit and sid not in latched
        )
        self._always[cls] = row
        return row

    def step(
        self, volatile: Iterable[int], cls: int, one_shot: Iterable[int] = ()
    ) -> tuple[set[int], bool]:
        """The volatile set after one symbol of class ``cls``, and
        whether the step latched new states."""
        always = self._always[cls]
        if always is None:
            always = self._always_row(cls)
        fresh = set(always)
        rows = self._rows[cls]
        for sid in volatile:
            row = rows.get(sid)
            if row is None:
                row = self._row(cls, sid)
            if row:
                fresh.update(row)
        if one_shot:
            fresh.update(one_shot)
        latchable = self.compiled.latchable
        if not latchable or fresh.isdisjoint(latchable):
            return fresh, False
        hit = fresh & latchable
        fresh -= hit
        new = hit - self.latched
        if not new:
            return fresh, False
        self._latch(new)
        return fresh, True

    def _latch(self, new: set[int]) -> None:
        compiled = self.compiled
        self.latched |= new
        reporting = new & compiled.reporting
        if reporting:
            self.latched_reports = sorted([*self.latched_reports, *reporting])
        for sid in new:
            self._enabled.update(compiled.succ[sid])
        self._always = [None] * len(self._always)

    def emitted(self, volatile: set[int]) -> list[int]:
        """The sids that report on a step ending in ``volatile``,
        ascending (the order :class:`FlowExecution` emits them in)."""
        hits = volatile & self.compiled.reporting
        if not hits:
            return self.latched_reports
        return sorted([*self.latched_reports, *hits])


def run_lazy_dfa(
    automaton: Automaton | CompiledAutomaton, data: bytes
) -> tuple[ExecutionResult, LazyDfaStats]:
    """Execute ``automaton`` over ``data`` from its start states.

    The result equals :func:`~repro.automata.execution.run_automaton`'s
    exactly; the stats say what the memo did.
    """
    compiled = (
        automaton
        if isinstance(automaton, CompiledAutomaton)
        else CompiledAutomaton(automaton)
    )
    class_of, reps = symbol_classes(compiled.label_masks)
    stepper = _Stepper(compiled, reps)
    codes = compiled.report_codes
    reports: list[Report] = []
    n = len(data)
    if n == 0:
        empty = ExecutionResult(
            reports=reports,
            final_current=frozenset(),
            symbols_processed=0,
            transitions=0,
        )
        return empty, LazyDfaStats(0, 0, 0, 0, 0, None, "empty input")
    classes = bytes(data).translate(class_of)

    # The first step, never memoized: it alone enables the start-of-data
    # states.
    first = classes[0]
    bit = stepper.class_bits[first]
    masks = compiled.label_masks
    volatile, _ = stepper.step(
        (), first, [sid for sid in compiled.start_of_data if masks[sid] & bit]
    )
    transitions = len(stepper.latched) + len(volatile)
    reports.extend(
        Report(0, sid, codes[sid]) for sid in stepper.emitted(volatile)
    )

    # -- the memo --------------------------------------------------------
    ncls = len(reps)
    typecode = "H" if len(compiled) <= 1 << 16 else "I"
    blank = array("i", [-1]) * ncls
    row_bytes = ncls * blank.itemsize
    ids: dict[bytes, int] = {}  # packed volatile set -> DFA state
    keys: list[bytes] = []  # DFA state -> packed volatile set
    nxt = array("i")  # DFA state * ncls + class -> DFA state, -1 unknown
    sizes = array("i")  # DFA state -> transitions a step into it counts
    emit: dict[int, tuple[int, ...]] = {}  # DFA state -> reporting sids
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one copy each
    charged = peak = states = misses = flushes = 0

    def intern(members: set[int]) -> int:
        """The DFA state of ``members``; -1 when it does not fit."""
        nonlocal charged, peak, states
        key = array(typecode, sorted(members)).tobytes()
        state = ids.get(key)
        if state is not None:
            return state
        sids = tuple(stepper.emitted(members))
        charge = _STATE_BYTES + len(key) + row_bytes
        if sids:
            charge += _EMIT_BYTES + 8 * len(sids)
        if charged + charge > MEMO_BUDGET:
            return -1
        charged += charge
        peak = max(peak, charged)
        states += 1
        state = len(keys)
        ids[key] = state
        keys.append(key)
        nxt.extend(blank)
        sizes.append(len(stepper.latched) + len(members))
        if sids:
            emit[state] = shared.setdefault(sids, sids)
        return state

    def forget() -> None:
        nonlocal charged
        ids.clear()
        keys.clear()
        emit.clear()
        shared.clear()
        del nxt[:], sizes[:]
        charged = 0

    state = intern(volatile)
    current: Iterable[int] | None = volatile  # ``state``'s members, if known
    stopped_at: int | None = None
    reason = "memo kept to the end"
    if state < 0:
        stopped_at, reason = 1, _budget_reason()
    offset = 1
    window_start, flushed = 0, True  # the first window warms the memo up
    while stopped_at is None and offset < n:
        window_end = min(n, window_start + MISS_WINDOW)
        window_misses = 0
        for offset, cls in enumerate(classes[offset:window_end], offset):
            slot = state * ncls + cls
            target = nxt[slot]
            if target < 0:
                window_misses += 1
                if current is None:
                    current = array(typecode)
                    current.frombytes(keys[state])
                current, latched_new = stepper.step(current, cls)
                if latched_new:
                    # Every entry assumed the old latched set.
                    forget()
                    flushes += 1
                    flushed = True
                target = intern(current)
                if target < 0:
                    transitions += len(stepper.latched) + len(current)
                    reports.extend(
                        Report(offset, sid, codes[sid])
                        for sid in stepper.emitted(current)
                    )
                    stopped_at, reason = offset + 1, _budget_reason()
                    break
                if not latched_new:
                    nxt[slot] = target
            else:
                current = None
            state = target
            transitions += sizes[target]
            sids = emit.get(target)
            if sids is not None:
                reports.extend([Report(offset, sid, codes[sid]) for sid in sids])
        else:
            offset = window_end
            span = window_end - window_start
            if not flushed and window_misses > MISS_LIMIT * span:
                stopped_at = window_end
                reason = (
                    f"{window_misses} of {span} lookups in a window missed "
                    f"(limit {MISS_LIMIT:.0%})"
                )
            window_start, flushed = window_end, False
        misses += window_misses
    lookups = (n if stopped_at is None else stopped_at) - 1
    if current is None:
        current = array(typecode)
        current.frombytes(keys[state])
    forget()

    # -- past the memo: plain steps --------------------------------------
    if stopped_at is not None:
        latched = stepper.latched
        for offset in range(stopped_at, n):
            current, _ = stepper.step(current, classes[offset])
            transitions += len(latched) + len(current)
            sids = stepper.emitted(current)
            if sids:
                reports.extend([Report(offset, sid, codes[sid]) for sid in sids])
        reason = f"stopped memoizing at {stopped_at}: {reason}"

    result = ExecutionResult(
        reports=reports,
        final_current=frozenset(stepper.latched.union(current)),
        symbols_processed=n,
        transitions=transitions,
    )
    stats = LazyDfaStats(
        dfa_states=states,
        hits=lookups - misses,
        misses=misses,
        memo_bytes=peak,
        flushes=flushes,
        stopped_at=stopped_at,
        reason=reason,
    )
    return result, stats
