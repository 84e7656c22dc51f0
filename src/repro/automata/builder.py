"""Convenience constructors for common automaton shapes.

The workload generators and many tests build automata from the same small
set of shapes: literal-string chains, chains of character classes, and
patterns anchored by a leading ``.*`` (realized on the AP as an all-input
start state).  Centralizing them here keeps the generators declarative.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.automata.anml import Automaton, StartKind
from repro.automata.charclass import CharClass
from repro.errors import AutomatonError


def chain(
    automaton: Automaton,
    labels: Sequence[CharClass],
    *,
    start: StartKind = StartKind.START_OF_DATA,
    report_code: int | None = None,
    name_prefix: str = "",
) -> list[int]:
    """Append a linear chain of states matching ``labels`` in order.

    The first state gets ``start`` and the last state reports.  Returns
    the ids of the chain states in order.
    """
    if not labels:
        raise AutomatonError("cannot build an empty chain")
    sids: list[int] = []
    for index, label in enumerate(labels):
        is_last = index == len(labels) - 1
        sid = automaton.add_state(
            label,
            start=start if index == 0 else StartKind.NONE,
            reporting=is_last,
            report_code=report_code if is_last else None,
            name=f"{name_prefix}{index}" if name_prefix else "",
        )
        if sids:
            automaton.add_edge(sids[-1], sid)
        sids.append(sid)
    return sids


def literal(
    automaton: Automaton,
    text: str | bytes,
    *,
    start: StartKind = StartKind.START_OF_DATA,
    report_code: int | None = None,
) -> list[int]:
    """Append a chain matching the exact byte string ``text``."""
    data = text.encode("latin-1") if isinstance(text, str) else bytes(text)
    return chain(
        automaton,
        [CharClass.single(byte) for byte in data],
        start=start,
        report_code=report_code,
    )


def unanchored(
    automaton: Automaton,
    labels: Sequence[CharClass],
    *,
    report_code: int | None = None,
) -> list[int]:
    """Append ``.*`` followed by the ``labels`` chain.

    On the AP the leading ``.*`` is a single all-input start state; the
    pattern can begin matching at any input offset.  Returns the chain
    ids, *excluding* the ``.*`` state (which is ``result[0] - 1`` ... not
    guaranteed; use the automaton if the ``.*`` state id is needed).
    """
    sids = chain(
        automaton, labels, start=StartKind.ALL_INPUT, report_code=report_code
    )
    return sids


def star_self_loop(automaton: Automaton) -> int:
    """Add a classic always-active hub: all-input start, ``*`` label,
    self loop.  Patterns hung off this state are fully unanchored."""
    sid = automaton.add_state(CharClass.full(), start=StartKind.ALL_INPUT)
    automaton.add_edge(sid, sid)
    return sid


def attach_pattern(
    automaton: Automaton,
    hub: int,
    labels: Sequence[CharClass],
    *,
    report_code: int | None = None,
) -> list[int]:
    """Hang a chain for ``labels`` off an existing hub state.

    The chain head is additionally a start-of-data state: a ``.*``-hub
    enables children only from the second symbol onward, so without the
    start mark an occurrence at input offset 0 would be missed.  This
    mirrors what regex-to-ANML conversion produces for ``.*pattern``.
    """
    if not labels:
        raise AutomatonError("cannot attach an empty pattern")
    sids: list[int] = []
    for index, label in enumerate(labels):
        is_last = index == len(labels) - 1
        sid = automaton.add_state(
            label,
            start=StartKind.START_OF_DATA if index == 0 else StartKind.NONE,
            reporting=is_last,
            report_code=report_code if is_last else None,
        )
        automaton.add_edge(hub if not sids else sids[-1], sid)
        sids.append(sid)
    return sids


def classes_for(text: str | bytes) -> list[CharClass]:
    """Single-symbol classes for each byte of ``text``."""
    data = text.encode("latin-1") if isinstance(text, str) else bytes(text)
    return [CharClass.single(byte) for byte in data]


def merge_all(automata: Iterable[Automaton], name: str = "union") -> Automaton:
    """Disjoint union of any number of automata, built in one pass:
    each part is appended in place, so no state is copied twice."""
    result = Automaton(name=name)
    for automaton in automata:
        result.append(automaton)
    return result
