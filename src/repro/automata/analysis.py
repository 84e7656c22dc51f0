"""Structural analysis of homogeneous automata.

The PAP parallelization scheme (Section 3 of the paper) is driven by four
structural properties of real-world NFAs, all computed here:

* **symbol ranges** — for each of the 256 input symbols, the set of
  *enterable* states labeled with that symbol: states with a predecessor
  or a start kind (the candidate start states of a segment whose
  predecessor ended at that symbol).  Enterable is not reachable: a
  state fed only by an unreachable island is in the range;
* **connected components** — disconnected sub-graphs whose state spaces
  can never overlap, allowing their enumeration paths to share a flow;
* **parent structure** — range states sharing a parent always become
  active together and can share an enumeration path;
* **always-active states** — states active on every cycle regardless of
  the path taken (the Active State Group).

:class:`AutomatonAnalysis` computes each lazily and caches against the
automaton's version counter.  Which states a range may hold is one
cached bool mask per automaton, so all 256 range sizes are one column
sum of :meth:`AutomatonAnalysis.label_matrix` over it.
"""

from __future__ import annotations

import numpy as np

from repro.automata.anml import Automaton, StartKind
from repro.errors import AutomatonError


class AutomatonAnalysis:
    """Lazily computed, cached structural views of one automaton."""

    def __init__(self, automaton: Automaton) -> None:
        self.automaton = automaton
        self._version = automaton.version
        self._label_matrix: np.ndarray | None = None
        self._masks: tuple[np.ndarray, np.ndarray] | None = None
        self._component_index: list[int] | None = None
        self._components: list[frozenset[int]] | None = None
        self._always_active: frozenset[int] | None = None
        self._reachable: frozenset[int] | None = None
        self._coreachable: frozenset[int] | None = None

    # -- cache hygiene ---------------------------------------------------

    def is_fresh(self) -> bool:
        """True while the automaton has not mutated since construction.

        Every query method raises :class:`AutomatonError` once this goes
        false; :mod:`repro.lint` surfaces the same condition as the
        ``AP009`` diagnostic instead of a deep failure.
        """
        return self.automaton.version == self._version

    def _check_fresh(self) -> None:
        if not self.is_fresh():
            raise AutomatonError(
                "automaton mutated after analysis was constructed; "
                "build a new AutomatonAnalysis"
            )

    # -- label matrix and symbol ranges -----------------------------------

    def label_matrix(self) -> np.ndarray:
        """Boolean matrix ``M[sid, symbol]`` = symbol in label(sid)."""
        self._check_fresh()
        if self._label_matrix is None:
            count = len(self.automaton)
            raw = bytearray(count * 32)
            for sid in range(count):
                mask = self.automaton.state(sid).label.mask
                raw[sid * 32 : (sid + 1) * 32] = mask.to_bytes(32, "little")
            bits = np.unpackbits(
                np.frombuffer(bytes(raw), dtype=np.uint8), bitorder="little"
            )
            self._label_matrix = bits.reshape(count, 256).astype(bool)
        return self._label_matrix

    def enumerable_mask(self, *, at_offset_zero: bool = False) -> np.ndarray:
        """Read-only bool mask of the states a segment boundary can
        enumerate: states with a predecessor or an all-input start.

        At the offset-0 boundary every start-of-data state is enabled
        too, so they join the mask; that mask is exactly the *enterable*
        states, the ones that can ever be in a current set (a
        predecessor, or a start kind).  Both masks come from one pass
        over edges and start kinds.
        """
        self._check_fresh()
        if self._masks is None:
            automaton = self.automaton
            count = len(automaton)
            boundary = np.zeros(count, dtype=bool)
            boundary[[dst for _, dst in automaton.edges()]] = True
            start_of_data = np.zeros(count, dtype=bool)
            for ste in automaton.states():
                if ste.start is StartKind.ALL_INPUT:
                    boundary[ste.sid] = True
                elif ste.start is StartKind.START_OF_DATA:
                    start_of_data[ste.sid] = True
            enterable = boundary | start_of_data
            boundary.flags.writeable = False
            enterable.flags.writeable = False
            self._masks = (boundary, enterable)
        boundary, enterable = self._masks
        return enterable if at_offset_zero else boundary

    def label_counts(self, mask: np.ndarray) -> np.ndarray:
        """Per symbol, how many states selected by the bool ``mask``
        carry it in their label: one column sum of :meth:`label_matrix`,
        counted in int64 because ranges exceed 255 states."""
        return self.label_matrix()[mask].sum(axis=0, dtype=np.int64)

    def symbol_range(self, symbol: int) -> frozenset[int]:
        """The paper's *range* of ``symbol``: every enterable state whose
        label contains it (the ANML image of the transition function)."""
        column = self.label_matrix()[:, symbol]
        enterable = self.enumerable_mask(at_offset_zero=True)
        return frozenset(np.flatnonzero(column & enterable).tolist())

    def range_sizes(self) -> np.ndarray:
        """Array of 256 range sizes, one per symbol."""
        return self.label_counts(self.enumerable_mask(at_offset_zero=True))

    # -- connected components ----------------------------------------------

    def component_index(self) -> list[int]:
        """``component_index()[sid]`` is the id of sid's (undirected)
        connected component."""
        self._check_fresh()
        if self._component_index is None:
            self._compute_components()
        assert self._component_index is not None
        return self._component_index

    def connected_components(self) -> list[frozenset[int]]:
        """All connected components, ordered by smallest member id."""
        self._check_fresh()
        if self._components is None:
            self._compute_components()
        assert self._components is not None
        return self._components

    def _compute_components(self) -> None:
        count = len(self.automaton)
        parent = list(range(count))

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for src, dst in self.automaton.edges():
            root_a, root_b = find(src), find(dst)
            if root_a != root_b:
                parent[root_b] = root_a

        groups: dict[int, list[int]] = {}
        for sid in range(count):
            groups.setdefault(find(sid), []).append(sid)
        ordered = sorted(groups.values(), key=lambda members: members[0])
        self._components = [frozenset(members) for members in ordered]
        index = [0] * count
        for cid, members in enumerate(ordered):
            for sid in members:
                index[sid] = cid
        self._component_index = index

    # -- always-active states ----------------------------------------------

    def always_active_depths(self) -> dict[int, int]:
        """Bootstrap depths of always-matched states (the ASG basis).

        A state with depth ``d`` is guaranteed matched at every input
        offset ``t >= d``, independent of the input content:

        * depth 0 — all-input start states with a full-alphabet label,
          and start-of-data start states with a full label and a self
          loop (matched at offset 0, then self-sustained);
        * depth ``d(p) + 1`` — any full-label state with a predecessor
          ``p`` already in the group (``p`` matches every cycle, so the
          state is enabled every cycle and its full label always hits).

        The depth matters for exactness: a segment starting at offset
        ``o`` may only treat states with ``d <= o`` as always active.
        """
        self._check_fresh()
        automaton = self.automaton
        depths: dict[int, int] = {}
        for ste in automaton.states():
            if not ste.label.is_full():
                continue
            if ste.start is StartKind.ALL_INPUT:
                depths[ste.sid] = 0
            elif ste.start is StartKind.START_OF_DATA and automaton.has_self_loop(
                ste.sid
            ):
                depths[ste.sid] = 0
        changed = True
        while changed:
            changed = False
            for ste in automaton.states():
                if not ste.label.is_full():
                    continue
                best = depths.get(ste.sid)
                for pred in automaton.predecessors(ste.sid):
                    if pred in depths and pred != ste.sid:
                        candidate = depths[pred] + 1
                        if best is None or candidate < best:
                            best = candidate
                if best is not None and best != depths.get(ste.sid):
                    depths[ste.sid] = best
                    changed = True
        return depths

    def always_active_states(self, max_depth: int = 0) -> frozenset[int]:
        """The Active State Group (Section 3.3.2): states guaranteed
        matched at every offset ``t >= max_depth``."""
        self._check_fresh()
        return frozenset(
            sid
            for sid, depth in self.always_active_depths().items()
            if depth <= max_depth
        )

    def path_independent_states(self, max_depth: int = 0) -> frozenset[int]:
        """States whose matched status at offsets ``t >= max_depth``
        depends only on the input symbol at ``t``, never on history.

        These are the all-input start states (persistently enabled, so a
        match is purely a label test) together with the always-active
        group at ``max_depth``.  The PAP ASG flow reproduces exactly
        these states, so enumeration flows may drop them; see
        :mod:`repro.core.merging`.
        """
        self._check_fresh()
        independent = set(self.always_active_states(max_depth))
        independent.update(self.automaton.all_input_states())
        return frozenset(independent)

    # -- reachability -------------------------------------------------------

    def reachable_states(self) -> frozenset[int]:
        """States reachable from any start state along edges."""
        self._check_fresh()
        if self._reachable is None:
            automaton = self.automaton
            seen = set(automaton.start_states())
            frontier = list(seen)
            while frontier:
                sid = frontier.pop()
                for dst in automaton.successors(sid):
                    if dst not in seen:
                        seen.add(dst)
                        frontier.append(dst)
            self._reachable = frozenset(seen)
        return self._reachable

    def coreachable_states(self) -> frozenset[int]:
        """States from which some reporting state is reachable along
        edges (reporting states included).  Empty when the automaton has
        no reporting states."""
        self._check_fresh()
        if self._coreachable is None:
            automaton = self.automaton
            seen = set(automaton.reporting_states())
            frontier = list(seen)
            while frontier:
                sid = frontier.pop()
                for src in automaton.predecessors(sid):
                    if src not in seen:
                        seen.add(src)
                        frontier.append(src)
            self._coreachable = frozenset(seen)
        return self._coreachable

    def dead_states(self) -> frozenset[int]:
        """Reachable states that can never contribute to a report.

        A state is dead when it is reachable from a start state but no
        reporting state is reachable from it.  For automata with no
        reporting states at all (pure filters are legal) the notion is
        vacuous and the result is empty.
        """
        self._check_fresh()
        if not self.automaton.reporting_states():
            return frozenset()
        return self.reachable_states() - self.coreachable_states()

    # -- parents ------------------------------------------------------------

    def parents_of(self, sid: int) -> tuple[int, ...]:
        """Predecessors of ``sid`` (the paper's parent states)."""
        self._check_fresh()
        return self.automaton.predecessors(sid)
