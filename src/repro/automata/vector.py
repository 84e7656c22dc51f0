"""Bit-parallel vectorized flow execution.

This is the PaREM-style rival to the active-set walk in
:mod:`repro.automata.execution`: a flow's current set is one packed
bitset (little-endian, state ``s`` at bit ``s``) and one step is a
handful of word-parallel AND/OR operations over precompiled per-
symbol-class transition tables instead of a per-state dict/set walk.
The tables are compiled once per automaton with NumPy (lazily, on the
first vector flow) and shared by every flow:

* **Symbol classes** — two symbols are equivalent when every state
  label contains either both or neither, so the 256-symbol alphabet
  collapses to a handful of classes (5 for Levenshtein/Hamming, ~37
  for the Snort family; computed by deduplicating the label-membership
  matrix columns with ``np.unique``).  Per class ``c``,
  ``match_masks[c]`` is the bitset of states whose label contains the
  class.
* **Successor rows** — ``rows[s]`` is the bitset of successors of
  ``s``.  Because intersection distributes over union, one step is::

      cur' = (union of rows[s] for s in cur) & match_masks[class(b)]
             | (persistent & match_masks[class(b)])

  with the one-shot set OR'd in on the first step only — exactly the
  semantics of :meth:`~repro.automata.execution.FlowExecution.step`.

The successor union is evaluated 64 states at a time: the current
bitset is split into 64-bit limbs, and each non-zero limb indexes a
lazily-built class table mapping the limb's *value* to the
(class-masked) union of its states' successor rows.  Limb values recur
heavily — active states cluster and trajectories cycle — so after a
short warm-up almost every step is a few dictionary hits and wide
integer ORs, both of which run as single C loops over machine words.
The limb tables are keyed by class only, so every flow of a scheduler
run (ASG, enumeration, golden) shares one warm cache.

Accounting is bit-exact with the set path: per step, ``transitions``
grows by ``popcount(cur')`` and a report fires for every reporting
state in ``cur'``, emitted in ascending sid order — the same multiset,
order, ``transitions`` and ``state_vector()`` values
:class:`FlowExecution` produces, which is what keeps SVC, convergence
and deactivation accounting identical across executors.

The two engines share one constructor (``initial_current``,
``persistent``, ``one_shot``) and one surface: ``step()``, ``run()``,
``reports``, ``transitions``, ``symbols_processed``, ``state_vector()``
and ``current``.  The scheduler drives either engine through it;
:mod:`repro.analyze.facts`, :mod:`repro.core.speculation` and
:mod:`repro.workloads.tracegen` drive the set engine through the same
calls.

Like the set path, the executor exploits the ``latchable`` states
(full-label self-loops: once matched, matched forever).  The latched
part of the bitset is monotone, so its successor union is maintained
*incrementally* — one wide OR per newly latched state, ever — and the
per-symbol limb scan touches only the volatile remainder.  Saturated
automata (SPM, Dotstar) would otherwise pay for their whole stable
active set on every symbol, exactly the failure mode latching removes
from the set walk.

The crossover mirrors the SFA-versus-NFA tradeoff: bit-parallel
stepping pays per *limb touched* and wins when many states are active
at once (Levenshtein, Hamming — the transition-bound workloads); the
active-set walk pays per *active state* and stays ahead on large
automata whose live set is a handful of states (Snort, ClamAV).
"""

from __future__ import annotations

from struct import Struct
from typing import Iterable

import numpy as np

from repro.automata.execution import CompiledAutomaton, Report

__all__ = ["VectorTables", "VectorFlowExecution", "LIMB_CACHE_BUDGET"]

LIMB_CACHE_BUDGET = 128 << 20
"""Approximate byte budget for cached limb-value entries per automaton
across all classes.  Each entry holds one packed successor-union
bitset, charged at its actual width plus dict overhead; past the
budget, misses are still computed exactly but no longer stored, which
bounds table memory on automata whose active sets never repeat
(Fermi) without touching the common case."""


class VectorTables:
    """Shared per-automaton tables for bit-parallel execution.

    Built lazily by :meth:`CompiledAutomaton.vector_tables` and cached
    on the compiled automaton, so the (one-time) compilation cost is
    paid only by runs that select the vector strategy.  The class
    structure is derived with NumPy (label-mask membership matrix,
    column dedup via ``np.unique``); the packed bitsets are carried as
    Python integers, whose wide AND/OR are single C loops over 30-bit
    limbs — on-par with a uint64 array pass, without per-call array
    overhead in the per-symbol loop.
    """

    __slots__ = (
        "compiled",
        "num_states",
        "limbs",
        "nbytes",
        "num_classes",
        "class_of",
        "match_masks",
        "rows",
        "reporting_mask",
        "latchable_mask",
        "_unpack",
        "_limb_tables",
        "_limb_budget",
        "_report_sids",
    )

    def __init__(self, compiled: CompiledAutomaton) -> None:
        self.compiled = compiled
        n = len(compiled)
        self.num_states = n
        self.limbs = max(1, (n + 63) // 64)
        self.nbytes = self.limbs * 8

        # -- symbol classes (NumPy) ---------------------------------------
        # Distinct label masks -> per-mask 256-symbol membership rows;
        # symbols with identical membership *columns* are one class.
        uniq_index: dict[int, int] = {}
        uniq_rows: list[np.ndarray] = []
        state_uniq = [0] * n
        for sid, mask in enumerate(compiled.label_masks):
            row = uniq_index.get(mask)
            if row is None:
                row = len(uniq_rows)
                uniq_index[mask] = row
                uniq_rows.append(
                    np.unpackbits(
                        np.frombuffer(
                            mask.to_bytes(32, "little"), dtype=np.uint8
                        ),
                        bitorder="little",
                    )
                )
            state_uniq[sid] = row
        if not uniq_rows:  # zero-state automaton (validate() forbids it)
            uniq_rows.append(np.zeros(256, dtype=np.uint8))
        memb = np.stack(uniq_rows)  # (num distinct masks, 256)
        _, inverse = np.unique(memb, axis=1, return_inverse=True)
        class_list = inverse.reshape(256).astype(np.int64).tolist()
        self.class_of: list[int] = class_list
        self.num_classes = max(class_list) + 1

        # Per-class state membership: state s matches class c iff its
        # label contains the class's representative (hence every)
        # symbol.
        reps = [0] * self.num_classes
        for symbol in range(255, -1, -1):
            reps[class_list[symbol]] = symbol
        memb_bool = memb.astype(bool)
        uniq_of_state = np.asarray(state_uniq, dtype=np.int64)
        self.match_masks: list[int] = [
            self._pack_bool(memb_bool[:, reps[cls]][uniq_of_state])
            for cls in range(self.num_classes)
        ]

        # -- successor rows ----------------------------------------------
        # Built byte-wise: a wide ``1 << dst`` allocates an n-bit integer
        # per edge, which hurts on the 30k-state automata.
        nbytes = self.nbytes
        self.rows: list[int] = [0] * n
        for sid, successors in enumerate(compiled.succ):
            buf = bytearray(nbytes)
            for dst in successors:
                buf[dst >> 3] |= 1 << (dst & 7)
            self.rows[sid] = int.from_bytes(buf, "little")

        self.reporting_mask = self.encode(compiled.reporting)
        self.latchable_mask = self.encode(compiled.latchable)
        self._unpack = Struct("<%dQ" % self.limbs).unpack

        # limb tables: [class][limb position] -> {limb value: union of
        # class-masked successor rows}; shared by every flow.
        self._limb_tables: list[list[dict[int, int]]] = [
            [{} for _ in range(self.limbs)]
            for _ in range(self.num_classes)
        ]
        self._limb_budget = LIMB_CACHE_BUDGET
        # reporting-subset decode cache: masked bitset -> ascending sids
        self._report_sids: dict[int, tuple[int, ...]] = {}

    # -- encoding --------------------------------------------------------

    def encode(self, sids: Iterable[int]) -> int:
        """Pack a state-id collection into a bitset."""
        buf = bytearray(self.nbytes)
        for sid in sids:
            buf[sid >> 3] |= 1 << (sid & 7)
        return int.from_bytes(buf, "little")

    def decode(self, bits: int) -> frozenset[int]:
        """The state-id set a bitset represents."""
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return frozenset(out)

    def _pack_bool(self, bools: np.ndarray) -> int:
        packed = np.packbits(
            bools.astype(np.uint8, copy=False), bitorder="little"
        )
        return int.from_bytes(packed.tobytes(), "little")

    # -- stepping primitives ---------------------------------------------

    def limbs_of(self, bits: int) -> tuple[int, ...]:
        """Split a bitset into its ``limbs`` 64-bit limb values."""
        return self._unpack(bits.to_bytes(self.nbytes, "little"))

    def successor_union(self, cls: int, position: int, value: int) -> int:
        """Class-masked successor union for one 64-bit limb value.

        Cache misses fold the individual successor rows of the limb's
        set bits; hits are one dict lookup.  The cache is exact — only
        its *occupancy* is budget-bounded.
        """
        table = self._limb_tables[cls][position]
        union = table.get(value)
        if union is None:
            match = self.match_masks[cls]
            rows = self.rows
            base = position << 6
            union = 0
            remaining = value
            while remaining:
                low = remaining & -remaining
                union |= rows[base + low.bit_length() - 1]
                remaining ^= low
            union &= match
            if self._limb_budget > 0:
                # Charge the entry's true footprint: the union's digits
                # plus ~100 bytes of dict-slot and key overhead.
                self._limb_budget -= 100 + (union.bit_length() >> 3)
                table[value] = union
        return union

    def report_sids(self, reporting_bits: int) -> tuple[int, ...]:
        """Ascending sids of a reporting-subset bitset (cached)."""
        sids = self._report_sids.get(reporting_bits)
        if sids is None:
            sids = tuple(sorted(self.decode(reporting_bits)))
            self._report_sids[reporting_bits] = sids
        return sids


class VectorFlowExecution:
    """Bit-parallel drop-in for :class:`FlowExecution`.

    Same constructor, same stepping semantics, same surface (listed in
    the module docstring), byte-for-byte identical accounting — only
    the execution strategy differs.  See the module docstring for the
    recurrence.
    """

    __slots__ = (
        "compiled",
        "tables",
        "persistent",
        "one_shot",
        "reports",
        "symbols_processed",
        "transitions",
        "_started",
        "_cur",
        "_lat",
        "_not_lat",
        "_lat_rows",
        "_pers_by_class",
        "_one_mask",
        "_rep_mask",
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
        tables = compiled.vector_tables()
        self.tables = tables
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
        self._cur = tables.encode(initial_current)
        # Latched bookkeeping: the monotone part of the current set and
        # the (incrementally maintained) union of its successor rows.
        lat = self._cur & tables.latchable_mask
        self._lat = 0
        self._not_lat = -1
        self._lat_rows = 0
        if lat:
            self._grow_latched(lat)
        # Per-class masked persistent set, filled lazily by _pers_for.
        # -1 marks "not yet masked"; the unmasked set rides in a scratch
        # slot past the class indices (class lookups never reach it).
        pers_mask = tables.encode(self.persistent)
        if pers_mask:
            self._pers_by_class = [-1] * tables.num_classes
            self._pers_by_class.append(pers_mask)
        else:
            self._pers_by_class = [0] * tables.num_classes
        self._one_mask = tables.encode(self.one_shot)
        self._rep_mask = tables.reporting_mask

    def _grow_latched(self, delta: int) -> None:
        """Fold newly latched states into the monotone latched part.

        ``delta`` is a bitset of latchable states newly seen in a current
        set.  Each state is OR'd into the latched successor union exactly
        once, ever — afterwards its whole contribution to a step costs
        nothing.
        """
        rows = self.tables.rows
        lat_rows = self._lat_rows
        remaining = delta
        while remaining:
            low = remaining & -remaining
            lat_rows |= rows[low.bit_length() - 1]
            remaining ^= low
        self._lat_rows = lat_rows
        self._lat |= delta
        self._not_lat = ~self._lat

    def _pers_for(self, cls: int) -> int:
        cached = self._pers_by_class[cls]
        if cached >= 0:
            return cached
        masked = self._pers_by_class[-1] & self.tables.match_masks[cls]
        self._pers_by_class[cls] = masked
        return masked

    # -- stepping ---------------------------------------------------------

    def step(self, symbol: int, offset: int) -> None:
        """Consume one symbol whose global input offset is ``offset``."""
        self.run(bytes((symbol,)), offset)

    def run(self, data: bytes, base_offset: int = 0) -> None:
        """Consume every byte of ``data``; offsets start at
        ``base_offset``."""
        if not data:
            return
        tables = self.tables
        class_of = tables.class_of
        match_masks = tables.match_masks
        limbs_of = tables.limbs_of
        union = tables.successor_union
        latchable = tables.latchable_mask
        pers_by_class = self._pers_by_class
        pers_for = self._pers_for
        rep_mask = self._rep_mask
        report_sids = tables.report_sids
        codes = self.compiled.report_codes
        reports = self.reports
        started = self._started
        cur = self._cur
        lat = self._lat
        transitions = self.transitions
        offset = base_offset
        for symbol in data:
            cls = class_of[symbol]
            pers = pers_by_class[cls]
            if pers < 0:
                pers = pers_for(cls)
            acc = pers
            if lat:
                acc |= self._lat_rows & match_masks[cls]
            volatile = cur & self._not_lat
            if volatile:
                for position, value in enumerate(limbs_of(volatile)):
                    if value:
                        acc |= union(cls, position, value)
            if not started:
                started = True
                if self._one_mask:
                    acc |= self._one_mask & match_masks[cls]
            cur = acc
            if latchable:
                fresh_latched = acc & latchable & self._not_lat
                if fresh_latched:
                    self._grow_latched(fresh_latched)
                    lat = self._lat
            transitions += acc.bit_count()
            hits = acc & rep_mask
            if hits:
                reports.extend(
                    Report(offset=offset, element=sid, code=codes[sid])
                    for sid in report_sids(hits)
                )
            offset += 1
        self._started = started
        self._cur = cur
        self.transitions = transitions
        self.symbols_processed += len(data)

    # -- inspection -----------------------------------------------------

    @property
    def current(self) -> set[int]:
        """The full current (just-matched) state set."""
        return set(self.tables.decode(self._cur))

    def state_vector(self) -> frozenset[int]:
        """Canonical snapshot of the dynamic state — bit-identical to
        the set path's, which is what keeps SVC save/compare traffic
        and convergence/deactivation decisions strategy-invariant."""
        return self.tables.decode(self._cur)
