"""Range-guided input partitioning: profiling and symbol choice.

Section 3.1: the *range* of a symbol bounds the possible start states of
the following segment, so inputs are cut at frequently occurring symbols
with small ranges.  The partition symbol is chosen by offline profiling:
among symbols frequent enough to cut the input into roughly equal
segments, pick the one with the smallest enumeration range (always-active
states do not count — the ASG flow covers them for free).  The profile is
a fact of the automaton: :func:`enumeration_range_sizes` reads all 256
range sizes as one column sum over the analysis's cached enumerable mask.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.automata.analysis import AutomatonAnalysis
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RangeProfile:
    """Per-symbol range sizes of one automaton (Figure 3's data)."""

    total_states: int
    sizes: tuple[int, ...]

    @property
    def minimum(self) -> int:
        return min(self.sizes)

    @property
    def maximum(self) -> int:
        return max(self.sizes)

    @property
    def average(self) -> float:
        return float(np.mean(self.sizes))


def range_profile(analysis: AutomatonAnalysis) -> RangeProfile:
    """Range sizes over all 256 symbols (Figure 3)."""
    return RangeProfile(
        total_states=len(analysis.automaton),
        sizes=tuple(int(n) for n in analysis.range_sizes()),
    )


def _enumerable(
    analysis: AutomatonAnalysis,
    exclude: frozenset[int],
    boundary_at_offset_zero: bool,
) -> np.ndarray:
    mask = analysis.enumerable_mask(at_offset_zero=boundary_at_offset_zero)
    if exclude:
        mask = mask.copy()
        mask[list(exclude)] = False
    return mask


def enumeration_range_sizes(
    analysis: AutomatonAnalysis,
    *,
    exclude: frozenset[int] = frozenset(),
) -> np.ndarray:
    """``len(enumeration_range(analysis, s, exclude=exclude))`` for all
    256 symbols ``s`` at once: one int64 column sum of the label matrix
    over the automaton's cached enumerable mask minus ``exclude``."""
    return analysis.label_counts(_enumerable(analysis, exclude, False))


def enumeration_range(
    analysis: AutomatonAnalysis,
    symbol: int,
    *,
    exclude: frozenset[int] = frozenset(),
    boundary_at_offset_zero: bool = False,
) -> frozenset[int]:
    """States enumerable as segment-boundary matches of ``symbol``.

    The raw range, minus states with no predecessors that are not
    all-input starts (a start-of-data state without predecessors cannot
    be matched at any offset past zero), minus ``exclude`` (the
    path-independent group when the ASG optimization is on).

    ``boundary_at_offset_zero`` covers the degenerate one-byte first
    segment: at input offset 0 every start-of-data state is enabled, so
    parentless start-of-data states are matchable there and must stay
    enumerable.
    """
    column = analysis.label_matrix()[:, symbol]
    mask = _enumerable(analysis, exclude, boundary_at_offset_zero)
    return frozenset(np.flatnonzero(column & mask).tolist())


@dataclass(frozen=True)
class PartitionSymbolChoice:
    """Outcome of offline profiling."""

    symbol: int
    range_size: int
    occurrences: int


def choose_partition_symbol(
    analysis: AutomatonAnalysis,
    data: bytes,
    *,
    num_segments: int,
    exclude: frozenset[int] = frozenset(),
) -> PartitionSymbolChoice:
    """Pick the partition symbol for ``data``.

    A symbol is eligible when it occurs at least ``num_segments - 1``
    times (one cut per boundary).  Among eligible symbols the smallest
    enumeration range wins.  Ties go to the higher occurrence count
    (more frequent means boundaries can sit closer to the equal-size
    targets), then to the symbol that occurs first in ``data``.  When no
    symbol is eligible, the most frequent symbol is chosen, with the
    same first-occurrence tie-break.
    """
    if num_segments < 1:
        raise ConfigurationError("need at least one segment")
    if not data:
        raise ConfigurationError("cannot profile an empty input")
    counts = Counter(data)
    needed = max(1, num_segments - 1)
    sizes = enumeration_range_sizes(analysis, exclude=exclude)
    best: PartitionSymbolChoice | None = None
    for symbol, occurrences in counts.items():
        if occurrences < needed:
            continue
        size = int(sizes[symbol])
        if (
            best is None
            or size < best.range_size
            or (size == best.range_size and occurrences > best.occurrences)
        ):
            best = PartitionSymbolChoice(
                symbol=symbol, range_size=size, occurrences=occurrences
            )
    if best is None:
        # No symbol occurs often enough; fall back to the most frequent.
        symbol, occurrences = counts.most_common(1)[0]
        best = PartitionSymbolChoice(
            symbol=symbol,
            range_size=int(sizes[symbol]),
            occurrences=occurrences,
        )
    return best
