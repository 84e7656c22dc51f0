"""The state-vector cache: slot occupancy and traffic.

A state vector snapshots one flow's execution: the active-state mask of
every block plus counter values — 59,936 bits on the D480.  The cache
holds up to 512 vectors per device and is what makes AP flows cheap to
switch (save + fetch + load = 3 cycles).

The model keeps which slots are occupied and counts the traffic, not
the vectors themselves: a flow's execution object is its dynamic state,
so a stored copy would never be read.  The paper's Section 3.3.3
augments the cache with a bitwise comparator (one XOR per state bit
into a wired AND) so convergence between two flows is a one-cycle
vector comparison, and Section 3.3.4 reuses it for deactivation; the
scheduler makes those comparisons on the flows' own vectors and
charges each convergence comparison to
:attr:`StateVectorCache.comparisons`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ap.geometry import STATE_VECTOR_CACHE_ENTRIES
from repro.errors import CapacityError

LEVELS = frozenset({"capacity", "occupied", "peak_occupancy"})
"""The :meth:`StateVectorCache.stats` keys that are levels, not counts:
a run folds its segments' levels by max and exports them as gauges, and
sums the other keys and exports them as counters."""


@dataclass
class StateVectorCache:
    """A fixed-capacity slot store with traffic counters.

    Besides the comparator count, the cache keeps the occupancy and
    hit/miss telemetry the observability layer reports: a *hit* is a
    restore of a populated slot, a *miss* a restore of an absent one
    (which still raises — the model treats it as a programming error,
    but the counter makes the event visible in traces).
    """

    capacity: int = STATE_VECTOR_CACHE_ENTRIES
    _slots: set[int] = field(default_factory=set)
    comparisons: int = 0
    saves: int = 0
    restores: int = 0
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    peak_occupancy: int = 0

    def save(self, slot: int) -> None:
        """Write a flow's vector into ``slot`` (allocating it if new)."""
        if slot not in self._slots and len(self._slots) >= self.capacity:
            raise CapacityError(
                f"state vector cache full: {self.capacity} flows is the "
                "architectural limit (Section 5.1)"
            )
        self._slots.add(slot)
        self.saves += 1
        if len(self._slots) > self.peak_occupancy:
            self.peak_occupancy = len(self._slots)

    def restore(self, slot: int) -> None:
        """Fetch ``slot``'s vector back into the mask register."""
        if slot not in self._slots:
            self.misses += 1
            raise CapacityError(f"no state vector in slot {slot}")
        self.restores += 1
        self.hits += 1

    def invalidate(self, slot: int) -> None:
        """Drop a slot (flow deactivation); idempotent."""
        if slot in self._slots:
            self._slots.remove(slot)
            self.invalidations += 1

    def occupied(self) -> int:
        return len(self._slots)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the tracer and ``PAPRunResult.extra``."""
        return {
            "capacity": self.capacity,
            "occupied": len(self._slots),
            "peak_occupancy": self.peak_occupancy,
            "saves": self.saves,
            "restores": self.restores,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "comparisons": self.comparisons,
        }
