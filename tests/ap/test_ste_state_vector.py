"""Unit tests for the STE column model and the state-vector cache."""

import pytest

from repro.ap.state_vector import StateVectorCache
from repro.ap.ste import SteArray, SteColumn
from repro.automata.charclass import CharClass
from repro.errors import AutomatonError, CapacityError


class TestSteColumn:
    def test_program_and_row_read(self):
        column = SteColumn()
        column.program(CharClass("ab"))
        assert column.row_read(ord("a"))
        assert not column.row_read(ord("c"))

    def test_one_hot_semantics_matches_charclass(self):
        # The bit-level column and the CharClass mask must agree on all
        # 256 rows (the paper's example: 'a' -> row 97 set).
        label = CharClass.range("0", "9") | CharClass.single(97)
        column = SteColumn()
        column.program(label)
        for symbol in range(256):
            assert column.row_read(symbol) == (symbol in label)
        assert column.to_charclass() == label

    def test_row97_for_lowercase_a(self):
        column = SteColumn()
        column.program(CharClass.single("a"))
        assert column.rows[97] == 1
        assert column.popcount() == 1

    def test_reprogram_clears(self):
        column = SteColumn()
        column.program(CharClass("abc"))
        column.program(CharClass("x"))
        assert column.popcount() == 1

    def test_bad_row_address(self):
        with pytest.raises(AutomatonError):
            SteColumn().row_read(256)


class TestSteArray:
    def test_broadcast_match(self):
        array = SteArray(8)
        array.program_column(0, CharClass("a"))
        array.program_column(3, CharClass("ab"))
        array.program_column(5, CharClass("b"))
        assert array.match_word(ord("a")) == {0, 3}
        assert array.match_word(ord("b")) == {3, 5}

    def test_unprogrammed_columns_never_match(self):
        array = SteArray(4)
        assert array.match_word(ord("a")) == set()
        assert array.programmed == 0

    def test_capacity_enforced(self):
        array = SteArray(2)
        with pytest.raises(AutomatonError):
            array.program_column(2, CharClass("a"))
        with pytest.raises(AutomatonError):
            SteArray(0)


class TestStateVectorCache:
    def test_save_restore_roundtrip(self):
        cache = StateVectorCache(capacity=4)
        cache.save(2)
        cache.restore(2)
        assert cache.saves == 1
        assert cache.restores == 1
        assert cache.occupied() == 1

    def test_capacity_limit_is_512_by_default(self):
        assert StateVectorCache().capacity == 512

    def test_overflow_raises(self):
        cache = StateVectorCache(capacity=1)
        cache.save(0)
        with pytest.raises(CapacityError):
            cache.save(1)

    def test_overwrite_same_slot_allowed(self):
        cache = StateVectorCache(capacity=1)
        cache.save(0)
        cache.save(0)
        assert cache.saves == 2
        assert cache.occupied() == 1

    def test_invalidate_frees_slot(self):
        cache = StateVectorCache(capacity=1)
        cache.save(0)
        cache.invalidate(0)
        cache.invalidate(0)  # idempotent
        cache.save(1)
        assert cache.occupied() == 1
        cache.restore(1)
        with pytest.raises(CapacityError):
            cache.restore(0)

    def test_restore_missing_slot(self):
        with pytest.raises(CapacityError):
            StateVectorCache().restore(9)

    def test_restore_after_invalidation_fails(self):
        """A deactivated flow's slot is gone: restoring it is a miss."""
        cache = StateVectorCache(capacity=4)
        cache.save(1)
        cache.invalidate(1)
        with pytest.raises(CapacityError):
            cache.restore(1)
        assert cache.misses == 1
        assert cache.hits == 0

    def test_hit_and_miss_counters(self):
        cache = StateVectorCache(capacity=4)
        cache.save(0)
        cache.restore(0)
        cache.restore(0)
        with pytest.raises(CapacityError):
            cache.restore(9)
        assert cache.hits == 2
        assert cache.misses == 1

    def test_peak_occupancy_survives_invalidation(self):
        cache = StateVectorCache(capacity=4)
        for slot in range(3):
            cache.save(slot)
        cache.invalidate(0)
        cache.invalidate(1)
        assert cache.occupied() == 1
        assert cache.peak_occupancy == 3

    def test_invalidations_count_actual_removals(self):
        cache = StateVectorCache(capacity=2)
        cache.save(0)
        cache.invalidate(0)
        cache.invalidate(0)  # slot already gone: not counted
        cache.invalidate(7)  # never present: not counted
        assert cache.invalidations == 1

    def test_stats_snapshot(self):
        cache = StateVectorCache(capacity=8)
        cache.save(0)
        cache.save(1)
        cache.restore(0)
        cache.comparisons += 1  # the scheduler charges its comparisons
        cache.invalidate(1)
        stats = cache.stats()
        assert stats == {
            "capacity": 8,
            "occupied": 1,
            "peak_occupancy": 2,
            "saves": 2,
            "restores": 1,
            "hits": 1,
            "misses": 0,
            "invalidations": 1,
            "comparisons": 1,
        }
        import json

        json.dumps(stats)  # plain data, embeds in PAPRunResult.extra
