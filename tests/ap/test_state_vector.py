"""Unit tests for the state-vector cache."""

import pytest

from repro.ap.state_vector import StateVectorCache
from repro.errors import CapacityError


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
