"""Tests for wall-clock measurement and median/MAD summaries."""

import pytest

from repro.perf.measure import measure_wall, summarize_samples


class TestSummarize:
    def test_median_and_mad(self):
        stats = summarize_samples([1.0, 2.0, 3.0, 100.0, 2.5], warmup=1)
        assert stats.median_s == 2.5
        # Deviations: 1.5, 0.5, 0.5, 97.5, 0.0 -> median 0.5 (robust to
        # the 100.0 outlier where mean/stddev would not be).
        assert stats.mad_s == 0.5
        assert stats.repeats == 5
        assert stats.warmup == 1

    def test_single_sample_has_zero_mad(self):
        stats = summarize_samples([0.25])
        assert stats.median_s == 0.25
        assert stats.mad_s == 0.0

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError, match="empty"):
            summarize_samples([])


class TestMeasureWall:
    def test_counts_calls(self):
        calls = []
        result, stats = measure_wall(
            lambda: calls.append(1) or len(calls), warmup=2, repeats=3
        )
        assert len(calls) == 5
        assert result == 5  # last pass's return value
        assert stats.repeats == 3
        assert stats.warmup == 2
        assert len(stats.samples_s) == 3
        assert all(s >= 0 for s in stats.samples_s)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            measure_wall(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure_wall(lambda: None, warmup=-1)
