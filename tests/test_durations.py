"""Tests for duration/size distribution analysis."""

import numpy as np
import pytest

from repro.core.durations import (
    duration_stats,
    render_duration_table,
    size_stats,
)
from repro.observatories.base import Observations


def feed_with_durations(durations, bps=None):
    observations = Observations("X")
    n = len(durations)
    observations.append(
        np.zeros(n, dtype=np.int32),
        np.arange(n, dtype=np.int64),
        np.zeros(n, dtype=np.int8),
        np.full(n, 10, dtype=np.int16),
        np.ones(n, dtype=bool),
        np.asarray(bps if bps is not None else [1e8] * n),
        duration=np.asarray(durations, dtype=np.float64),
    )
    return observations


class TestDurationStats:
    def test_basic_percentiles(self):
        stats = duration_stats(feed_with_durations([60, 120, 300, 900, 4000]))
        assert stats.median_s == 300.0
        assert stats.median_minutes == 5.0
        assert stats.share_under_10min == pytest.approx(0.6)
        assert stats.reported == 5

    def test_nan_durations_excluded(self):
        stats = duration_stats(
            feed_with_durations([60.0, float("nan"), 600.0, float("nan")])
        )
        assert stats.reported == 2
        assert stats.median_s == pytest.approx(330.0)

    def test_all_unreported(self):
        stats = duration_stats(feed_with_durations([float("nan")] * 3))
        assert stats.reported == 0
        assert np.isnan(stats.median_s)

    def test_simulated_durations_are_recorded(self, small_study):
        stats = duration_stats(small_study.observations["Netscout"])
        assert stats.reported == stats.records  # simulation reports all
        # Generator floors durations at 60 s with a ~600 s median.
        assert stats.median_s >= 60.0
        assert 0.0 < stats.share_under_10min < 1.0


class TestSizeStats:
    def test_percentiles(self):
        stats = size_stats(
            feed_with_durations([60] * 4, bps=[1e6, 1e8, 1e9, 5e9])
        )
        assert stats.peak_bps == 5e9
        assert stats.peak_gbps == pytest.approx(5.0)
        assert stats.median_bps == pytest.approx((1e8 + 1e9) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            size_stats(Observations("empty"))


class TestRendering:
    def test_table(self, small_study):
        text = render_duration_table(
            {"Netscout": small_study.observations["Netscout"]}
        )
        assert "Netscout" in text
        assert "<10min" in text
