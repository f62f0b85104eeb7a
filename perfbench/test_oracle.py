"""Hand-made checks of the benchmark oracle.

Run with ``python3 -m pytest perfbench/test_oracle.py`` from the
repository root.  Every expected value below is worked out by hand, so
the oracle is pinned independently of the program it checks.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402


def test_weekly_counts_bins_days_into_weeks():
    day = np.array([0, 6, 7, 13, 14, 20, 30])
    mask = np.array([True, True, True, False, True, True, True])
    # week 0: days 0, 6; week 1: day 7 (13 masked out); week 2: 14, 20;
    # week 4 (day 30) lies beyond the 3-week window.
    assert oracle.weekly_counts(day, mask, 3).tolist() == [2.0, 1.0, 2.0]


def test_normalise_divides_by_first_15_week_median():
    counts = np.array([2.0] * 7 + [4.0] * 8 + [8.0, 12.0])
    assert oracle.normalise(counts)[-2:].tolist() == [2.0, 3.0]


def test_normalise_zero_median_uses_non_zero_baseline_weeks():
    counts = np.array([0.0] * 10 + [5.0] * 5 + [10.0])
    assert oracle.normalise(counts)[-1] == 2.0


def test_normalise_all_zero_is_unchanged():
    counts = np.zeros(16)
    assert oracle.normalise(counts).tolist() == [0.0] * 16


def test_trend_symbol_on_exact_lines():
    weeks = np.arange(208, dtype=np.float64)
    rising = 1.0 + 0.10 * weeks / 207  # +10% over the horizon
    falling = 1.0 - 0.10 * weeks / 207
    flat = 1.0 + 0.04 * weeks / 207  # +4%: inside the 5% band
    assert oracle.relative_change(rising) == pytest.approx(0.10)
    assert oracle.trend_symbol(rising) == oracle.INCREASING
    assert oracle.trend_symbol(falling) == oracle.DECREASING
    assert oracle.trend_symbol(flat) == oracle.STEADY


def test_trend_fit_ignores_weeks_past_the_horizon():
    series = np.concatenate([np.ones(208), np.full(26, 100.0)])
    assert oracle.trend_symbol(series) == oracle.STEADY


def test_target_keys_pack_and_deduplicate():
    keys = oracle.target_keys(np.array([1, 1, 0]), np.array([5, 5, 2**32 - 1]))
    assert keys.tolist() == [2**32 - 1, (1 << 32) | 5]


def test_upset_exclusive_rows():
    a = np.array([1, 2, 3], dtype=np.uint64)
    b = np.array([2, 3, 4], dtype=np.uint64)
    c = np.array([3], dtype=np.uint64)
    universe, rows = oracle.upset({"A": a, "B": b, "C": c})
    assert universe == 4
    assert rows == {("A",): 1, ("A", "B"): 1, ("A", "B", "C"): 1, ("B",): 1}


def test_weekly_shared_counts_common_keys_per_week():
    def key(day, ip):
        return (day << 32) | ip

    a = np.array(sorted([key(0, 1), key(3, 2), key(8, 1)]), dtype=np.uint64)
    b = np.array(sorted([key(0, 1), key(8, 1), key(8, 2)]), dtype=np.uint64)
    assert oracle.weekly_shared(a, b, 2).tolist() == [1.0, 1.0]


def test_spearman_matrix_of_monotone_series():
    x = np.arange(10.0)
    rho = oracle.spearman_matrix([x, x**2, -x])
    expected = np.array([[1, 1, -1], [1, 1, -1], [-1, -1, 1]], dtype=float)
    assert np.allclose(rho, expected)
    pair = oracle.spearman_matrix([x, -x])
    assert np.allclose(pair, [[1, -1], [-1, 1]])


def test_etag_is_quoted_sha256_prefix():
    body = b"{}\n"
    assert oracle.etag(body) == '"' + hashlib.sha256(body).hexdigest()[:32] + '"'
    assert len(oracle.etag(body)) == 34


def test_detect_zero_delta_never_detects():
    base = [[10.0, 12.0, 11.0], [9.0, 13.0, 10.0]]
    assert oracle.detect(base, base) == (None, 0.0)


def test_detect_first_week_and_max_effect():
    base = [[10.0, 10.0, 10.0], [10.0, 10.0, 10.0]]  # scale 10, std 0
    cf = [[10.0, 10.4, 7.0], [10.0, 10.4, 7.0]]  # effects 0, 0.04, -0.3
    first, max_effect = oracle.detect(base, cf)
    assert first == 2
    assert max_effect == pytest.approx(0.3)


def test_detect_band_widens_with_seed_noise():
    base = [[10.0, 0.0], [10.0, 20.0]]  # week 1: std 10, scale 10 -> band 3
    cf = [[10.0, 20.0], [10.0, 40.0]]  # week 1 effect 2 < band 3
    assert oracle.detect(base, cf) == (None, pytest.approx(2.0))
