"""Correlation statistics: Pearson and Spearman with p-values.

Own implementations (rank transform, t-distributed significance), unit
tested against scipy.  The paper uses Spearman as the primary measure
("less susceptible to outliers than Pearson") and masks coefficients whose
p-value exceeds 0.05; Pearson serves as the cross-check (Section 6.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Correlation:
    """A correlation coefficient with its two-sided p-value."""

    coefficient: float
    p_value: float
    n: int

    @property
    def significant(self) -> bool:
        """Whether the paper would print this value in normal font (p <= .05)."""
        return self.p_value <= 0.05


def rankdata(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their rank positions)."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        average_rank = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = average_rank
        i = j + 1
    return ranks


def _t_p_value(r: float, n: int) -> float:
    """Two-sided p-value of a correlation via the t distribution."""
    # scipy.stats costs about a second to import; only p-values need it.
    from scipy.stats import t as student_t

    if n < 3:
        return 1.0
    if abs(r) >= 1.0:
        return 0.0
    t_statistic = r * math.sqrt((n - 2) / (1.0 - r * r))
    return float(2.0 * student_t.sf(abs(t_statistic), df=n - 2))


def pearson(x: np.ndarray, y: np.ndarray) -> Correlation:
    """Pearson product-moment correlation with a t-test p-value."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("series must have equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    denominator = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denominator == 0.0:
        # A constant series has no defined correlation; report 0 with p=1,
        # which the matrix code renders as insignificant.
        return Correlation(coefficient=0.0, p_value=1.0, n=n)
    r = float(dx @ dy) / denominator
    r = max(-1.0, min(1.0, r))
    return Correlation(coefficient=r, p_value=_t_p_value(r, n), n=n)


def spearman(x: np.ndarray, y: np.ndarray) -> Correlation:
    """Spearman rank correlation (Pearson of the rank transforms)."""
    return pearson(rankdata(np.asarray(x)), rankdata(np.asarray(y)))


def ols_line(values: np.ndarray, start: int = 0) -> tuple[float, float]:
    """Least-squares line ``value = intercept + slope * index`` fitted from
    ``start`` onward.  Returns (slope, intercept) in per-index units."""
    values = np.asarray(values, dtype=np.float64)[start:]
    if len(values) < 2:
        raise ValueError("need at least two points to fit a line")
    x = np.arange(start, start + len(values), dtype=np.float64)
    slope, intercept = np.polyfit(x, values, deg=1)
    return float(slope), float(intercept)
