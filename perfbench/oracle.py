"""Independent recomputation of the results the benchmark checks.

Every function here works on plain numpy arrays and re-derives a result
the program computes, by the rule the paper (or the program's
documentation) states, without calling the program's own analysis code.
The benchmark compares these against what the program produced; the
small tests in ``test_oracle.py`` pin the oracle itself on hand-made
inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Weeks whose median is the normalisation baseline (paper Section 5).
BASELINE_WEEKS = 15

#: Weeks of the least-squares fit behind a Table-1 symbol (4 years).
TREND_HORIZON_WEEKS = 208

#: Relative change separating a trend from steady (paper Table 1).
TREND_THRESHOLD = 0.05

INCREASING, DECREASING, STEADY = "▲", "▼", "◆"


def weekly_counts(day: np.ndarray, mask: np.ndarray, n_weeks: int) -> np.ndarray:
    """Records per study week: ``bincount(day // 7)`` over one class mask."""
    weeks = np.asarray(day)[np.asarray(mask, dtype=bool)] // 7
    counts = np.bincount(weeks.astype(np.int64), minlength=n_weeks)
    return counts[:n_weeks].astype(np.float64)


def normalise(counts: np.ndarray) -> np.ndarray:
    """Counts divided by the median of the first 15 weeks.

    A zero baseline median falls back to the median of the non-zero
    baseline weeks, then to the median of all non-zero weeks; an
    all-zero series is returned unchanged (the program's documented
    handling of sparse series such as the IXP's dark January 2019).
    """
    counts = np.asarray(counts, dtype=np.float64)
    window = counts[:BASELINE_WEEKS]
    baseline = float(np.median(window))
    if baseline == 0.0:
        non_zero = window[window > 0]
        if non_zero.size == 0:
            non_zero = counts[counts > 0]
        if non_zero.size == 0:
            return counts.copy()
        baseline = float(np.median(non_zero))
    return counts / baseline


def relative_change(normalised: np.ndarray) -> float:
    """Fitted end over fitted start of a least-squares line, minus one.

    The line is fitted in closed form over the first 208 weeks (or the
    whole series when shorter).  A fit starting at or below zero is
    compared against the window mean instead.
    """
    y = np.asarray(normalised, dtype=np.float64)[:TREND_HORIZON_WEEKS]
    if y.size < 2:
        raise ValueError("need at least two weeks to fit a line")
    x = np.arange(y.size, dtype=np.float64)
    dx = x - x.mean()
    slope = float((dx * (y - y.mean())).sum() / (dx * dx).sum())
    start = float(y.mean() - slope * x.mean())
    span = slope * (y.size - 1)
    if start <= 0:
        return span / (float(y.mean()) or 1.0)
    return span / start


def trend_symbol(normalised: np.ndarray) -> str:
    """The Table-1 symbol: ▲ above +5%, ▼ below -5%, ◆ otherwise."""
    change = relative_change(normalised)
    if change > TREND_THRESHOLD:
        return INCREASING
    if change < -TREND_THRESHOLD:
        return DECREASING
    return STEADY


def target_keys(day: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Sorted distinct ``day << 32 | ip`` keys: the paper's target identity."""
    day = np.asarray(day).astype(np.uint64)
    target = np.asarray(target).astype(np.uint64)
    return np.unique((day << np.uint64(32)) | target)


def upset(keys_by_name: dict[str, np.ndarray]) -> tuple[int, dict[tuple[str, ...], int]]:
    """Universe size and exclusive-intersection counts of named key sets.

    Each universe key gets a bitmask of the sets holding it; one
    ``bincount`` over the masks yields every row.  Rows are keyed by the
    sorted member names.
    """
    names = list(keys_by_name)
    universe = np.unique(np.concatenate([keys_by_name[name] for name in names]))
    masks = np.zeros(universe.size, dtype=np.int64)
    for bit, name in enumerate(names):
        masks |= np.isin(universe, keys_by_name[name]).astype(np.int64) << bit
    counts = np.bincount(masks, minlength=1 << len(names))
    rows = {
        tuple(sorted(name for bit, name in enumerate(names) if mask >> bit & 1)): int(count)
        for mask, count in enumerate(counts)
        if count and mask
    }
    return int(universe.size), rows


def weekly_key_counts(keys: np.ndarray, n_weeks: int) -> np.ndarray:
    """Distinct keys per study week (the day sits in the high 32 bits)."""
    days = (np.asarray(keys, dtype=np.uint64) >> np.uint64(32)).astype(np.int64)
    return np.bincount(days // 7, minlength=n_weeks)[:n_weeks].astype(np.float64)


def weekly_shared(keys_a: np.ndarray, keys_b: np.ndarray, n_weeks: int) -> np.ndarray:
    """Figure 10: per-week count of keys both sets hold."""
    shared = np.intersect1d(keys_a, keys_b, assume_unique=True)
    return weekly_key_counts(shared, n_weeks)


def spearman_matrix(series: list[np.ndarray]) -> np.ndarray:
    """Pairwise Spearman coefficients, by ``scipy.stats.spearmanr``."""
    from scipy.stats import spearmanr

    matrix = np.column_stack([np.asarray(s, dtype=np.float64) for s in series])
    rho = np.asarray(spearmanr(matrix).statistic, dtype=np.float64)
    if rho.ndim == 0:  # two series: scipy returns the single coefficient
        rho = np.array([[1.0, float(rho)], [float(rho), 1.0]])
    return rho


def etag(body: bytes) -> str:
    """The strong ETag of a body: quoted first 32 hex digits of sha256."""
    return '"' + hashlib.sha256(body).hexdigest()[:32] + '"'


def detect(
    baseline_by_seed: list[list[float]],
    counterfactual_by_seed: list[list[float]],
    *,
    k_sigma: float = 3.0,
    band_floor: float = 0.05,
) -> tuple[int | None, float]:
    """The what-if detector as documented: first detection week, max |effect|.

    ``scale = max(1, mean(baseline))``; ``effect`` is the mean over seeds
    of ``(cf - base) / scale``; ``band = max(floor, k * std(base) / scale)``;
    a week is detected where ``|effect| > band``.
    """
    base = np.asarray(baseline_by_seed, dtype=np.float64)
    cf = np.asarray(counterfactual_by_seed, dtype=np.float64)
    scale = max(1.0, float(base.mean()))
    effect = (cf - base).mean(axis=0) / scale
    band = np.maximum(band_floor, k_sigma * base.std(axis=0) / scale)
    weeks = np.flatnonzero(np.abs(effect) > band)
    first = int(weeks[0]) if weeks.size else None
    return first, float(np.abs(effect).max(initial=0.0))
