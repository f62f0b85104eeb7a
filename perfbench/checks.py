"""Correctness checks: the program's outputs against ``oracle``.

Each check raises :class:`harness.CheckFailed` on the first mismatch.
The oracle works on the raw observation columns; only the *identity*
of the paper's series (which observatory, which attack class, what
label) is taken from the program's registry.
"""

from __future__ import annotations

import json

import numpy as np

import oracle
from harness import check

#: Figure 10's two observatory pairs, as the artifact names them.
FIG10_GROUPS = {"telescopes": ("UCSD", "ORION"), "honeypots": ("Hopscotch", "AmpPot")}


def main_series_keys() -> dict[str, tuple[str, int]]:
    """Main-series label -> (observatory, attack class id), display order."""
    from repro.observatories.registry import MAIN_SERIES_ORDER

    return {
        (key.observatory if key.observatory in ("UCSD", "ORION") else key.label): (
            key.observatory,
            int(key.attack_class),
        )
        for key in MAIN_SERIES_ORDER
    }


def oracle_weekly(observations, n_weeks: int) -> dict[str, np.ndarray]:
    """Every main series recomputed from the observation columns."""
    weekly = {}
    for label, (name, attack_class) in main_series_keys().items():
        columns = observations[name]
        weekly[label] = oracle.weekly_counts(
            columns.day, columns.attack_class == attack_class, n_weeks
        )
    return weekly


def check_weekly(study, weekly: dict[str, np.ndarray]) -> None:
    """The study's main series equal the oracle's bincounts exactly."""
    series = study.main_series()
    check(list(series) == list(weekly), f"main series labels {list(series)}")
    for label, counts in weekly.items():
        check(
            np.array_equal(series[label].counts, counts),
            f"weekly series {label} differs from the oracle",
        )


def check_table1(document: dict, weekly: dict[str, np.ndarray]) -> int:
    """Every Table-1 symbol equals the oracle's; returns symbols checked."""
    checked = 0
    for row in document["data"]["rows"]:
        for label, cell in row["observatory_trends"].items():
            expected = oracle.trend_symbol(oracle.normalise(weekly[label]))
            check(
                cell["symbol"] == expected,
                f"Table 1 {label}: {cell['symbol']} but the oracle says {expected}",
            )
            checked += 1
    check(checked == len(weekly), f"Table 1 has {checked} cells, expected {len(weekly)}")
    return checked


def check_observations_equal(left, right, what: str) -> None:
    """Two observation dicts hold identical columns for every platform."""
    from repro.observatories.base import OBSERVATION_COLUMNS

    check(sorted(left) == sorted(right), f"{what}: platforms differ")
    for name in left:
        for column, _ in OBSERVATION_COLUMNS:
            a = getattr(left[name], column)
            b = getattr(right[name], column)
            check(
                a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True),
                f"{what}: {name}.{column} differs",
            )


def check_artifacts(observations, n_weeks: int, bodies: dict[str, bytes]) -> None:
    """Figure 7, Figure 10 and Figure 6 against the oracle."""
    from repro.observatories.registry import ACADEMIC_OBSERVATORIES

    keys = {
        name: oracle.target_keys(observations[name].day, observations[name].target)
        for name in ACADEMIC_OBSERVATORIES
    }

    fig7 = json.loads(bodies["fig7_upset"])["data"]
    universe, rows = oracle.upset(keys)
    check(fig7["universe_size"] == universe, "Figure 7 universe differs from the oracle")
    served = {tuple(sorted(row["members"])): row["count"] for row in fig7["rows"]}
    check(served == rows, "Figure 7 rows differ from the oracle")
    for name, size in fig7["set_sizes"].items():
        check(size == keys[name].size, f"Figure 7 set size of {name} differs")

    fig10 = json.loads(bodies["fig10_overlap"])["data"]
    for group, (a, b) in FIG10_GROUPS.items():
        panel = fig10[group]
        check((panel["label_a"], panel["label_b"]) == (a, b), f"Figure 10 {group} labels")
        expected = oracle.weekly_shared(keys[a], keys[b], n_weeks)
        check(
            np.array_equal(np.asarray(panel["weekly_shared"]), expected),
            f"Figure 10 {group} shared counts differ from the oracle",
        )
        for side, name in (("weekly_a", a), ("weekly_b", b)):
            check(
                np.array_equal(
                    np.asarray(panel[side]), oracle.weekly_key_counts(keys[name], n_weeks)
                ),
                f"Figure 10 {group} {side} differs from the oracle",
            )

    fig6 = json.loads(bodies["fig6_correlation"])["data"]["normalized"]
    weekly = oracle_weekly(observations, n_weeks)
    rho = oracle.spearman_matrix([oracle.normalise(weekly[label]) for label in fig6["labels"]])
    served_rho = np.asarray(fig6["coefficients"], dtype=np.float64)
    check(
        served_rho.shape == rho.shape and np.allclose(served_rho, rho, rtol=0, atol=1e-9),
        "Figure 6 Spearman matrix differs from scipy by more than 1e-9",
    )
