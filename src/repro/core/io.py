"""Data interchange: observatory records and weekly series as CSV.

The analysis toolkit is simulation-agnostic — these helpers let a real
attack feed (daily attack records, or pre-aggregated weekly counts) flow
into the same pipeline, and let simulation output leave it.

Formats:

* **records CSV** — one attack record per line:
  ``day,target,attack_class,vector,spoofed,bps,duration``.  ``day`` is a
  0-based study-day index, ``target`` a dotted-quad IPv4 address,
  ``vector`` a catalogue name (see :mod:`repro.attacks.vectors`);
  ``duration`` (seconds) may be empty for feeds that do not report it.
* **weekly CSV** — ``week,label1,label2,...`` wide format for count
  series.
* **columnar npz items** — flat ``{key: array}`` mappings packing many
  observatories' records for binary storage (the on-disk study cache in
  :mod:`repro.core.cache`).
"""

from __future__ import annotations

import csv
import io as _io
from pathlib import Path

import numpy as np

from repro.attacks.events import AttackClass
from repro.attacks.vectors import VECTORS, vector_id
from repro.net.addr import format_ip, parse_ip
from repro.observatories.base import OBSERVATION_COLUMNS, Observations
from repro.util.calendar import StudyCalendar

_RECORD_FIELDS = ("day", "target", "attack_class", "vector", "spoofed", "bps", "duration")

#: Separator in flat npz item keys: ``obs::<observatory>::<column>``.
_NPZ_SEP = "::"
_NPZ_PREFIX = "obs"


def pack_observations(
    sinks: dict[str, Observations]
) -> dict[str, np.ndarray]:
    """Flatten per-observatory records into one ``{key: array}`` mapping.

    Keys are ``obs::<observatory>::<column>``, ready for ``np.savez``.
    """
    items: dict[str, np.ndarray] = {}
    for name, observations in sinks.items():
        if _NPZ_SEP in name:
            raise ValueError(f"observatory name may not contain {_NPZ_SEP!r}: {name!r}")
        for column, _ in OBSERVATION_COLUMNS:
            items[f"{_NPZ_PREFIX}{_NPZ_SEP}{name}{_NPZ_SEP}{column}"] = getattr(
                observations, column
            )
    return items


def unpack_observations(
    items: "dict[str, np.ndarray] | object",
) -> dict[str, Observations]:
    """Rebuild per-observatory records from :func:`pack_observations` keys.

    Accepts any mapping-like object with ``keys()`` and item access (such
    as a loaded ``NpzFile``); unrelated keys are ignored.
    """
    columns: dict[str, dict[str, np.ndarray]] = {}
    for key in items.keys():  # noqa: SIM118 - NpzFile has no __iter__ contract
        parts = key.split(_NPZ_SEP)
        if len(parts) != 3 or parts[0] != _NPZ_PREFIX:
            continue
        _, name, column = parts
        columns.setdefault(name, {})[column] = items[key]
    return {
        name: Observations.from_arrays(name, arrays)
        for name, arrays in columns.items()
    }


def observations_to_csv(observations: Observations, path: str | Path) -> Path:
    """Write attack records to a CSV file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_FIELDS)
        for i in range(len(observations)):
            duration = float(observations.duration[i])
            writer.writerow(
                [
                    int(observations.day[i]),
                    format_ip(int(observations.target[i])),
                    AttackClass(int(observations.attack_class[i])).label,
                    VECTORS[int(observations.vector_id[i])].name,
                    int(observations.spoofed[i]),
                    f"{float(observations.bps[i]):.0f}",
                    "" if np.isnan(duration) else f"{duration:.1f}",
                ]
            )
    return path


def observations_from_csv(path: str | Path, name: str | None = None) -> Observations:
    """Read attack records from a CSV file (format of
    :func:`observations_to_csv`)."""
    path = Path(path)
    days: list[int] = []
    targets: list[int] = []
    classes: list[int] = []
    vectors: list[int] = []
    spoofed: list[bool] = []
    bps: list[float] = []
    durations: list[float] = []
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        # "duration" is optional for feeds that do not report it.
        missing = set(_RECORD_FIELDS) - {"duration"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"records CSV missing columns: {sorted(missing)}")
        for row in reader:
            days.append(int(row["day"]))
            targets.append(parse_ip(row["target"]))
            classes.append(_class_from_label(row["attack_class"]))
            vectors.append(vector_id(row["vector"]))
            spoofed.append(bool(int(row["spoofed"])))
            bps.append(float(row["bps"]))
            raw_duration = row.get("duration", "")
            durations.append(float(raw_duration) if raw_duration else float("nan"))

    order = np.argsort(np.asarray(days, dtype=np.int32), kind="stable")
    columns = (days, targets, classes, vectors, spoofed, bps, durations)
    return Observations.from_arrays(
        name or path.stem,
        {
            column: np.asarray(values, dtype=dtype)[order]
            for values, (column, dtype) in zip(columns, OBSERVATION_COLUMNS)
        },
    )


def _class_from_label(label: str) -> int:
    for attack_class in AttackClass:
        if attack_class.label == label:
            return int(attack_class)
    raise ValueError(f"unknown attack class label: {label!r}")


def weekly_series_to_csv(
    series: dict[str, np.ndarray], path: str | Path
) -> Path:
    """Write named weekly count series as a wide CSV."""
    lengths = {len(values) for values in series.values()}
    if len(lengths) != 1:
        raise ValueError("series must have equal length")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    labels = list(series)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["week", *labels])
        for week in range(lengths.pop()):
            writer.writerow(
                [week, *(f"{float(series[label][week]):.6g}" for label in labels)]
            )
    return path


def weekly_series_from_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a wide weekly-series CSV back into named arrays."""
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if not header or header[0] != "week":
            raise ValueError("weekly CSV must start with a 'week' column")
        labels = header[1:]
        columns: list[list[float]] = [[] for _ in labels]
        for row in reader:
            for column, value in zip(columns, row[1:]):
                column.append(float(value))
    return {
        label: np.asarray(column, dtype=np.float64)
        for label, column in zip(labels, columns)
    }


def study_series_csv(
    series: dict[str, "object"], calendar: StudyCalendar, path: str | Path
) -> Path:
    """Write a study's main series (WeeklySeries objects) to CSV."""
    return weekly_series_to_csv(
        {label: weekly.counts for label, weekly in series.items()}, path
    )


def csv_string(series: dict[str, np.ndarray]) -> str:
    """Weekly series as an in-memory CSV string (for piping/tests)."""
    buffer = _io.StringIO()
    labels = list(series)
    writer = csv.writer(buffer)
    writer.writerow(["week", *labels])
    length = len(next(iter(series.values())))
    for week in range(length):
        writer.writerow(
            [week, *(f"{float(series[label][week]):.6g}" for label in labels)]
        )
    return buffer.getvalue()
