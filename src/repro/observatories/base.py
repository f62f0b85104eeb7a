"""Observatory base classes and observation accumulators.

An :class:`Observatory` turns a ground-truth
:class:`~repro.attacks.events.ShardBatch` into :class:`Observations`: flat
arrays of detected attack records (day, target, attack class, vector,
spoofed flag, measured bps).  The analysis toolkit in :mod:`repro.core`
consumes only these records — exactly the granularity the paper's data
providers shared (daily attack counts and, for the federation analysis,
(date, target-IP) tuples).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.attacks.events import AttackClass, ShardBatch
from repro.util.calendar import StudyCalendar


@dataclass(frozen=True)
class SeriesKey:
    """Identifies one reported time series: an observatory and attack class.

    Netscout, Akamai, and the IXP each report direct-path and reflection-
    amplification attacks as separate series (e.g. ``Netscout (DP)``).
    """

    observatory: str
    attack_class: AttackClass

    @property
    def label(self) -> str:
        """Display label, e.g. ``"Akamai (RA)"``."""
        return f"{self.observatory} ({self.attack_class.label})"


#: Column names and dtypes of one observation record, in storage order.
OBSERVATION_COLUMNS: tuple[tuple[str, type], ...] = (
    ("day", np.int32),
    ("target", np.int64),
    ("attack_class", np.int8),
    ("vector_id", np.int16),
    ("spoofed", np.bool_),
    ("bps", np.float64),
    ("duration", np.float64),
)


class Observations:
    """Accumulated attack records of one observatory.

    Each ``observe()`` call appends one chunk of columns per shard; the
    chunks are concatenated once, on first read, into flat arrays.
    Finalised instances pickle cheaply and can be concatenated with
    :meth:`merge` — the primitive the sharded executor in
    :mod:`repro.util.parallel` uses to combine per-shard sinks.
    """

    def __init__(self, observatory: str) -> None:
        self.observatory = observatory
        self._chunks: list[tuple[np.ndarray, ...]] | None = []
        self._final: dict[str, np.ndarray] | None = None

    def append(
        self,
        day: np.ndarray,
        target: np.ndarray,
        attack_class: np.ndarray,
        vector_id: np.ndarray,
        spoofed: np.ndarray,
        bps: np.ndarray,
        duration: np.ndarray | None = None,
    ) -> None:
        """Record detections (parallel arrays, one entry per record).

        Days must be appended in non-decreasing order so downstream
        consumers can rely on day-sortedness.  ``duration`` (seconds) is
        optional for feeds that do not report it; missing values become
        NaN.
        """
        if self._final is not None:
            raise RuntimeError("observations already finalised")
        n = len(target)
        if not (
            len(day)
            == len(attack_class)
            == len(vector_id)
            == len(spoofed)
            == len(bps)
            == n
        ):
            raise ValueError("parallel arrays must have equal length")
        if duration is not None and len(duration) != n:
            raise ValueError("parallel arrays must have equal length")
        if n == 0:
            return
        if duration is None:
            duration = np.full(n, np.nan)
        chunk = (day, target, attack_class, vector_id, spoofed, bps, duration)
        self._chunks.append(
            tuple(
                np.asarray(values, dtype=dtype)
                for values, (_, dtype) in zip(chunk, OBSERVATION_COLUMNS)
            )
        )

    def _materialise(self) -> dict[str, np.ndarray]:
        if self._final is None:
            chunks = self._chunks
            self._final = {
                name: (
                    np.concatenate([chunk[i] for chunk in chunks])
                    if chunks
                    else np.empty(0, dtype=dtype)
                )
                for i, (name, dtype) in enumerate(OBSERVATION_COLUMNS)
            }
            self._chunks = None
        return self._final

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_arrays(
        cls, observatory: str, arrays: dict[str, np.ndarray]
    ) -> "Observations":
        """Build finalised observations from a column dict (cache loads,
        shard merges)."""
        missing = {name for name, _ in OBSERVATION_COLUMNS} - set(arrays)
        if missing:
            raise ValueError(f"missing observation columns: {sorted(missing)}")
        length = len(arrays["day"])
        final: dict[str, np.ndarray] = {}
        for name, dtype in OBSERVATION_COLUMNS:
            column = np.asarray(arrays[name], dtype=dtype)
            if len(column) != length:
                raise ValueError(f"column {name} length mismatch")
            final[name] = column
        observations = cls(observatory)
        observations._chunks = None
        observations._final = final
        return observations

    @classmethod
    def merge(
        cls, parts: "list[Observations]", observatory: str | None = None
    ) -> "Observations":
        """Concatenate observations in order (e.g. day-range shards)."""
        if not parts:
            raise ValueError("need at least one part to merge")
        name = observatory if observatory is not None else parts[0].observatory
        columns = [part._materialise() for part in parts]
        return cls.from_arrays(
            name,
            {
                column: np.concatenate([part[column] for part in columns])
                for column, _ in OBSERVATION_COLUMNS
            },
        )

    # -- pickling (finalises: shard workers ship finished columns) -------------

    def __getstate__(self) -> dict:
        return {
            "observatory": self.observatory,
            "columns": self._materialise(),
        }

    def __setstate__(self, state: dict) -> None:
        self.observatory = state["observatory"]
        self._chunks = None
        self._final = state["columns"]

    # -- accessors -------------------------------------------------------------

    @property
    def day(self) -> np.ndarray:
        """Study-day index per record."""
        return self._materialise()["day"]

    @property
    def target(self) -> np.ndarray:
        """Target address per record."""
        return self._materialise()["target"]

    @property
    def attack_class(self) -> np.ndarray:
        """Attack class (int8) per record."""
        return self._materialise()["attack_class"]

    @property
    def vector_id(self) -> np.ndarray:
        """Primary vector id per record."""
        return self._materialise()["vector_id"]

    @property
    def spoofed(self) -> np.ndarray:
        """Spoofed-source flag per record."""
        return self._materialise()["spoofed"]

    @property
    def bps(self) -> np.ndarray:
        """Measured attack bandwidth per record."""
        return self._materialise()["bps"]

    @property
    def duration(self) -> np.ndarray:
        """Attack duration in seconds per record (NaN when unreported)."""
        return self._materialise()["duration"]

    def __len__(self) -> int:
        return len(self.day)

    # -- derived views -----------------------------------------------------------

    def class_mask(self, attack_class: AttackClass | None) -> np.ndarray:
        """Boolean mask selecting one attack class (or everything)."""
        if attack_class is None:
            return np.ones(len(self), dtype=bool)
        return self.attack_class == int(attack_class)

    def weekly_counts(
        self,
        calendar: StudyCalendar,
        attack_class: AttackClass | None = None,
        spoofed: bool | None = None,
    ) -> np.ndarray:
        """New-attack counts summed per study week (paper Section 5)."""
        mask = self.class_mask(attack_class)
        if spoofed is not None:
            mask &= self.spoofed == spoofed
        weeks = self.day[mask] // 7
        weeks = weeks[weeks < calendar.n_weeks]
        return np.bincount(weeks, minlength=calendar.n_weeks).astype(np.float64)

    def target_tuples(
        self, attack_class: AttackClass | None = None
    ) -> set[tuple[int, int]]:
        """Distinct (day, target-IP) tuples — the paper's target identity."""
        mask = self.class_mask(attack_class)
        return set(zip(self.day[mask].tolist(), self.target[mask].tolist()))

    def distinct_targets(self) -> set[int]:
        """Distinct target IPs."""
        return set(self.target.tolist())


class VisibilityNoise:
    """Weekly coverage noise of a vantage point.

    Real platforms' visibility fluctuates week to week — sensors flap,
    customers churn, alert feedback varies.  The paper leans on this to
    explain why raw weekly series correlate weakly even between platforms
    of the same type.  Modelled as an independent weekly thinning factor in
    ``(0, 1]``: ``min(1, Lognormal(ln(mean), sigma))``.

    Factors are drawn lazily but strictly in week order, so runs remain
    deterministic for a given stream.
    """

    def __init__(
        self, rng: np.random.Generator, mean: float = 0.8, sigma: float = 0.35
    ) -> None:
        if not 0 < mean <= 1:
            raise ValueError("mean must be in (0, 1]")
        self._rng = rng
        self._mean = mean
        self._sigma = sigma
        self._factors: list[float] = []

    def factor(self, week: int) -> float:
        """Thinning factor for a week (draws forward as needed)."""
        while len(self._factors) <= week:
            draw = self._rng.lognormal(mean=np.log(self._mean), sigma=self._sigma)
            self._factors.append(min(1.0, float(draw)))
        return self._factors[week]

    def factors_for(self, weeks: np.ndarray) -> np.ndarray:
        """Per-event thinning factors for an array of week indices.

        Fills the lazy cache forward to the largest requested week (same
        draw order as repeated :meth:`factor` calls), then gathers.
        """
        if not len(weeks):
            return np.empty(0)
        self.factor(int(weeks.max()))
        return np.asarray(self._factors)[weeks]


class Observatory(abc.ABC):
    """A vantage point converting ground truth into observed attack records.

    ``key`` matches the campaign-bias key in
    :data:`repro.attacks.events.OBSERVATORY_KEYS`; ``name`` is the display
    name; ``reported_classes`` lists the attack classes the platform
    reports as separate series.

    ``outages`` holds ``(first_day, last_day_exclusive)`` windows in which
    the platform recorded nothing.  The paper's data has two: ORION in
    2019Q3-Q4 and the IXP in January 2019 (Section 6.1).  Downstream, an
    outage is indistinguishable from the absence of attacks — exactly the
    caveat the paper raises.
    """

    key: str
    name: str
    reported_classes: tuple[AttackClass, ...]
    outages: tuple[tuple[int, int], ...] = ()

    def in_outage(self, day: int) -> bool:
        """Whether the platform was dark on a study day."""
        return any(start <= day < end for start, end in self.outages)

    def outage_mask(self, days: np.ndarray) -> np.ndarray:
        """Boolean mask of per-event days that fall inside an outage."""
        mask = np.zeros(len(days), dtype=bool)
        for start, end in self.outages:
            mask |= (days >= start) & (days < end)
        return mask

    @abc.abstractmethod
    def observe(self, batch: ShardBatch, into: Observations) -> None:
        """Process one ground-truth shard, appending its detections once.

        ``batch`` is a multi-day :class:`~repro.attacks.events.ShardBatch`;
        implementations read the per-event ``batch.days``.
        """

    def series_keys(self) -> list[SeriesKey]:
        """The time series this observatory contributes."""
        return [SeriesKey(self.name, cls) for cls in self.reported_classes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
