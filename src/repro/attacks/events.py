"""Attack-event model: the columnar ground-truth batch.

The generator synthesises each contiguous day range (a 28-day shard in
the parallel executor, the whole window for ``ddoscovery landscape``) as
one :class:`ShardBatch`.  Events are stored as parallel numpy arrays
(struct-of-arrays) because the observatory visibility models evaluate
vectorised masks over them.
"""

from __future__ import annotations

import enum

import numpy as np

#: Keys identifying the vantage points for per-event visibility bias.
OBSERVATORY_KEYS = (
    "ucsd",
    "orion",
    "netscout",
    "akamai",
    "ixp",
    "hopscotch",
    "amppot",
    "newkid",
)

#: Bit positions in the honeypot-selection mask.
HP_BIT = {"hopscotch": 0, "amppot": 1, "newkid": 2}


class AttackClass(enum.IntEnum):
    """The two attack classes the paper compares."""

    DIRECT_PATH = 0
    REFLECTION_AMPLIFICATION = 1

    @property
    def label(self) -> str:
        """Short label used in rendered tables ('DP' / 'RA')."""
        return "DP" if self is AttackClass.DIRECT_PATH else "RA"


#: Per-event columns of a :class:`ShardBatch` and their dtypes
#: (``days`` and ``bias`` are handled separately).
EVENT_COLUMNS: tuple[tuple[str, type], ...] = (
    ("attack_class", np.int8),
    ("target", np.int64),
    ("origin_asn", np.int64),
    ("start", np.float64),
    ("duration", np.float64),
    ("pps", np.float64),
    ("bps", np.float64),
    ("vector_id", np.int16),
    ("secondary_vector_id", np.int16),
    ("carpet", np.bool_),
    ("carpet_prefix_len", np.int8),
    ("spoofed", np.bool_),
    ("hp_selected", np.uint8),
)


class ShardBatch:
    """All ground-truth attacks of one contiguous day range, columnar.

    Attributes are parallel numpy arrays of length ``n``, one per
    :data:`EVENT_COLUMNS` entry (``start`` is seconds since the study
    epoch; ``secondary_vector_id`` is −1 for single-vector attacks;
    ``hp_selected`` is the :data:`HP_BIT` bitmask), plus ``bias[key]``
    float64 per observatory key and a per-event ``days`` array (int32,
    non-decreasing — events are appended in day order).  Observatories
    sweep the whole range with one vectorised pass.
    """

    __slots__ = ("start_day", "stop_day", "days", "bias") + tuple(
        name for name, _ in EVENT_COLUMNS
    )

    def __init__(
        self,
        start_day: int,
        stop_day: int,
        *,
        days: np.ndarray,
        bias: dict[str, np.ndarray],
        **columns: np.ndarray,
    ) -> None:
        self.start_day = start_day
        self.stop_day = stop_day
        self.days = days
        self.bias = bias
        n = len(days)
        for name, _ in EVENT_COLUMNS:
            column = columns.pop(name)
            if len(column) != n:
                raise ValueError(f"array {name} length mismatch")
            setattr(self, name, column)
        if columns:
            raise ValueError(f"unexpected columns: {sorted(columns)}")
        for key in OBSERVATORY_KEYS:
            if key not in bias or len(bias[key]) != n:
                raise ValueError(f"bias array missing or wrong length: {key}")

    def __len__(self) -> int:
        return len(self.days)

    @property
    def is_direct_path(self) -> np.ndarray:
        """Boolean mask of direct-path events."""
        return self.attack_class == int(AttackClass.DIRECT_PATH)

    @property
    def is_reflection(self) -> np.ndarray:
        """Boolean mask of reflection-amplification events."""
        return self.attack_class == int(AttackClass.REFLECTION_AMPLIFICATION)

    @property
    def is_rsdos(self) -> np.ndarray:
        """Boolean mask of randomly-spoofed direct-path events."""
        return self.is_direct_path & self.spoofed

    def hp_selected_mask(self, platform: str) -> np.ndarray:
        """Boolean mask of events that selected the named honeypot platform."""
        return (self.hp_selected & (1 << HP_BIT[platform])) != 0
