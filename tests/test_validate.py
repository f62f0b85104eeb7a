"""Tests for feed validation."""

import numpy as np
import pytest

from repro.attacks.events import AttackClass
from repro.attacks.vectors import VECTORS, vector_id
from repro.core.validate import validate_observations, validate_study_feeds
from repro.observatories.base import Observations
from tests.conftest import SMALL_CALENDAR


def feed(days, vectors=None, classes=None, bps=None, spoofed=None, name="X"):
    n = len(days)
    observations = Observations(name)
    observations.append(
        np.asarray(days, dtype=np.int32),
        np.arange(n, dtype=np.int64) + 1000,
        np.asarray(
            classes if classes else [int(AttackClass.DIRECT_PATH)] * n, dtype=np.int8
        ),
        np.asarray(vectors if vectors else [vector_id("SYN-flood")] * n, dtype=np.int16),
        np.asarray(spoofed if spoofed else [True] * n, dtype=bool),
        np.asarray(bps if bps else [1e8] * n, dtype=np.float64),
    )
    return observations


class TestValidation:
    def test_clean_feed_ok(self):
        report = validate_observations(feed([0, 1, 2]), SMALL_CALENDAR)
        assert report.ok
        assert report.records == 3

    def test_empty_feed_warns(self):
        report = validate_observations(Observations("empty"), SMALL_CALENDAR)
        assert report.ok
        assert "empty" in report.warnings[0]

    def test_out_of_window_days(self):
        report = validate_observations(
            feed([0, SMALL_CALENDAR.n_days + 5]), SMALL_CALENDAR
        )
        assert not report.ok
        assert any("window" in error for error in report.errors)

    def test_unknown_vector_ids(self):
        report = validate_observations(
            feed([0], vectors=[len(VECTORS) + 3]), SMALL_CALENDAR
        )
        assert not report.ok

    def test_class_vector_mismatch(self):
        # DNS (reflection vector) recorded as direct-path: error.
        report = validate_observations(
            feed([0], vectors=[vector_id("DNS")]), SMALL_CALENDAR
        )
        assert not report.ok
        assert any("mismatch" in error for error in report.errors)

    def test_non_finite_sizes(self):
        report = validate_observations(
            feed([0], bps=[float("nan")]), SMALL_CALENDAR
        )
        assert not report.ok

    def test_unexpected_class_warns(self):
        report = validate_observations(
            feed([0]),
            SMALL_CALENDAR,
            expected_classes=(AttackClass.REFLECTION_AMPLIFICATION,),
        )
        assert report.ok  # warning, not error
        assert any("remit" in warning for warning in report.warnings)

    def test_duplicate_heavy_feed_warns(self):
        observations = Observations("dupes")
        for _ in range(4):
            observations.append(
                np.zeros(1, dtype=np.int32),
                np.asarray([1234], dtype=np.int64),
                np.asarray([int(AttackClass.DIRECT_PATH)], dtype=np.int8),
                np.asarray([vector_id("SYN-flood")], dtype=np.int16),
                np.asarray([True]),
                np.asarray([1e8]),
            )
        report = validate_observations(observations, SMALL_CALENDAR)
        assert any("duplicate" in warning for warning in report.warnings)

    def test_summary_rendering(self):
        report = validate_observations(feed([0]), SMALL_CALENDAR)
        assert "OK" in report.summary()

    def test_empty_feed_skips_structural_checks(self):
        report = validate_observations(Observations("empty"), SMALL_CALENDAR)
        assert report.records == 0
        assert report.warnings == ["feed is empty"]
        assert report.errors == []

    def test_all_duplicate_feed_warns_but_stays_usable(self):
        observations = Observations("doubled-export")
        for _ in range(10):
            observations.append(
                np.full(1, 3, dtype=np.int32),
                np.asarray([7777], dtype=np.int64),
                np.asarray([int(AttackClass.DIRECT_PATH)], dtype=np.int8),
                np.asarray([vector_id("SYN-flood")], dtype=np.int16),
                np.asarray([True]),
                np.asarray([1e8]),
            )
        report = validate_observations(observations, SMALL_CALENDAR)
        assert report.ok  # duplicates are a warning, not an error
        assert any("90% same-day duplicate" in w for w in report.warnings)

    def test_vector_id_boundaries(self):
        # The extremes of the catalogue are valid; one past each end is not.
        ra = int(AttackClass.REFLECTION_AMPLIFICATION)
        dp = int(AttackClass.DIRECT_PATH)
        classes = [
            ra if VECTORS[v].kind.name == "REFLECTION" else dp
            for v in (0, len(VECTORS) - 1)
        ]
        report = validate_observations(
            feed([0, 1], vectors=[0, len(VECTORS) - 1], classes=classes),
            SMALL_CALENDAR,
        )
        assert report.ok, report.summary()
        for bad in (-1, len(VECTORS)):
            report = validate_observations(
                feed([0], vectors=[bad]), SMALL_CALENDAR
            )
            assert any("catalogue" in error for error in report.errors)

    def test_range_error_does_not_mask_kind_mismatch(self):
        # One out-of-catalogue id plus one in-catalogue mismatch: both the
        # range error and the kind-mismatch error must be reported.
        report = validate_observations(
            feed(
                [0, 1],
                vectors=[len(VECTORS), vector_id("DNS")],
                classes=[int(AttackClass.DIRECT_PATH)] * 2,
            ),
            SMALL_CALENDAR,
        )
        assert any("catalogue" in error for error in report.errors)
        assert any("mismatch" in error for error in report.errors)

    def test_no_checkable_vectors_warns_instead_of_silence(self):
        report = validate_observations(
            feed([0], vectors=[len(VECTORS)]), SMALL_CALENDAR
        )
        assert any("catalogue" in error for error in report.errors)
        assert any(
            "consistency not checked" in warning for warning in report.warnings
        )

    def test_nan_does_not_mask_negative_sizes(self):
        report = validate_observations(
            feed([0, 1], bps=[float("nan"), -5.0]), SMALL_CALENDAR
        )
        assert any("non-finite" in error for error in report.errors)
        assert any("negative" in error for error in report.errors)

    def test_expected_classes_warning_names_the_classes(self):
        report = validate_observations(
            feed([0]),
            SMALL_CALENDAR,
            expected_classes=(AttackClass.REFLECTION_AMPLIFICATION,),
        )
        assert report.ok
        (warning,) = [w for w in report.warnings if "remit" in w]
        assert str(int(AttackClass.DIRECT_PATH)) in warning


class TestStudySelfCheck:
    def test_simulated_feeds_validate(self, small_study):
        reports = validate_study_feeds(small_study)
        assert len(reports) == 8
        for name, report in reports.items():
            assert report.ok, report.summary()
