"""Tests for the ground-truth attack generator."""

import datetime as dt

import numpy as np
import pytest

from repro.attacks.campaigns import CampaignConfig, CampaignModel
from repro.attacks.events import OBSERVATORY_KEYS
from repro.attacks.generator import (
    HP_BASE_SELECTION,
    GeneratorConfig,
    GroundTruthGenerator,
)
from repro.attacks.landscape import LandscapeModel
from repro.attacks.vectors import VECTORS, VectorKind
from repro.net.plan import PlanConfig, build_internet_plan
from repro.util.calendar import StudyCalendar
from repro.util.rng import RngFactory

CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 6, 30))


def make_generator(seed=0, config=None, campaign_config=None):
    plan = build_internet_plan(PlanConfig(seed=seed, tail_as_count=50))
    factory = RngFactory(seed)
    landscape = LandscapeModel(CALENDAR, dp_per_day=40.0, ra_per_day=30.0)
    campaigns = CampaignModel(
        CALENDAR,
        factory,
        config=campaign_config,
        candidate_asns=[info.asn for info in plan.ases if info.target_weight > 0],
    )
    return GroundTruthGenerator(
        plan, CALENDAR, landscape, campaigns, config=config, rng_factory=factory
    )


@pytest.fixture(scope="module")
def shard():
    return make_generator().shard_batch()


def day_targets(shard, mask):
    """Distinct (day, target) tuples of the masked events."""
    return set(zip(shard.days[mask].tolist(), shard.target[mask].tolist()))


class TestBatchStructure:
    def test_days_in_range_and_non_decreasing(self, shard):
        assert (shard.start_day, shard.stop_day) == (0, CALENDAR.n_days)
        assert len(shard.days) == len(shard)
        assert shard.days.min() >= 0 and shard.days.max() < CALENDAR.n_days
        assert (np.diff(shard.days) >= 0).all()

    def test_starts_fall_within_day(self, shard):
        day_start = shard.days * 86400.0
        assert (shard.start >= day_start).all()
        assert (shard.start < day_start + 86400.0).all()

    def test_durations_floored_at_minute(self, shard):
        assert (shard.duration >= 60.0).all()

    def test_vector_ids_match_class(self, shard):
        kinds = np.asarray([VECTORS[i].kind is VectorKind.DIRECT for i in shard.vector_id])
        assert (kinds == shard.is_direct_path).all()

    def test_targets_have_origin_asns(self, shard):
        assert (shard.origin_asn > 0).all()

    def test_bias_arrays_complete(self, shard):
        assert set(shard.bias) == set(OBSERVATORY_KEYS)
        assert all(len(column) == len(shard) for column in shard.bias.values())


class TestSelectionMechanics:
    def test_hp_selection_only_for_reflection(self, shard):
        assert (shard.hp_selected[shard.is_direct_path] == 0).all()

    def test_hp_selection_rates_roughly_match_base(self, shard):
        ra = shard.is_reflection
        total = int(ra.sum())
        for platform in ("hopscotch", "amppot"):
            rate = int(shard.hp_selected_mask(platform)[ra].sum()) / total
            # min(1, base*breadth) with E[breadth]=1 lands below base.
            assert 0.3 * HP_BASE_SELECTION[platform] < rate < HP_BASE_SELECTION[platform]

    def test_newkid_selection_is_rare(self, shard):
        newkid = int(shard.hp_selected_mask("newkid").sum())
        hopscotch = int(shard.hp_selected_mask("hopscotch").sum())
        assert newkid < hopscotch / 5

    def test_memcached_never_selects_amppot(self, shard):
        # AmpPot's affinity for Memcached is zero (it does not emulate it).
        from repro.attacks.vectors import vector_id

        mask = shard.vector_id == vector_id("Memcached")
        assert mask.any()
        assert ((shard.hp_selected[mask] & 0b10) == 0).all()

    def test_spoofed_applies_to_direct_path(self, shard):
        dp = shard.is_direct_path
        share = int(shard.spoofed[dp].sum()) / int(dp.sum())
        assert 0.45 < share < 0.75  # around the configured 0.62
        # RA requests are always spoofed.
        assert shard.spoofed[shard.is_reflection].all()


class TestCrossTypePairing:
    def test_paired_targets_attacked_by_both_classes(self, shard):
        # Some targets must appear under both attack classes on one day.
        both = day_targets(shard, shard.is_direct_path) & day_targets(
            shard, shard.is_reflection
        )
        assert both

    def test_pairing_probability_drives_collisions(self):
        def same_day_collisions(config):
            shard = make_generator(config=config).shard_batch()
            dp = day_targets(shard, shard.is_direct_path)
            return len(dp & day_targets(shard, shard.is_reflection))

        # Recurrence off isolates pairing from victim-pool collisions.
        off = same_day_collisions(
            GeneratorConfig(cross_type_probability=0.0, recurrence_probability=0.0)
        )
        on = same_day_collisions(
            GeneratorConfig(cross_type_probability=0.05, recurrence_probability=0.0)
        )
        # Campaign target concentration can still produce a couple of
        # chance collisions; pairing must dominate by a wide margin.
        assert off <= 5
        assert on > 10 * max(off, 1)


class TestRecurrence:
    def test_targets_recur_across_days(self, shard):
        tuples = day_targets(shard, np.ones(len(shard), dtype=bool))
        assert len(tuples) / len(set(shard.target.tolist())) > 1.2

    def test_no_recurrence_without_pool(self):
        config = GeneratorConfig(recurrence_probability=0.0)
        shard = make_generator(config=config).shard_batch()
        tuples = day_targets(shard, np.ones(len(shard), dtype=bool))
        assert len(tuples) / len(set(shard.target.tolist())) < 1.1


class TestDeterminism:
    def test_same_seed_same_output(self):
        a = make_generator(seed=3).shard_batch()
        b = make_generator(seed=3).shard_batch()
        assert len(a) == len(b)
        for column in ("days", "target", "pps", "vector_id", "hp_selected"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_different_seed_different_output(self):
        a = make_generator(seed=3).shard_batch()
        b = make_generator(seed=4).shard_batch()
        assert len(a) != len(b) or not np.array_equal(a.target, b.target)


class TestCampaignEffects:
    def test_campaigns_add_events(self):
        quiet = make_generator(campaign_config=CampaignConfig(spawn_rate_per_week=0.0))
        busy = make_generator(campaign_config=CampaignConfig(spawn_rate_per_week=3.0))
        assert len(busy.shard_batch()) > len(quiet.shard_batch()) * 1.2

    def test_telescope_avoidance_zeroes_bias(self):
        config = GeneratorConfig(telescope_avoidance_probability=1.0)
        shard = make_generator(config=config).shard_batch()
        assert len(shard)
        assert (shard.bias["ucsd"] == 0).all()
        assert (shard.bias["orion"] == 0).all()
        assert (shard.bias["netscout"] > 0).all()

