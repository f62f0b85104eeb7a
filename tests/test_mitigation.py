"""Tests for the mitigation-interference model (paper Section 5)."""

import numpy as np
import pytest

from repro.attacks.events import OBSERVATORY_KEYS, ShardBatch
from repro.net.plan import UCSD_TELESCOPE_PREFIXES
from repro.observatories.base import Observations
from repro.observatories.mitigation import MitigationInterference
from repro.observatories.telescope import NetworkTelescope, TelescopeConfig
from repro.util.rng import RngFactory


def batch_on(targets, asns, duration=600.0, pps=50_000.0):
    n = len(targets)
    return ShardBatch(
        0,
        1,
        days=np.zeros(n, dtype=np.int32),
        attack_class=np.zeros(n, dtype=np.int8),
        target=np.asarray(targets, dtype=np.int64),
        origin_asn=np.asarray(asns, dtype=np.int64),
        start=np.zeros(n),
        duration=np.full(n, duration),
        pps=np.full(n, pps),
        bps=np.full(n, pps * 512),
        vector_id=np.full(n, 10, dtype=np.int16),
        secondary_vector_id=np.full(n, -1, dtype=np.int16),
        carpet=np.zeros(n, dtype=bool),
        carpet_prefix_len=np.zeros(n, dtype=np.int8),
        spoofed=np.ones(n, dtype=bool),
        hp_selected=np.zeros(n, dtype=np.uint8),
        bias={key: np.ones(n) for key in OBSERVATORY_KEYS},
    )


class TestEffectiveDurations:
    def test_unprotected_targets_untouched(self, plan):
        model = MitigationInterference(
            plan, RngFactory(0).stream("mit"), mitigation_probability=1.0
        )
        # Unrouted targets (telescope space) are never protected.
        batch = batch_on([0x2C000001] * 10, [0] * 10)
        durations = model.effective_durations(batch)
        assert (durations == batch.duration).all()

    def test_protected_targets_truncated(self, plan):
        customer = next(iter(plan.netscout_customer_asns))
        prefix = plan.ases.get(customer).prefixes[0]
        model = MitigationInterference(
            plan, RngFactory(0).stream("mit2"), mitigation_probability=1.0
        )
        batch = batch_on([prefix.network + 1] * 50, [customer] * 50)
        durations = model.effective_durations(batch)
        assert (durations < batch.duration).all()
        # Onset fractions bound the truncation.
        assert (durations >= batch.duration * 0.05 - 1e-9).all()
        assert (durations <= batch.duration * 0.35 + 1e-9).all()

    def test_probability_zero_is_identity(self, plan):
        customer = next(iter(plan.netscout_customer_asns))
        model = MitigationInterference(
            plan, RngFactory(0).stream("mit3"), mitigation_probability=0.0
        )
        batch = batch_on([123] * 10, [customer] * 10)
        assert (model.effective_durations(batch) == batch.duration).all()

    def test_akamai_prefixes_count_as_protected(self, plan):
        prefix, _ = next(iter(plan.akamai_customers.items()))
        model = MitigationInterference(
            plan, RngFactory(0).stream("mit4"), mitigation_probability=1.0
        )
        # Origin AS not a Netscout customer: protection comes via prefix.
        batch = batch_on([prefix.network + 1] * 20, [999_999_999 % 2**31] * 20)
        durations = model.effective_durations(batch)
        assert (durations < batch.duration).all()

    def test_validation(self, plan):
        rng = RngFactory(0).stream("mit5")
        with pytest.raises(ValueError):
            MitigationInterference(plan, rng, mitigation_probability=1.5)
        with pytest.raises(ValueError):
            MitigationInterference(
                plan, rng, onset_fraction_low=0.5, onset_fraction_high=0.1
            )


class TestTelescopeCoupling:
    def test_mitigation_reduces_telescope_detections(self, plan):
        customer = next(iter(plan.netscout_customer_asns))
        prefix = plan.ases.get(customer).prefixes[0]
        # Borderline attacks: full duration detects, truncated may not.
        batch = batch_on(
            [prefix.network + i for i in range(300)],
            [customer] * 300,
            duration=300.0,
            pps=30_000.0,
        )

        def run(mitigation):
            telescope = NetworkTelescope(
                key="ucsd",
                name="UCSD",
                prefixes=UCSD_TELESCOPE_PREFIXES,
                rng=RngFactory(1).stream("tel"),
                config=TelescopeConfig(response_ratio=0.004),
                mitigation=mitigation,
            )
            observations = Observations("UCSD")
            telescope.observe(batch, observations)
            return len(observations)

        unmitigated = run(None)
        mitigated = run(
            MitigationInterference(
                plan, RngFactory(2).stream("mit6"), mitigation_probability=1.0
            )
        )
        assert mitigated < unmitigated
