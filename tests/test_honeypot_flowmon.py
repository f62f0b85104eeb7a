"""Tests for honeypot and industry flow-monitor observatory models."""

import numpy as np
import pytest

from repro.attacks.events import OBSERVATORY_KEYS, AttackClass, ShardBatch
from repro.attacks.vectors import vector_id
from repro.net.rir import RirRegistry
from repro.net.addr import parse_prefix
from repro.observatories.base import Observations
from repro.observatories.flowmon import (
    AkamaiProlexic,
    IxpBlackholing,
    NetscoutAtlas,
)
from repro.observatories.honeypot import (
    AMPPOT_SPEC,
    HOPSCOTCH_SPEC,
    NEWKID_SPEC,
    HoneypotPlatform,
)
from repro.util.rng import RngFactory


def batch(
    n,
    *,
    attack_class=AttackClass.REFLECTION_AMPLIFICATION,
    vector="DNS",
    hp_selected=0b111,
    carpet=False,
    carpet_len=24,
    duration=600.0,
    pps=50_000.0,
    bps=None,
    targets=None,
    asn=64500,
    day=0,
    bias=1.0,
):
    vec = vector_id(vector)
    packet_bps = bps if bps is not None else pps * 512 * 8
    return ShardBatch(
        day,
        day + 1,
        days=np.full(n, day, dtype=np.int32),
        attack_class=np.full(n, int(attack_class), dtype=np.int8),
        target=(
            np.asarray(targets, dtype=np.int64)
            if targets is not None
            else np.arange(n, dtype=np.int64) + 50_000
        ),
        origin_asn=np.full(n, asn, dtype=np.int64),
        start=np.full(n, day * 86400.0),
        duration=np.full(n, duration),
        pps=np.full(n, pps),
        bps=np.full(n, packet_bps),
        vector_id=np.full(n, vec, dtype=np.int16),
        secondary_vector_id=np.full(n, -1, dtype=np.int16),
        carpet=np.full(n, carpet),
        carpet_prefix_len=np.full(n, carpet_len if carpet else 0, dtype=np.int8),
        spoofed=np.ones(n, dtype=bool),
        hp_selected=np.full(n, hp_selected, dtype=np.uint8),
        bias={key: np.full(n, float(bias)) for key in OBSERVATORY_KEYS},
    )


def run(observatory, shard):
    observations = Observations(observatory.name)
    observatory.observe(shard, observations)
    return observations


def make_honeypot(spec=HOPSCOTCH_SPEC, rir=None, **kw):
    return HoneypotPlatform(
        spec, rng=RngFactory(0).stream(f"test/{spec.key}"), rir=rir or RirRegistry(), **kw
    )


class TestHoneypotSelection:
    def test_selected_events_observed(self):
        honeypot = make_honeypot()
        observations = run(honeypot, batch(100))
        assert len(observations) > 80  # threshold of 5 pkts rarely fails

    def test_unselected_events_invisible(self):
        honeypot = make_honeypot()
        observations = run(honeypot, batch(100, hp_selected=0))
        assert len(observations) == 0

    def test_direct_path_invisible(self):
        honeypot = make_honeypot()
        observations = run(
            honeypot, batch(100, attack_class=AttackClass.DIRECT_PATH, vector="SYN-flood")
        )
        assert len(observations) == 0

    def test_unsupported_vector_invisible(self):
        # Hopscotch does not emulate Memcached.
        honeypot = make_honeypot(HOPSCOTCH_SPEC)
        observations = run(honeypot, batch(100, vector="Memcached"))
        assert len(observations) == 0

    def test_amppot_threshold_stricter(self):
        # With very short attacks, AmpPot's 100-packet floor bites while
        # Hopscotch's 5-packet floor does not.
        short = batch(300, duration=61.0)
        amppot = make_honeypot(AMPPOT_SPEC)
        hopscotch = make_honeypot(HOPSCOTCH_SPEC)
        assert len(run(amppot, short)) < len(run(hopscotch, short))

    def test_specs_match_paper_table2(self):
        assert AMPPOT_SPEC.sensor_count == 70
        assert AMPPOT_SPEC.responding_count == 30
        assert AMPPOT_SPEC.min_packets == 100
        assert AMPPOT_SPEC.timeout_s == 3600.0
        assert HOPSCOTCH_SPEC.sensor_count == 65
        assert HOPSCOTCH_SPEC.min_packets == 5
        assert HOPSCOTCH_SPEC.timeout_s == 900.0
        assert NEWKID_SPEC.sensor_count == 1
        assert NEWKID_SPEC.multi_port_rule


class TestHoneypotCarpet:
    def make_rir(self):
        rir = RirRegistry()
        rir.allocate(parse_prefix("10.0.0.0/26"), "RIPE", 1)
        rir.allocate(parse_prefix("10.0.0.64/26"), "RIPE", 2)
        rir.allocate(parse_prefix("10.0.0.128/25"), "ARIN", 3)
        return rir

    def test_carpet_recorded_per_allocation_block(self):
        rir = self.make_rir()
        honeypot = make_honeypot(HOPSCOTCH_SPEC, rir=rir)
        from repro.net.addr import parse_ip

        carpet_batch = batch(
            1, carpet=True, carpet_len=24, targets=[parse_ip("10.0.0.7")]
        )
        observations = run(honeypot, carpet_batch)
        # The /24 spans three allocation blocks -> three records.
        assert len(observations) == 3
        prefix = parse_prefix("10.0.0.0/24")
        assert all(prefix.contains(int(t)) for t in observations.target)

    def test_carpet_without_blocks_single_record(self):
        honeypot = make_honeypot(HOPSCOTCH_SPEC, rir=RirRegistry())
        from repro.net.addr import parse_ip

        carpet_batch = batch(
            1, carpet=True, carpet_len=24, targets=[parse_ip("10.0.0.7")]
        )
        observations = run(honeypot, carpet_batch)
        assert len(observations) == 1

    def test_ablation_no_aggregation_inflates_counts(self):
        rir = self.make_rir()
        from repro.net.addr import parse_ip

        carpet_batch = batch(
            1, carpet=True, carpet_len=24, targets=[parse_ip("10.0.0.7")]
        )
        raw = make_honeypot(HOPSCOTCH_SPEC, rir=rir, aggregate_carpet=False)
        observations = run(raw, carpet_batch)
        # Without aggregation every sampled attacked IP is a record; the
        # Poisson spread parameter makes this usually exceed 3 blocks.
        assert len(observations) >= 3


class TestNetscout:
    def test_covers_only_customer_ases(self, plan):
        netscout = NetscoutAtlas(plan, RngFactory(0).stream("ns"))
        customer = next(iter(plan.netscout_customer_asns))
        outsider_asn = max(plan.netscout_customer_asns) + 999_999
        seen = run(netscout, batch(50, asn=customer, bps=1e9))
        unseen = run(netscout, batch(50, asn=outsider_asn, bps=1e9))
        assert len(seen) > 30
        assert len(unseen) == 0

    def test_severity_floor(self, plan):
        netscout = NetscoutAtlas(plan, RngFactory(0).stream("ns2"))
        customer = next(iter(plan.netscout_customer_asns))
        small = run(netscout, batch(50, asn=customer, bps=1e6))
        assert len(small) == 0

    def test_reports_both_classes(self, plan):
        netscout = NetscoutAtlas(plan, RngFactory(0).stream("ns3"))
        assert AttackClass.DIRECT_PATH in netscout.reported_classes
        assert AttackClass.REFLECTION_AMPLIFICATION in netscout.reported_classes


class TestAkamai:
    def test_covers_only_prolexic_prefixes(self, plan):
        akamai = AkamaiProlexic(plan, RngFactory(0).stream("ak"))
        prefix, _ = next(iter(plan.akamai_customers.items()))
        inside = run(akamai, batch(50, targets=[prefix.network + 1] * 50, bps=1e9))
        outside = run(akamai, batch(50, bps=1e9))  # targets ~50000 unrouted
        assert len(inside) > 20
        assert len(outside) == 0

    def test_exposure_curves_modulate(self, plan):
        prefix, _ = next(iter(plan.akamai_customers.items()))
        targets = [prefix.network + 1] * 400

        def count(day, exposure):
            akamai = AkamaiProlexic(
                plan, RngFactory(0).stream("ak2"), exposure_curves=exposure
            )
            return len(run(akamai, batch(400, targets=targets, bps=1e9, day=day)))

        # DP exposure declines sharply by late 2022 (week ~206).
        late_with = count(206 * 7, True)
        late_without = count(206 * 7, False)
        assert late_with < late_without

    def test_min_bps_floor(self, plan):
        akamai = AkamaiProlexic(plan, RngFactory(0).stream("ak3"))
        prefix, _ = next(iter(plan.akamai_customers.items()))
        tiny = run(akamai, batch(50, targets=[prefix.network + 1] * 50, bps=1e3))
        assert len(tiny) == 0


class TestIxp:
    def test_thresholds_by_class(self, plan):
        ixp = IxpBlackholing(plan, RngFactory(0).stream("ixp"))
        member = next(iter(plan.ixp_member_asns))
        # RA below 1 Gbps: invisible.  DP above 100 Mbps: visible.
        ra_small = run(ixp, batch(60, asn=member, bps=5e8))
        dp_big = run(
            ixp,
            batch(
                60,
                asn=member,
                attack_class=AttackClass.DIRECT_PATH,
                vector="SYN-flood",
                bps=5e8,
            ),
        )
        assert len(ra_small) == 0
        assert len(dp_big) > 10

    def test_ra_above_gigabit_visible(self, plan):
        ixp = IxpBlackholing(plan, RngFactory(0).stream("ixp2"))
        member = next(iter(plan.ixp_member_asns))
        ra_big = run(ixp, batch(60, asn=member, bps=2e9))
        assert len(ra_big) > 10

    def test_non_members_invisible(self, plan):
        ixp = IxpBlackholing(plan, RngFactory(0).stream("ixp3"))
        outsider = 123_456_789
        assert len(run(ixp, batch(60, asn=outsider, bps=2e9))) == 0

    def test_blackhole_probability_thins(self, plan):
        member = next(iter(plan.ixp_member_asns))
        always = IxpBlackholing(
            plan, RngFactory(0).stream("ixp4"), blackhole_probability=1.0
        )
        rarely = IxpBlackholing(
            plan, RngFactory(0).stream("ixp4"), blackhole_probability=0.05
        )
        big = batch(200, asn=member, bps=2e9)
        assert len(run(rarely, big)) < len(run(always, big))
