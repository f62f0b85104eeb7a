"""Tests for the telescope macro model."""

import numpy as np
import pytest

from repro.attacks.events import OBSERVATORY_KEYS, ShardBatch
from repro.net.plan import ORION_TELESCOPE_PREFIX, UCSD_TELESCOPE_PREFIXES
from repro.observatories.base import Observations, VisibilityNoise
from repro.observatories.telescope import NetworkTelescope, TelescopeConfig
from repro.util.rng import RngFactory


def make_telescope(name="ucsd", response_ratio=1.0, noise=None):
    prefixes = UCSD_TELESCOPE_PREFIXES if name == "ucsd" else (ORION_TELESCOPE_PREFIX,)
    return NetworkTelescope(
        key=name,
        name=name.upper(),
        prefixes=prefixes,
        rng=RngFactory(0).stream(f"test/{name}"),
        config=TelescopeConfig(response_ratio=response_ratio),
        noise=noise,
    )


def rsdos_batch(n, pps, duration=600.0, spoofed=True, bias=1.0, day=0):
    return ShardBatch(
        day,
        day + 1,
        days=np.full(n, day, dtype=np.int32),
        attack_class=np.zeros(n, dtype=np.int8),
        target=np.arange(n, dtype=np.int64) + 10_000,
        origin_asn=np.full(n, 64500, dtype=np.int64),
        start=np.full(n, day * 86400.0),
        duration=np.full(n, duration),
        pps=np.full(n, pps),
        bps=np.full(n, pps * 512),
        vector_id=np.full(n, 10, dtype=np.int16),
        secondary_vector_id=np.full(n, -1, dtype=np.int16),
        carpet=np.zeros(n, dtype=bool),
        carpet_prefix_len=np.zeros(n, dtype=np.int8),
        spoofed=np.full(n, spoofed),
        hp_selected=np.zeros(n, dtype=np.uint8),
        bias={key: np.full(n, bias) for key in OBSERVATORY_KEYS},
    )


class TestSensitivityMaths:
    def test_paper_sensitivity_ucsd(self):
        # Paper Section 5: UCSD-NT detects ~0.026 Mbps attacks in 5 minutes.
        ucsd = make_telescope("ucsd")
        assert ucsd.detectable_rate_mbps() == pytest.approx(0.026, rel=0.15)

    def test_paper_sensitivity_orion(self):
        # Paper Section 5: ORION detects ~0.60 Mbps attacks in 5 minutes.
        orion = make_telescope("orion")
        assert orion.detectable_rate_mbps() == pytest.approx(0.60, rel=0.15)

    def test_slash20_sensitivity_remark(self):
        # "A /20 telescope could detect attacks of ~70 Mbps in 5 minutes."
        from repro.net.addr import Prefix

        tiny = NetworkTelescope(
            key="ucsd",
            name="tiny",
            prefixes=(Prefix(0, 20),),
            rng=RngFactory(0).stream("tiny"),
        )
        assert tiny.detectable_rate_mbps() == pytest.approx(70.0, rel=0.15)

    def test_size_ratio(self):
        ucsd = make_telescope("ucsd")
        orion = make_telescope("orion")
        assert ucsd.size / orion.size == pytest.approx(24.0)


class TestMacroDetection:
    def run(self, telescope, batch):
        observations = Observations(telescope.name)
        telescope.observe(batch, observations)
        return observations

    def test_big_attacks_detected(self):
        telescope = make_telescope("ucsd", response_ratio=1.0)
        # 10k pps * share 0.00293 -> ~29 pps at the telescope: far above
        # every threshold.
        observations = self.run(telescope, rsdos_batch(50, pps=10_000))
        assert len(observations) == 50

    def test_tiny_attacks_missed(self):
        telescope = make_telescope("ucsd", response_ratio=1.0)
        # 10 pps -> ~0.03 pps at the telescope: hopeless.
        observations = self.run(telescope, rsdos_batch(50, pps=10.0))
        assert len(observations) == 0

    def test_detection_monotone_in_rate(self):
        telescope = make_telescope("ucsd", response_ratio=1.0)
        counts = []
        for pps in (50.0, 200.0, 1000.0, 10_000.0):
            observations = self.run(telescope, rsdos_batch(200, pps=pps))
            counts.append(len(observations))
        assert counts == sorted(counts)

    def test_short_attacks_rejected(self):
        telescope = make_telescope("ucsd", response_ratio=1.0)
        observations = self.run(
            telescope, rsdos_batch(50, pps=10_000, duration=30.0)
        )
        assert len(observations) == 0

    def test_non_spoofed_invisible(self):
        telescope = make_telescope("ucsd", response_ratio=1.0)
        observations = self.run(telescope, rsdos_batch(50, pps=10_000, spoofed=False))
        assert len(observations) == 0

    def test_zero_bias_blinds_telescope(self):
        telescope = make_telescope("ucsd", response_ratio=1.0)
        observations = self.run(telescope, rsdos_batch(50, pps=10_000, bias=0.0))
        assert len(observations) == 0

    def test_orion_sees_fewer_than_ucsd(self):
        ucsd = make_telescope("ucsd", response_ratio=1.0)
        orion = make_telescope("orion", response_ratio=1.0)
        batch = rsdos_batch(500, pps=300.0)
        seen_ucsd = len(self.run(ucsd, batch))
        seen_orion = len(self.run(orion, batch))
        assert seen_ucsd > seen_orion

    def test_noise_thins_detections(self):
        quiet = make_telescope("ucsd", response_ratio=1.0)
        noisy = make_telescope(
            "ucsd",
            response_ratio=1.0,
            noise=VisibilityNoise(RngFactory(1).stream("n"), mean=0.05, sigma=0.1),
        )
        batch = rsdos_batch(300, pps=500.0)
        assert len(self.run(noisy, batch)) < len(self.run(quiet, batch))


class TestValidation:
    def test_requires_prefixes(self):
        with pytest.raises(ValueError):
            NetworkTelescope(
                key="x", name="X", prefixes=(), rng=RngFactory(0).stream("x")
            )

    def test_visibility_noise_validation(self):
        with pytest.raises(ValueError):
            VisibilityNoise(RngFactory(0).stream("v"), mean=1.5)

    def test_visibility_noise_deterministic_and_capped(self):
        noise_a = VisibilityNoise(RngFactory(2).stream("v"), mean=0.8, sigma=0.5)
        noise_b = VisibilityNoise(RngFactory(2).stream("v"), mean=0.8, sigma=0.5)
        values_a = [noise_a.factor(week) for week in range(20)]
        values_b = [noise_b.factor(week) for week in range(20)]
        assert values_a == values_b
        assert all(0 < value <= 1 for value in values_a)
