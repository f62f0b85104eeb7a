"""Mitigation interference between observatories (paper Section 5).

"Observatories might interfere with each other's visibility.  For example,
an observed but quickly mitigated randomly-spoofed direct-path attack might
not reflect packets into a network telescope."

This module models that cross-observatory coupling: attacks on *protected*
targets (inside a DPS customer footprint) are mitigated after a short
onset, truncating the backscatter window a telescope can sample.  The
model is off by default — the paper's main analysis cannot isolate it —
and is exercised by the mitigation ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.events import ShardBatch
from repro.net.plan import InternetPlan


class MitigationInterference:
    """Truncates telescope-visible attack durations for protected targets.

    Parameters
    ----------
    plan:
        The Internet plan (supplies the protection footprints).
    rng:
        Random stream for mitigation onset sampling.
    mitigation_probability:
        Chance that a protected target's operator actually mitigates.
    onset_fraction_low / onset_fraction_high:
        Mitigation kicks in after this uniform fraction of the attack.
    """

    def __init__(
        self,
        plan: InternetPlan,
        rng: np.random.Generator,
        *,
        mitigation_probability: float = 0.7,
        onset_fraction_low: float = 0.05,
        onset_fraction_high: float = 0.35,
    ) -> None:
        if not 0 <= mitigation_probability <= 1:
            raise ValueError("mitigation_probability must be in [0, 1]")
        if not 0 <= onset_fraction_low <= onset_fraction_high <= 1:
            raise ValueError("onset fractions must satisfy 0 <= low <= high <= 1")
        self.plan = plan
        self.mitigation_probability = mitigation_probability
        self.onset_fraction_low = onset_fraction_low
        self.onset_fraction_high = onset_fraction_high
        self._rng = rng
        self._protected_asns = np.asarray(
            sorted(plan.netscout_customer_asns), dtype=np.int64
        )

    def _is_protected(self, batch: ShardBatch) -> np.ndarray:
        """Targets whose operators have DDoS protection in place."""
        by_asn = np.isin(batch.origin_asn, self._protected_asns)
        by_prefix = self.plan.akamai_customer_mask(batch.target)
        return by_asn | by_prefix

    def effective_durations(self, batch: ShardBatch) -> np.ndarray:
        """Telescope-visible duration per event, after mitigation.

        Unprotected targets keep their full attack duration; mitigated
        attacks reflect backscatter only until the mitigation onset.
        """
        durations = batch.duration.copy()
        if len(batch) == 0:
            return durations
        protected = self._is_protected(batch)
        mitigated = protected & (
            self._rng.random(len(batch)) < self.mitigation_probability
        )
        if mitigated.any():
            onset = self._rng.uniform(
                self.onset_fraction_low,
                self.onset_fraction_high,
                size=int(mitigated.sum()),
            )
            durations[mitigated] = durations[mitigated] * onset
        return durations
