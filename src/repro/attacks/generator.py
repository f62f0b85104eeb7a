"""Ground-truth attack-event generator.

Synthesises a contiguous range of study days as one columnar
:class:`~repro.attacks.events.ShardBatch`, deterministically from the study
seed.  Per-day expected counts come from the
:class:`~repro.attacks.landscape.LandscapeModel` plus active campaigns;
per-event attributes are sampled with numpy so a full 4.5-year run stays
fast.

Important mechanics and their grounding in the paper:

* **Target recurrence** — a bounded pool of recently attacked victims is
  re-hit with configurable probability, producing the ≈2:1 ratio of
  (date, IP) tuples to distinct IPs the paper reports in Section 7.
* **Cross-type pairing** — with small probability (boosted for hosting-AS
  targets) an event spawns a partner of the *other* attack class on the
  same target: the multi-vector attacks against DDoS-protected hosters
  behind the paper's "highly-visible targets" (Section 7.1).
* **Honeypot reflector selection** — each reflection event pre-draws which
  honeypot platforms its reflector list happened to include, with
  per-platform base rates and per-vector affinities (AmpPot leans CHARGEN,
  Hopscotch leans CLDAP — Section 7.3).
* **Telescope avoidance** — a small share of attackers exclude known
  telescope ranges from spoofed-source rotation (reason *(iii)* in
  Section 6.1); their events carry zero telescope visibility bias.

Randomness is organised for **sharded execution**: every study day draws
from its own named RNG stream (``attacks/generator/day/<n>``) and the
weekly supply noise from a dedicated stream, so a generator confined to a
``day_range`` produces exactly the same per-day draws as a full run.  The
only cross-day state is the recent-victim recurrence pool, which starts
empty at the beginning of each generator's range — the property the
process-parallel executor in :mod:`repro.util.parallel` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.campaigns import Campaign, CampaignModel, prefix_columns
from repro.attacks.events import (
    EVENT_COLUMNS,
    HP_BIT,
    OBSERVATORY_KEYS,
    AttackClass,
    ShardBatch,
)
from repro.attacks.landscape import LandscapeModel
from repro.attacks.vectors import VECTORS, VectorKind, vector_ids
from repro.net.asn import ASKind
from repro.net.plan import InternetPlan
from repro.obs import counter, histogram, span
from repro.util.calendar import SECONDS_PER_DAY, StudyCalendar
from repro.util.rng import RngFactory

#: Honeypot platforms with reflector-selection base probabilities.
HP_BASE_SELECTION = {"hopscotch": 0.70, "amppot": 0.66, "newkid": 0.004}

#: Per-platform, per-vector selection affinity (default 1.0).  Encodes the
#: paper's protocol-composition differences between the honeypots.
HP_VECTOR_AFFINITY: dict[str, dict[str, float]] = {
    "amppot": {"CHARGEN": 1.6, "CLDAP": 0.45, "Memcached": 0.0},
    "hopscotch": {"CLDAP": 1.6, "CHARGEN": 0.5},
    "newkid": {"Memcached": 0.0},
}


@dataclass(frozen=True)
class GeneratorConfig:
    """Sampling parameters for the ground-truth generator.

    The pps/duration scales are calibrated for the *relative* visibility
    relationships of the paper (e.g. ORION's detection floor is ≈24x
    UCSD's, so ORION must see roughly 6x fewer targets), not for absolute
    industry traffic numbers.
    """

    #: weekly lognormal supply noise (sigma).
    weekly_noise_sigma: float = 0.12
    #: probability a target is re-drawn from the recent-victim pool.
    recurrence_probability: float = 0.60
    #: capacity of the recent-victim pool.
    victim_pool_size: int = 20_000
    #: probability an attack uses a second vector of the same class.
    multi_vector_probability: float = 0.10
    #: base probability an event spawns a partner of the other class.
    cross_type_probability: float = 0.05
    #: multiplier on the above for targets in hosting ASes.
    cross_type_hosting_boost: float = 2.0
    #: size-dependence of pairing: multiplier grows as sqrt(pps/median),
    #: capped here.  Big attacks are overwhelmingly multi-vector (targets
    #: that can afford DDoS protection force attackers to combine types).
    cross_type_size_cap: float = 10.0
    #: probability a reflection attack carpet-bombs a prefix.
    carpet_probability: float = 0.03
    #: carpet probability for campaigns flagged as carpet waves.
    carpet_campaign_probability: float = 0.55
    #: attack duration: lognormal (median seconds, sigma); floored at 60 s.
    duration_median_s: float = 600.0
    duration_sigma: float = 1.1
    #: direct-path attack rate: lognormal (median pps, sigma).
    dp_pps_median: float = 40_000.0
    dp_pps_sigma: float = 2.2
    #: reflection attack rate at the victim (amplified): lognormal.
    ra_pps_median: float = 50_000.0
    ra_pps_sigma: float = 2.0
    #: share of attack packets that elicit victim responses (backscatter).
    victim_response_ratio: float = 0.01
    #: probability an attacker excludes known telescopes from rotation.
    telescope_avoidance_probability: float = 0.02


class _VictimPool:
    """Bounded FIFO pool of recently attacked (target, ASN) pairs.

    Stored as parallel circular-buffer arrays so a whole segment's
    recurrence draws and pushes are two vectorised operations.  Recurrence
    samples from the pool as it stood when the segment started; pushes
    land afterwards — the day-to-day coupling the paper's ≈2:1
    tuples-to-IPs ratio rests on is unchanged.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._targets = np.empty(capacity, dtype=np.int64)
        self._asns = np.empty(capacity, dtype=np.int64)
        self._size = 0
        self._cursor = 0

    def sample_many(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``count`` uniform draws (with replacement) from the pool."""
        picks = rng.integers(self._size, size=count)
        return self._targets[picks], self._asns[picks]

    def push_many(self, targets: np.ndarray, asns: np.ndarray) -> None:
        """Append pairs in order, overwriting the oldest beyond capacity."""
        n = len(targets)
        capacity = self._capacity
        if n >= capacity:
            targets = targets[-capacity:]
            asns = asns[-capacity:]
            n = capacity
        free = min(capacity - self._size, n)
        if free:
            self._targets[self._size : self._size + free] = targets[:free]
            self._asns[self._size : self._size + free] = asns[:free]
            self._size += free
        wrapped = n - free
        if wrapped:
            slots = (self._cursor + np.arange(wrapped)) % capacity
            self._targets[slots] = targets[free:]
            self._asns[slots] = asns[free:]
            self._cursor = (self._cursor + wrapped) % capacity

    def __len__(self) -> int:
        return self._size


@dataclass
class _ClassSampler:
    """Pre-extracted vector ids and weight CDF for one attack class.

    Draws by inverting the precomputed CDF with one ``searchsorted`` —
    ``rng.choice(p=...)`` re-validates and re-normalises the weights on
    every call, which dominated the per-segment cost.
    """

    ids: np.ndarray
    cumulative: np.ndarray

    @classmethod
    def for_kind(cls, kind: VectorKind) -> "_ClassSampler":
        ids = np.asarray(vector_ids(kind), dtype=np.int16)
        weights = np.asarray([VECTORS[i].weight for i in ids], dtype=np.float64)
        return cls(ids=ids, cumulative=np.cumsum(weights / weights.sum()))

    @classmethod
    def with_weight_override(
        cls, kind: VectorKind, overrides: dict[int, float]
    ) -> "_ClassSampler":
        """A sampler with some catalogue weights replaced (then renormalised).

        Draw structure is identical to :meth:`for_kind` — same id array,
        same single uniform per event — so swapping samplers per week
        perturbs no other RNG stream.
        """
        ids = np.asarray(vector_ids(kind), dtype=np.int16)
        weights = np.asarray(
            [overrides.get(int(i), VECTORS[i].weight) for i in ids],
            dtype=np.float64,
        )
        return cls(ids=ids, cumulative=np.cumsum(weights / weights.sum()))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        picks = np.searchsorted(self.cumulative, rng.random(count), side="right")
        return self.ids[np.minimum(picks, len(self.ids) - 1)]


class GroundTruthGenerator:
    """Synthesises ground-truth attacks for a range of study days.

    ``day_range`` restricts the generator to a contiguous ``[start, stop)``
    slice of study days — the shard unit of the parallel executor.  Each
    day's events are drawn from a day-keyed RNG stream, so the per-day
    output is identical however the window is partitioned; only the
    recent-victim recurrence pool (which starts empty per generator)
    couples consecutive days within one range.
    """

    def __init__(
        self,
        plan: InternetPlan,
        calendar: StudyCalendar,
        landscape: LandscapeModel,
        campaigns: CampaignModel,
        config: GeneratorConfig | None = None,
        rng_factory: RngFactory | None = None,
        day_range: tuple[int, int] | None = None,
        scenario=None,
    ) -> None:
        self.plan = plan
        self.calendar = calendar
        self.landscape = landscape
        self.campaigns = campaigns
        self.config = config or GeneratorConfig()
        self.scenario = scenario
        if day_range is None:
            day_range = (0, calendar.n_days)
        start, stop = day_range
        if not 0 <= start < stop <= calendar.n_days:
            raise ValueError(
                f"day_range {day_range} outside study window "
                f"(0..{calendar.n_days})"
            )
        self.day_range = (int(start), int(stop))
        self._factory = rng_factory or RngFactory(0)
        self._rng = self._factory.stream("attacks/generator")
        self._pool = _VictimPool(self.config.victim_pool_size)
        self._samplers = {
            AttackClass.DIRECT_PATH: _ClassSampler.for_kind(VectorKind.DIRECT),
            AttackClass.REFLECTION_AMPLIFICATION: _ClassSampler.for_kind(
                VectorKind.REFLECTION
            ),
        }
        self._packet_size = np.asarray(
            [vector.packet_size for vector in VECTORS], dtype=np.float64
        )
        self._hosting_asns = np.asarray(
            sorted(info.asn for info in plan.ases if info.kind is ASKind.HOSTING),
            dtype=np.int64,
        )
        self._campaign_prefixes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._hp_probability_lut = self._build_hp_probability_lut(
            scenario.honeypot_pool if scenario is not None else None
        )
        self._emergence = scenario.emergence if scenario is not None else None
        self._ra_weekly_samplers: dict[int, _ClassSampler] = {}
        self._weekly_noise = self._draw_weekly_noise()

    def _draw_weekly_noise(self) -> dict[AttackClass, np.ndarray]:
        """Weekly lognormal supply noise, one factor per class per week.

        Each class draws from its own dedicated stream so every day-range
        shard sees the same factors as a full run, and — because week ``w``
        is always the ``w``-th draw of its class stream — a shorter study
        window sees exactly the factors of a longer window's first weeks
        (calendar-prefix consistency).
        """
        sigma = self.config.weekly_noise_sigma
        return {
            attack_class: self._factory.stream(
                f"attacks/generator/weekly-noise/{attack_class.name}"
            ).lognormal(
                mean=-0.5 * sigma * sigma, sigma=sigma, size=self.calendar.n_weeks
            )
            for attack_class in AttackClass
        }

    @staticmethod
    def _build_hp_probability_lut(pool=None) -> dict[str, np.ndarray]:
        """Per-platform base selection probability indexed by vector id.

        A :class:`~repro.scenarios.config.HoneypotPoolScenario` rescales
        the table: ``placement="uniform"`` drops the per-vector
        affinities, and ``scale`` treats sensors as independent draws
        (``p -> 1 - (1 - p) ** scale``).  Only the probabilities change —
        the per-event draw count is fixed — so the baseline table
        (``pool=None``) is byte-identical to the pre-scenario one.
        """
        lut = {
            platform: np.asarray(
                [
                    HP_BASE_SELECTION[platform]
                    * HP_VECTOR_AFFINITY.get(platform, {}).get(vector.name, 1.0)
                    for vector in VECTORS
                ],
                dtype=np.float64,
            )
            for platform in HP_BIT
        }
        if pool is None:
            return lut
        scaled: dict[str, np.ndarray] = {}
        for platform, probabilities in lut.items():
            if pool.placement == "uniform":
                probabilities = np.full_like(
                    probabilities, HP_BASE_SELECTION[platform]
                )
            clipped = np.minimum(1.0, probabilities)
            scaled[platform] = 1.0 - (1.0 - clipped) ** pool.scale
        return scaled

    # -- synthesis -------------------------------------------------------------

    def shard_batch(self) -> ShardBatch:
        """Synthesise the generator's whole day range as one columnar batch.

        Days are synthesised in order, each from its own RNG stream, so
        per-day output does not depend on which other days were generated
        first; only the victim recurrence pool carries state between
        consecutive days.  The observatories sweep the resulting
        struct-of-arrays block in one vectorised pass.
        """
        start, stop = self.day_range
        segments: list[dict] = []
        day_chunks: list[np.ndarray] = []
        for day in range(start, stop):
            with span("generate.day"):
                day_segments = self._day_segments(day)
            self._count_day(day_segments)
            for segment in day_segments:
                segments.append(segment)
                day_chunks.append(
                    np.full(len(segment["target"]), day, dtype=np.int32)
                )
        if segments:
            days = np.concatenate(day_chunks)
            columns = {
                name: np.concatenate([segment[name] for segment in segments])
                for name, _ in EVENT_COLUMNS
            }
            bias = {
                key: np.concatenate([segment["bias"][key] for segment in segments])
                for key in OBSERVATORY_KEYS
            }
        else:
            days = np.empty(0, dtype=np.int32)
            columns = {
                name: np.empty(0, dtype=dtype) for name, dtype in EVENT_COLUMNS
            }
            bias = {key: np.empty(0) for key in OBSERVATORY_KEYS}
        return ShardBatch(start, stop, days=days, bias=bias, **columns)

    def _day_segments(self, day: int) -> list[dict]:
        """All event segments of one day (base classes, campaigns, partners)."""
        rng = self._rng = self._factory.stream(f"attacks/generator/day/{day}")
        week = self.calendar.week_of_day(day)
        active = self.campaigns.active(day)

        class_rows: list[dict] = []
        for attack_class in AttackClass:
            base = self.landscape.expected_count(attack_class, day)
            base *= self._weekly_noise[attack_class][week]
            class_campaigns = [
                campaign for campaign in active if campaign.attack_class is attack_class
            ]
            n_base = int(rng.poisson(base))
            class_rows.append(
                {
                    "attack_class": attack_class,
                    "count": n_base,
                    "campaign": None,
                }
            )
            for campaign in class_campaigns:
                n_extra = int(rng.poisson(base * campaign.intensity))
                if n_extra:
                    class_rows.append(
                        {
                            "attack_class": attack_class,
                            "count": n_extra,
                            "campaign": campaign,
                        }
                    )

        segments = [
            self._make_segment(day, row["attack_class"], row["count"], row["campaign"])
            for row in class_rows
            if row["count"] > 0
        ]
        segments.extend(self._cross_type_partners(day, segments))
        return segments

    def _count_day(self, segments: list[dict]) -> None:
        """Per-day pipeline metrics (pure accounting; no RNG touched)."""
        counter("generate.days").inc()
        total = sum(len(segment["target"]) for segment in segments)
        histogram("generate.batch_events").observe(float(total))
        if not total:
            return
        n_dp = sum(
            len(segment["target"])
            for segment in segments
            if segment["attack_class"][0] == int(AttackClass.DIRECT_PATH)
        )
        counter("generate.events", cls="DP").inc(n_dp)
        counter("generate.events", cls="RA").inc(total - n_dp)
        counter("generate.events.carpet").inc(
            sum(int(segment["carpet"].sum()) for segment in segments)
        )
        counter("generate.events.multi_vector").inc(
            sum(
                int((segment["secondary_vector_id"] >= 0).sum())
                for segment in segments
            )
        )

    # -- segment synthesis ----------------------------------------------------

    def _make_segment(
        self,
        day: int,
        attack_class: AttackClass,
        count: int,
        campaign: Campaign | None,
    ) -> dict:
        """Sample ``count`` events of one class (optionally one campaign)."""
        rng = self._rng
        config = self.config
        if campaign is not None:
            counter("generate.campaign_events").inc(count)

        targets, asns = self._draw_targets(count, campaign)
        start = day * SECONDS_PER_DAY + np.sort(rng.random(count)) * SECONDS_PER_DAY
        duration = np.maximum(
            60.0,
            rng.lognormal(
                mean=np.log(config.duration_median_s),
                sigma=config.duration_sigma,
                size=count,
            ),
        )
        if attack_class is AttackClass.DIRECT_PATH:
            pps = rng.lognormal(
                mean=np.log(config.dp_pps_median), sigma=config.dp_pps_sigma, size=count
            )
        else:
            pps = rng.lognormal(
                mean=np.log(config.ra_pps_median), sigma=config.ra_pps_sigma, size=count
            )

        sampler = self._class_sampler(attack_class, day)
        if campaign is not None and campaign.vector_focus is not None:
            vector = np.full(count, campaign.vector_focus, dtype=np.int16)
        else:
            vector = sampler.draw(rng, count).astype(np.int16)
        secondary = np.full(count, -1, dtype=np.int16)
        multi = rng.random(count) < config.multi_vector_probability
        if multi.any():
            secondary[multi] = sampler.draw(rng, int(multi.sum())).astype(np.int16)

        bps = pps * self._packet_size[vector] * 8.0

        if attack_class is AttackClass.REFLECTION_AMPLIFICATION:
            carpet_p = (
                config.carpet_campaign_probability
                if campaign is not None and campaign.carpet
                else config.carpet_probability
            )
        else:
            carpet_p = config.carpet_probability * 0.3
        carpet = rng.random(count) < carpet_p
        carpet_len = np.zeros(count, dtype=np.int8)
        if carpet.any():
            carpet_len[carpet] = rng.integers(22, 27, size=int(carpet.sum()))

        if attack_class is AttackClass.DIRECT_PATH:
            spoofed = rng.random(count) < self.landscape.spoofed_dp_share(day)
        else:
            spoofed = np.ones(count, dtype=bool)  # RA requests are spoofed

        hp_selected = self._draw_hp_selection(attack_class, vector, campaign, count)
        bias = self._bias_arrays(campaign, count)
        self._apply_telescope_avoidance(bias, count)

        return {
            "attack_class": np.full(count, int(attack_class), dtype=np.int8),
            "target": targets,
            "origin_asn": asns,
            "start": start,
            "duration": duration,
            "pps": pps,
            "bps": bps,
            "vector_id": vector,
            "secondary_vector_id": secondary,
            "carpet": carpet,
            "carpet_prefix_len": carpet_len,
            "spoofed": spoofed,
            "hp_selected": hp_selected,
            "bias": bias,
        }

    def _class_sampler(self, attack_class: AttackClass, day: int) -> _ClassSampler:
        """The vector sampler for one class on one day.

        Without an emergence scenario this is the static per-class sampler
        (the exact object the baseline uses).  With one, reflection draws
        use a per-week sampler whose emerging-vector weight follows the
        scenario trajectory — keyed by week only, so any shard plan sees
        identical CDFs (calendar-prefix consistent by construction).
        """
        if (
            self._emergence is None
            or attack_class is not AttackClass.REFLECTION_AMPLIFICATION
        ):
            return self._samplers[attack_class]
        week = self.calendar.week_of_day(day)
        sampler = self._ra_weekly_samplers.get(week)
        if sampler is None:
            sampler = _ClassSampler.with_weight_override(
                VectorKind.REFLECTION,
                {
                    self._emergence.vector_catalogue_id: self._emergence.weight_for_week(
                        week
                    )
                },
            )
            self._ra_weekly_samplers[week] = sampler
        return sampler

    def _draw_targets(
        self, count: int, campaign: Campaign | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Targets and origin ASNs for ``count`` events.

        Drawn as three vectorised passes (fresh plan sample, recurrence-pool
        override, campaign-concentration override).  Recurrence samples the
        pool as it stood when the segment started; the segment's own events
        are pushed afterwards in one batch.
        """
        rng = self._rng
        targets, asns = self.plan.sample_targets_with_asns(rng, count)
        recur_draw = rng.random(count)
        concentrate_draw = rng.random(count)

        concentrated = np.zeros(count, dtype=bool)
        campaign_columns = self._campaign_prefix_columns(campaign)
        if campaign_columns is not None:
            concentrated = concentrate_draw < 0.7

        recur = (recur_draw < self.config.recurrence_probability) & ~concentrated
        if len(self._pool) and recur.any():
            pooled_targets, pooled_asns = self._pool.sample_many(
                rng, int(recur.sum())
            )
            targets[recur] = pooled_targets
            asns[recur] = pooled_asns

        if concentrated.any():
            bases, sizes = campaign_columns
            n = int(concentrated.sum())
            picks = rng.integers(len(bases), size=n)
            offsets = rng.integers(sizes[picks])
            targets[concentrated] = bases[picks] + offsets
            asns[concentrated] = campaign.target_asn

        self._pool.push_many(targets, asns)
        return targets, asns

    def _campaign_prefix_columns(
        self, campaign: Campaign | None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Columnar (base, size) prefixes of a campaign's target AS, memoised."""
        if campaign is None or campaign.target_asn is None:
            return None
        asn = campaign.target_asn
        if asn not in self._campaign_prefixes:
            info = self.plan.ases.get(asn)
            prefixes = info.prefixes if info is not None else ()
            columns = prefix_columns(prefixes) if prefixes else None
            self._campaign_prefixes[asn] = columns
        return self._campaign_prefixes[asn]

    def _draw_hp_selection(
        self,
        attack_class: AttackClass,
        vector: np.ndarray,
        campaign: Campaign | None,
        count: int,
    ) -> np.ndarray:
        """Honeypot reflector-selection bitmask per event."""
        mask = np.zeros(count, dtype=np.uint8)
        if attack_class is not AttackClass.REFLECTION_AMPLIFICATION:
            return mask
        rng = self._rng
        # Reflector-list breadth, shared across platforms per event: broad
        # lists hit every honeypot, narrow lists miss them all.  This
        # correlation produces the >50% pairwise target overlap between
        # Hopscotch and AmpPot the paper reports (Section 7.1).
        breadth = rng.lognormal(mean=-0.32, sigma=0.8, size=count)
        for platform, bit in HP_BIT.items():
            campaign_bias = campaign.bias[platform] if campaign is not None else 1.0
            probabilities = np.minimum(
                1.0,
                self._hp_probability_lut[platform][vector]
                * campaign_bias
                * breadth,
            )
            selected = rng.random(count) < probabilities
            mask |= (selected.astype(np.uint8)) << bit
        return mask

    def _bias_arrays(
        self, campaign: Campaign | None, count: int
    ) -> dict[str, np.ndarray]:
        if campaign is None:
            return {key: np.ones(count) for key in OBSERVATORY_KEYS}
        return {
            key: np.full(count, campaign.bias[key]) for key in OBSERVATORY_KEYS
        }

    def _apply_telescope_avoidance(
        self, bias: dict[str, np.ndarray], count: int
    ) -> None:
        """Zero telescope visibility for attackers that avoid telescopes."""
        avoiders = (
            self._rng.random(count) < self.config.telescope_avoidance_probability
        )
        if avoiders.any():
            for key in ("ucsd", "orion"):
                bias[key] = bias[key].copy()
                bias[key][avoiders] = 0.0

    # -- cross-type partners -----------------------------------------------------

    def _in_hosting(self, asns: np.ndarray) -> np.ndarray:
        """Boolean mask of ASNs that belong to hosting ASes."""
        hosting = self._hosting_asns
        if not len(hosting):
            return np.zeros(len(asns), dtype=bool)
        positions = np.searchsorted(hosting, asns)
        positions = np.minimum(positions, len(hosting) - 1)
        return hosting[positions] == asns

    def _cross_type_partners(self, day: int, segments: list[dict]) -> list[dict]:
        """Spawn other-class partner events for multi-attack-type targets."""
        rng = self._rng
        config = self.config
        partners: list[dict] = []
        for segment in segments:
            count = len(segment["target"])
            if count == 0:
                continue
            boost = np.where(
                self._in_hosting(segment["origin_asn"]),
                config.cross_type_hosting_boost,
                1.0,
            )
            attack_class = AttackClass(int(segment["attack_class"][0]))
            median_pps = (
                config.dp_pps_median
                if attack_class is AttackClass.DIRECT_PATH
                else config.ra_pps_median
            )
            size_boost = np.clip(
                np.sqrt(segment["pps"] / median_pps), 1.0, config.cross_type_size_cap
            )
            probability = np.minimum(
                0.85, config.cross_type_probability * boost * size_boost
            )
            chosen = rng.random(count) < probability
            if not chosen.any():
                continue
            indices = np.flatnonzero(chosen)
            flipped = AttackClass(1 - int(attack_class))
            partner = self._make_segment(day, flipped, len(indices), None)
            # Pin the partner onto the same victims, and correlate partner
            # size with the originating attack: multi-vector campaigns
            # against protected targets are big on every vector.
            partner["target"] = segment["target"][indices].copy()
            partner["origin_asn"] = segment["origin_asn"][indices].copy()
            scale = size_boost[indices]
            partner["pps"] = partner["pps"] * scale
            partner["bps"] = partner["bps"] * scale
            partners.append(partner)
            counter("generate.partner_events").inc(len(indices))
        return partners
