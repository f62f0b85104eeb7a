"""Metamorphic properties of the simulation under hypothesis-drawn configs.

Each property asserts an *equivalence or ordering between runs* rather than
a fixed value, so it holds for any seed hypothesis draws:

* jobs invariance — serial, multi-worker, and cache-warm runs of the same
  config are bit-for-bit identical (PR 1's determinism claim);
* seed sensitivity — different seeds change the observations but not the
  structural invariants (feeds validate, every platform sees traffic);
* calendar-prefix consistency — a shorter window is a prefix of a longer
  run's observations and weekly ground truth;
* observatory-subset independence — each observatory's feed is unchanged
  when other observatories are removed from the set (per-platform RNG
  streams do not leak into each other);
* observability invariance — the merged pipeline metrics are identical
  for any worker count, and disabling instrumentation entirely never
  changes a byte of simulation output.

Windows are drawn in whole multiples of 4 weeks so shard plans of nested
calendars align (28-day shards); tiny rates keep the whole module inside
the tier-1 time budget.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.study import Study, StudyConfig
from repro.core.validate import validate_observations
from repro.net.plan import PlanConfig
from repro.observatories.registry import ObservatorySet
from repro.util.calendar import StudyCalendar
from repro.util.parallel import build_models, simulate
from repro.util.rng import RngFactory
from tests.test_parallel import _assert_identical, _column_names

_SETTINGS = dict(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # tier-1 must not be flaky; CI reruns are identical
)

seeds = st.integers(min_value=0, max_value=2**16)
week_multiples = st.integers(min_value=2, max_value=4).map(lambda n: n * 4)


def tiny_config(seed: int, weeks: int) -> StudyConfig:
    start = dt.date(2019, 1, 1)
    return StudyConfig(
        seed=seed,
        calendar=StudyCalendar(start, start + dt.timedelta(days=weeks * 7)),
        dp_per_day=12.0,
        ra_per_day=9.0,
        plan=PlanConfig(seed=seed, tail_as_count=60),
    )


@given(seed=seeds, weeks=week_multiples)
@settings(**_SETTINGS)
def test_serial_parallel_and_cache_warm_runs_are_identical(
    seed: int, weeks: int, tmp_path_factory
) -> None:
    config = tiny_config(seed, weeks)
    serial = simulate(config, jobs=1)
    sharded = simulate(config, jobs=2)
    _assert_identical(serial, sharded)

    cache_dir = tmp_path_factory.mktemp("metamorphic-cache")
    cold = Study(config, cache=True, cache_dir=str(cache_dir))
    warm = Study(config, cache=True, cache_dir=str(cache_dir))
    _assert_identical(
        (cold.observations, cold._ground_truth_weekly),
        (warm.observations, warm._ground_truth_weekly),
    )
    _assert_identical((warm.observations, warm._ground_truth_weekly), serial)


@given(seed=seeds, weeks=week_multiples)
@settings(**_SETTINGS)
def test_seed_changes_observations_but_not_structure(
    seed: int, weeks: int
) -> None:
    config_a = tiny_config(seed, weeks)
    config_b = tiny_config(seed + 1, weeks)
    sinks_a, _ = simulate(config_a, jobs=1)
    sinks_b, _ = simulate(config_b, jobs=1)
    assert sorted(sinks_a) == sorted(sinks_b)
    # Different seeds must actually change the data...
    assert any(
        len(sinks_a[name]) != len(sinks_b[name])
        or not np.array_equal(sinks_a[name].day, sinks_b[name].day)
        or not np.array_equal(sinks_a[name].target, sinks_b[name].target)
        for name in sinks_a
    )
    # ...while preserving the structural invariants for every platform.
    for config, sinks in ((config_a, sinks_a), (config_b, sinks_b)):
        for name, observations in sinks.items():
            assert len(observations) > 0, name
            report = validate_observations(observations, config.calendar)
            assert report.ok, report.summary()


@given(seed=seeds, weeks=week_multiples)
@settings(**_SETTINGS)
def test_shorter_calendar_is_a_prefix_of_the_longer_run(
    seed: int, weeks: int
) -> None:
    short = tiny_config(seed, weeks)
    long = tiny_config(seed, weeks + 8)
    sinks_short, truth_short = simulate(short, jobs=1)
    sinks_long, truth_long = simulate(long, jobs=1)
    cutoff_days = short.calendar.n_days
    for name in sinks_short:
        obs_short, obs_long = sinks_short[name], sinks_long[name]
        keep = int(np.searchsorted(obs_long.day, cutoff_days, side="left"))
        assert len(obs_short) == keep, name
        for column in _column_names():
            left = getattr(obs_short, column)
            right = getattr(obs_long, column)[:keep]
            assert np.array_equal(
                left, right, equal_nan=left.dtype.kind == "f"
            ), (name, column)
    n_weeks = short.calendar.n_weeks
    for attack_class, weekly in truth_short.items():
        assert np.array_equal(weekly, truth_long[attack_class][:n_weeks])


@given(seed=seeds, weeks=week_multiples)
@settings(**_SETTINGS)
def test_observability_is_jobs_invariant_and_invisible(
    seed: int, weeks: int
) -> None:
    """Merged metrics are identical serial vs. sharded, and turning
    instrumentation off leaves the artefacts bit-for-bit unchanged."""
    from repro import obs

    config = tiny_config(seed, weeks)
    runs = {}
    for jobs in (1, 4):
        with obs.collecting() as registry, obs.tracing():
            result = simulate(config, jobs=jobs)
        runs[jobs] = (result, registry.snapshot())
    _assert_identical(runs[1][0], runs[4][0])
    assert runs[1][1]["counters"], "instrumentation recorded nothing"
    assert runs[1][1] == runs[4][1]

    obs.set_enabled(False)
    try:
        dark = simulate(config, jobs=1)
    finally:
        obs.set_enabled(True)
    _assert_identical(runs[1][0], dark)


@given(seed=seeds)
@settings(**_SETTINGS)
def test_observatory_subset_independence(seed: int) -> None:
    """Removing observatories never changes the survivors' feeds."""
    from repro.util.parallel import _build_observatories

    config = tiny_config(seed, weeks=8)
    models = build_models(config)

    def run(subset: ObservatorySet):
        from repro.attacks.generator import GroundTruthGenerator

        generator = GroundTruthGenerator(
            models.plan,
            config.calendar,
            models.landscape,
            models.campaigns,
            config=config.generator,
            rng_factory=RngFactory(config.seed),
        )
        sinks, _ = subset.run_shard(generator.shard_batch(), config.calendar)
        return sinks

    full = run(_build_observatories(config, models.plan))
    rebuilt = _build_observatories(config, models.plan)
    telescopes_only = ObservatorySet(
        telescopes=rebuilt.telescopes, honeypots=[], flow_monitors=[]
    )
    subset_sinks = run(telescopes_only)
    assert sorted(subset_sinks) == [t.name for t in sorted(
        rebuilt.telescopes, key=lambda t: t.name
    )]
    for name, observations in subset_sinks.items():
        reference = full[name]
        assert len(observations) == len(reference), name
        for column in _column_names():
            left = getattr(observations, column)
            right = getattr(reference, column)
            assert np.array_equal(
                left, right, equal_nan=left.dtype.kind == "f"
            ), (name, column)
