"""On-disk study cache: fingerprinting, round-trips, and failure fallback."""

from __future__ import annotations

import dataclasses
import datetime as dt
import multiprocessing

import numpy as np
import pytest

from repro.attacks.events import AttackClass
from repro.core import cache as cache_module
from repro.core.cache import (
    CACHE_DIR_ENV,
    StudyCache,
    cache_enabled,
    config_fingerprint,
    default_cache_dir,
)
from repro.core.study import Study, StudyConfig
from repro.net.plan import PlanConfig
from repro.util.calendar import StudyCalendar
from repro.util.parallel import simulate


@pytest.fixture(scope="module")
def tiny_config() -> StudyConfig:
    return StudyConfig(
        seed=3,
        calendar=StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 5, 1)),
        dp_per_day=30.0,
        ra_per_day=25.0,
        plan=PlanConfig(seed=3, tail_as_count=60),
    )


@pytest.fixture(scope="module")
def tiny_result(tiny_config):
    return simulate(tiny_config, jobs=1)


class TestFingerprint:
    def test_stable_across_calls(self, tiny_config):
        assert config_fingerprint(tiny_config) == config_fingerprint(tiny_config)

    def test_stable_across_equal_configs(self, tiny_config):
        clone = dataclasses.replace(tiny_config)
        assert config_fingerprint(clone) == config_fingerprint(tiny_config)

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 4},
            {"dp_per_day": 31.0},
            {"ra_per_day": 26.0},
            {"aggregate_carpet": False},
            {"include_takedowns": False},
            {"paper_outages": False},
            {"plan": PlanConfig(seed=3, tail_as_count=61)},
            {
                "calendar": StudyCalendar(
                    dt.date(2019, 1, 1), dt.date(2019, 5, 2)
                )
            },
        ],
    )
    def test_any_config_change_changes_fingerprint(self, tiny_config, change):
        changed = dataclasses.replace(tiny_config, **change)
        assert config_fingerprint(changed) != config_fingerprint(tiny_config)

    def test_digest_is_hex_sha256(self, tiny_config):
        digest = config_fingerprint(tiny_config)
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestStoreLoad:
    def test_round_trip(self, tiny_config, tiny_result, tmp_path):
        cache = StudyCache(tmp_path)
        fingerprint = config_fingerprint(tiny_config)
        sinks, truth = tiny_result

        path = cache.store(fingerprint, sinks, truth)
        assert path is not None and path.is_file()

        loaded = cache.load(fingerprint)
        assert loaded is not None
        loaded_sinks, loaded_truth = loaded
        assert sorted(loaded_sinks) == sorted(sinks)
        for name, observations in sinks.items():
            restored = loaded_sinks[name]
            for column in ("day", "target", "attack_class", "vector_id",
                           "spoofed", "bps", "duration"):
                left = getattr(observations, column)
                right = getattr(restored, column)
                assert left.dtype == right.dtype, (name, column)
                assert np.array_equal(
                    left, right, equal_nan=left.dtype.kind == "f"
                ), (name, column)
        for attack_class in AttackClass:
            assert np.array_equal(
                loaded_truth[attack_class], truth[attack_class]
            )

    def test_miss_on_unknown_fingerprint(self, tmp_path):
        assert StudyCache(tmp_path).load("0" * 64) is None

    def test_miss_on_corrupted_file(self, tiny_config, tiny_result, tmp_path):
        cache = StudyCache(tmp_path)
        fingerprint = config_fingerprint(tiny_config)
        path = cache.store(fingerprint, *tiny_result)
        path.write_bytes(b"not an npz archive at all")
        assert cache.load(fingerprint) is None

    def test_miss_on_truncated_file(self, tiny_config, tiny_result, tmp_path):
        cache = StudyCache(tmp_path)
        fingerprint = config_fingerprint(tiny_config)
        path = cache.store(fingerprint, *tiny_result)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.load(fingerprint) is None

    def test_store_into_unwritable_root_returns_none(
        self, tiny_result, tmp_path
    ):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should be")
        cache = StudyCache(blocker / "cache")
        assert cache.store("f" * 64, *tiny_result) is None

    def test_entries_and_clear(self, tiny_config, tiny_result, tmp_path):
        cache = StudyCache(tmp_path)
        assert cache.entries() == []
        assert cache.total_bytes() == 0
        cache.store(config_fingerprint(tiny_config), *tiny_result)
        cache.store("e" * 64, *tiny_result)
        assert len(cache.entries()) == 2
        assert cache.total_bytes() > 0
        assert cache.clear() == 2
        assert cache.entries() == []


class TestEnvironment:
    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        assert StudyCache().root == tmp_path / "custom"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"

    def test_no_cache_env_kill_switch(self, monkeypatch):
        monkeypatch.delenv(cache_module.CACHE_DISABLE_ENV, raising=False)
        assert cache_enabled()
        monkeypatch.setenv(cache_module.CACHE_DISABLE_ENV, "1")
        assert not cache_enabled()


class TestActivityStats:
    """The persistent hit/miss counters behind ``ddoscovery cache info``."""

    def test_fresh_cache_reports_zeros(self, tmp_path):
        cache = StudyCache(tmp_path)
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "bytes_read": 0,
            "bytes_written": 0,
        }
        assert cache.hit_rate() is None

    def test_cold_then_warm_run_records_miss_then_hit(
        self, tiny_config, tmp_path
    ):
        """Regression for `cache info` hit rates: a cold study records one
        miss and one store, the warm rerun one hit — 50% lifetime rate."""
        cache_dir = tmp_path / "cache"
        Study(tiny_config, cache=True, cache_dir=cache_dir).observations
        cache = StudyCache(cache_dir)
        cold = cache.stats()
        assert (cold["hits"], cold["misses"], cold["stores"]) == (0, 1, 1)
        assert cold["bytes_written"] > 0
        assert cold["bytes_read"] == 0
        assert cache.hit_rate() == 0.0

        Study(tiny_config, cache=True, cache_dir=cache_dir).observations
        warm = cache.stats()
        assert (warm["hits"], warm["misses"], warm["stores"]) == (1, 1, 1)
        assert warm["bytes_read"] == warm["bytes_written"]
        assert cache.hit_rate() == 0.5

    def test_stats_survive_across_cache_instances(
        self, tiny_config, tiny_result, tmp_path
    ):
        """Counters live on disk, so separate processes (here: separate
        StudyCache objects) accumulate into the same lifetime totals."""
        fingerprint = config_fingerprint(tiny_config)
        StudyCache(tmp_path).store(fingerprint, *tiny_result)
        assert StudyCache(tmp_path).load(fingerprint) is not None
        assert StudyCache(tmp_path).load("0" * 64) is None
        stats = StudyCache(tmp_path).stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (1, 1, 1)

    def test_corrupt_stats_file_reads_as_zeros(self, tmp_path):
        cache = StudyCache(tmp_path)
        tmp_path.mkdir(exist_ok=True)
        cache.stats_path.write_text("not json", encoding="utf-8")
        assert cache.stats()["hits"] == 0
        assert cache.hit_rate() is None

    def test_concurrent_processes_lose_no_increment(self, tmp_path):
        cache = StudyCache(tmp_path)

        def bump():
            for _ in range(25):
                cache._record(hits=1)

        context = multiprocessing.get_context("fork")
        workers = [context.Process(target=bump) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert [worker.exitcode for worker in workers] == [0] * 4
        assert cache.stats()["hits"] == 100

    def test_clear_resets_stats(self, tiny_config, tiny_result, tmp_path):
        cache = StudyCache(tmp_path)
        cache.store(config_fingerprint(tiny_config), *tiny_result)
        assert cache.stats()["stores"] == 1
        cache.clear()
        assert not cache.stats_path.exists()
        assert cache.hit_rate() is None


class TestStudyCacheIntegration:
    def test_second_study_hits_the_cache(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """A warm run must serve observations without simulating at all."""
        first = Study(tiny_config, cache=True, cache_dir=tmp_path)
        first_sinks = first.observations
        assert len(StudyCache(tmp_path).entries()) == 1

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache hit expected; simulate() was called")

        monkeypatch.setattr("repro.core.study.simulate", boom)
        second = Study(tiny_config, cache=True, cache_dir=tmp_path)
        second_sinks = second.observations
        assert sorted(second_sinks) == sorted(first_sinks)
        for name in first_sinks:
            assert np.array_equal(
                second_sinks[name].target, first_sinks[name].target
            )
        # Ground truth rides along with the cached payload.
        for attack_class in AttackClass:
            assert np.array_equal(
                second.ground_truth_weekly(attack_class),
                first.ground_truth_weekly(attack_class),
            )

    def test_config_change_invalidates(
        self, tiny_config, tmp_path, monkeypatch
    ):
        Study(tiny_config, cache=True, cache_dir=tmp_path).observations

        called = []
        real_simulate = simulate

        def spying(*args, **kwargs):
            called.append(True)
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr("repro.core.study.simulate", spying)
        changed = dataclasses.replace(tiny_config, seed=tiny_config.seed + 1)
        Study(changed, cache=True, cache_dir=tmp_path).observations
        assert called, "changed config must re-simulate, not hit the cache"
        assert len(StudyCache(tmp_path).entries()) == 2

    def test_cache_false_never_touches_disk(self, tiny_config, tmp_path):
        Study(tiny_config, cache=False, cache_dir=tmp_path).observations
        assert StudyCache(tmp_path).entries() == []

    def test_corrupted_entry_falls_back_to_simulation(
        self, tiny_config, tmp_path
    ):
        study = Study(tiny_config, cache=True, cache_dir=tmp_path)
        study.observations
        [entry] = StudyCache(tmp_path).entries()
        entry.write_bytes(b"garbage")
        fallback = Study(tiny_config, cache=True, cache_dir=tmp_path)
        sinks = fallback.observations  # must not raise
        assert sorted(sinks) == sorted(study.observations)
