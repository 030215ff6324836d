"""Tests for the content-addressed result cache and its serialization.

Correctness contract: a cache hit returns a result *equal* to the one
simulated (exact float round-trip), and the digest changes whenever any
input that could change the result changes — so stale reuse is impossible
by construction.
"""

import json

import pytest

from repro.exec import (
    SCHEMA_VERSION,
    ResultCache,
    point_digest,
    run_result_from_dict,
    run_result_to_dict,
)
from repro.exec import serialize
from repro.experiments import ExperimentConfig, Runner

TINY = ExperimentConfig(workload_scale=0.05)


@pytest.fixture(scope="module")
def result():
    return Runner(TINY).run("sar", "history", True)


class TestSerialization:
    def test_round_trip_equality(self, result):
        d = run_result_to_dict(result)
        assert run_result_from_dict(d) == result

    def test_json_round_trip_equality(self, result):
        """Through actual JSON text: floats must survive bit-identically."""
        text = json.dumps(run_result_to_dict(result))
        assert run_result_from_dict(json.loads(text)) == result

    def test_idle_cdf_tuples_restored(self, result):
        restored = run_result_from_dict(
            json.loads(json.dumps(run_result_to_dict(result)))
        )
        assert isinstance(restored.idle_cdf.buckets_ms, tuple)
        assert isinstance(restored.idle_cdf.cumulative, tuple)

    def test_schema_mismatch_rejected(self, result):
        d = run_result_to_dict(result)
        d["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            run_result_from_dict(d)


class TestDigest:
    def test_stable_across_calls(self):
        assert point_digest(TINY, "sar", "history", True) == point_digest(
            TINY, "sar", "history", True
        )

    def test_equal_configs_equal_digest(self):
        other = ExperimentConfig(workload_scale=0.05)
        assert point_digest(TINY, "sar", "history", True) == point_digest(
            other, "sar", "history", True
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"delta": 40},
            {"theta": 2},
            {"n_ionodes": 4},
            {"workload_scale": 0.1},
            {"simple_timeout": 10.0},
            {"buffer_capacity_blocks": 1024},
        ],
    )
    def test_any_knob_changes_digest(self, change):
        base = point_digest(TINY, "sar", "history", True)
        assert point_digest(TINY.scaled(**change), "sar", "history", True) != base

    def test_identity_fields_change_digest(self):
        base = point_digest(TINY, "sar", "history", True)
        assert point_digest(TINY, "hf", "history", True) != base
        assert point_digest(TINY, "sar", "simple", True) != base
        assert point_digest(TINY, "sar", "history", False) != base

    def test_schema_version_changes_digest(self, monkeypatch):
        base = point_digest(TINY, "sar", "history", True)
        monkeypatch.setattr(serialize, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        monkeypatch.setattr(
            "repro.exec.cache.SCHEMA_VERSION", SCHEMA_VERSION + 1
        )
        assert point_digest(TINY, "sar", "history", True) != base


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert cache.lookup(TINY, "sar", "history", True) is None
        cache.store(TINY, "sar", "history", True, result)
        assert cache.lookup(TINY, "sar", "history", True) == result
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_knob_change_is_a_miss_not_stale_reuse(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.store(TINY, "sar", "history", True, result)
        for change in ({"delta": 40}, {"theta": 2}, {"n_ionodes": 4}):
            assert cache.lookup(
                TINY.scaled(**change), "sar", "history", True
            ) is None

    def test_schema_bump_orphans_old_entries(self, tmp_path, result,
                                             monkeypatch):
        cache = ResultCache(tmp_path)
        cache.store(TINY, "sar", "history", True, result)
        monkeypatch.setattr(
            "repro.exec.cache.SCHEMA_VERSION", SCHEMA_VERSION + 1
        )
        assert cache.lookup(TINY, "sar", "history", True) is None

    def test_corrupt_entry_treated_as_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.store(TINY, "sar", "history", True, result)
        path.write_text("{not json", encoding="utf-8")
        assert cache.lookup(TINY, "sar", "history", True) is None
        assert cache.stats.invalid == 1
        # A fresh store repairs it.
        cache.store(TINY, "sar", "history", True, result)
        assert cache.lookup(TINY, "sar", "history", True) == result

    def test_len_and_clear(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.store(TINY, "sar", "history", True, result)
        cache.store(TINY, "sar", "history", False, result)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestOrphanSweep:
    """``.tmp-*`` files abandoned by crashed writers must not accumulate."""

    def orphan(self, root, name="aa"):
        fan = root / name
        fan.mkdir(parents=True, exist_ok=True)
        path = fan / ".tmp-dead-writer.json"
        path.write_text("{", encoding="utf-8")
        return path

    def test_init_sweeps_and_counts_orphans(self, tmp_path):
        dead = [self.orphan(tmp_path, fan) for fan in ("aa", "bb", "bb")]
        cache = ResultCache(tmp_path)
        assert cache.stats.orphans_swept == 2  # two distinct files
        assert not any(p.exists() for p in dead)
        assert "orphans_swept" in cache.stats.as_dict()

    def test_clear_sweeps_orphans_but_counts_only_entries(self, tmp_path,
                                                          result):
        cache = ResultCache(tmp_path)
        cache.store(TINY, "sar", "history", True, result)
        orphan = self.orphan(tmp_path)
        assert cache.clear() == 1  # the entry, not the orphan
        assert not orphan.exists()
        assert cache.stats.orphans_swept == 1

    def test_sweep_leaves_real_entries_alone(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.store(TINY, "sar", "history", True, result)
        self.orphan(tmp_path)
        assert cache.sweep_orphans() == 1
        assert cache.lookup(TINY, "sar", "history", True) == result

    def test_store_survives_concurrent_sweep_race(self, tmp_path, result,
                                                  monkeypatch):
        """A racing sweep may unlink our live tempfile between mkstemp
        and os.replace; store must retry with a fresh tempfile."""
        import os as _os

        cache = ResultCache(tmp_path)
        real_replace = _os.replace
        raced = {"done": False}

        def racing_replace(src, dst):
            if not raced["done"]:
                raced["done"] = True
                _os.unlink(src)  # the concurrent sweeper wins the race
                raise FileNotFoundError(src)
            return real_replace(src, dst)

        monkeypatch.setattr("repro.exec.cache.os.replace", racing_replace)
        cache.store(TINY, "sar", "history", True, result)
        assert cache.lookup(TINY, "sar", "history", True) == result
        assert list(tmp_path.glob("*/.tmp-*")) == []
