"""Tests for the content-addressed result cache (hit/miss, keys, resume)."""

from __future__ import annotations

import shutil
import threading

import pytest

from repro.experiments import ResultCache, get_scenario, run_sweep, trial_key
from repro.utils import atomic


class TestTrialKey:
    def test_stable_under_param_order(self):
        a = trial_key("s", "1", {"x": 1, "y": 2}, seed=3, code_tag="t")
        b = trial_key("s", "1", {"y": 2, "x": 1}, seed=3, code_tag="t")
        assert a == b

    def test_sensitive_to_every_component(self):
        base = dict(scenario="s", scenario_version="1", params={"x": 1}, seed=3, code_tag="t")
        key = trial_key(**base)
        assert key != trial_key(**{**base, "scenario": "s2"})
        assert key != trial_key(**{**base, "scenario_version": "2"})
        assert key != trial_key(**{**base, "params": {"x": 2}})
        assert key != trial_key(**{**base, "seed": 4})
        assert key != trial_key(**{**base, "code_tag": "t2"})


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("scn", "aa" + "0" * 38) is None
        cache.put("scn", "aa" + "0" * 38, {"value": 1.5})
        assert cache.get("scn", "aa" + "0" * 38) == {"value": 1.5}
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_contains_does_not_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("scn", "bb" + "0" * 38, {"value": 2})
        assert cache.contains("scn", "bb" + "0" * 38)
        assert not cache.contains("scn", "cc" + "0" * 38)
        assert cache.stats.lookups == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("scn", "dd" + "0" * 38, {"value": 3})
        path.write_text("{truncated")
        assert cache.get("scn", "dd" + "0" * 38) is None


class TestCorruptRecovery:
    """Malformed files are quarantined; get/contains/count always agree."""

    KEY = "ee" + "0" * 38

    #: Payloads that are valid JSON but not a well-formed cache record —
    #: the shapes that used to crash ``get`` with an uncaught KeyError.
    MALFORMED = (
        "{}",                       # no "record" key at all
        '{"record": null}',         # present but not a dict
        '{"record": [1, 2]}',       # present but a list
        '"just a string"',          # payload is not even an object
        "[]",                       # top level is a list
    )

    def _poison(self, cache, text):
        path = cache.put("scn", self.KEY, {"value": 1})
        path.write_text(text)
        return path

    @pytest.mark.parametrize("text", MALFORMED)
    def test_get_treats_malformed_json_as_miss(self, tmp_path, text):
        cache = ResultCache(tmp_path)
        self._poison(cache, text)
        assert cache.get("scn", self.KEY) is None
        assert cache.stats.misses == 1

    @pytest.mark.parametrize("text", MALFORMED + ("{torn", ""))
    def test_get_quarantines_bad_files(self, tmp_path, text):
        cache = ResultCache(tmp_path)
        path = self._poison(cache, text)
        cache.get("scn", self.KEY)
        assert not path.exists()
        corrupt = path.with_suffix(".corrupt")
        assert corrupt.exists() and corrupt.read_text() == text
        assert cache.stats.quarantined == 1

    @pytest.mark.parametrize("text", MALFORMED + ("{torn",))
    def test_contains_agrees_with_get(self, tmp_path, text):
        cache = ResultCache(tmp_path)
        self._poison(cache, text)
        assert cache.contains("scn", self.KEY) is False
        assert cache.get("scn", self.KEY) is None
        assert cache.stats.lookups == 1  # contains never counts hit/miss

    def test_count_excludes_quarantined_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("scn", "aa" + "0" * 38, {"value": 1})
        self._poison(cache, "{}")
        assert cache.count("scn") == 2
        assert cache.get("scn", self.KEY) is None  # quarantines the bad file
        assert cache.count("scn") == 1
        assert cache.contains("scn", "aa" + "0" * 38)

    def test_put_after_quarantine_restores_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._poison(cache, "{}")
        assert cache.get("scn", self.KEY) is None
        cache.put("scn", self.KEY, {"value": 7})
        assert cache.get("scn", self.KEY) == {"value": 7}
        assert cache.contains("scn", self.KEY)

    def test_valid_record_with_extra_keys_still_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("scn", self.KEY, {"value": 9})
        # extra envelope keys are tolerated; only "record" must be well-formed
        path.write_text('{"key": "x", "record": {"value": 9}, "extra": 1}')
        assert cache.get("scn", self.KEY) == {"value": 9}


class TestSweepCaching:
    def test_rerun_hits_for_every_trial(self, tmp_path):
        spec = get_scenario("platform-energy").spec
        cache = ResultCache(tmp_path)
        first = run_sweep(spec, cache=cache)
        again = run_sweep(spec, cache=cache)
        assert first.stats.cache_hits == 0
        assert again.stats.cache_hits == again.stats.num_trials
        assert again.stats.executed == 0
        assert again.records == first.records

    def test_resume_after_interrupt_runs_only_missing_trials(self, tmp_path):
        """A partial run's cached trials survive; the full sweep picks them up."""
        full = get_scenario("network-lifetime").spec
        partial = full.with_axis("report_interval_s", (60.0,))
        cache = ResultCache(tmp_path)
        head = run_sweep(partial, cache=cache)  # the "interrupted" prefix
        resumed = run_sweep(full, cache=cache)
        assert resumed.stats.cache_hits == head.stats.num_trials
        assert resumed.stats.executed == resumed.stats.num_trials - head.stats.num_trials
        # the cached records appear verbatim in the resumed results
        cached = [r for r in resumed.records if r["report_interval_s"] == 60.0]
        assert cached == head.records

    def test_no_cache_reexecutes(self, tmp_path):
        spec = get_scenario("platform-energy").spec
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert second.stats.executed == second.stats.num_trials
        assert second.records == first.records


class TestWritePath:
    """The lean atomic write: no torn or stray files, self-healing directories."""

    KEY = "ff" + "0" * 38

    @pytest.mark.parametrize("call", ["write", "replace"])
    def test_failed_put_leaves_no_record_and_no_temp(self, tmp_path, monkeypatch, call):
        cache = ResultCache(tmp_path)
        cache.put("scn", "aa" + "0" * 38, {"value": 1})  # the fan-out dir exists

        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(atomic.os, call, fail)
        with pytest.raises(OSError):
            cache.put("scn", self.KEY, {"value": 2})
        monkeypatch.undo()
        assert not cache.contains("scn", self.KEY)
        assert list(tmp_path.rglob("*.tmp")) == []
        assert cache.count() == 1 and cache.stats.writes == 1

    def test_put_after_cache_dir_is_deleted(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        cache.put("scn", self.KEY, {"value": 1})
        shutil.rmtree(cache_dir)
        path = cache.put("scn", self.KEY, {"value": 2})
        assert path == cache_dir / "scn" / "ff" / f"{self.KEY}.json"
        assert cache.get("scn", self.KEY) == {"value": 2}

    def test_two_threads_writing_distinct_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        errors: list[BaseException] = []

        def writer(thread: int) -> None:
            try:
                for i in range(500):
                    key = f"{i % 16:02x}{thread}{i:037d}"
                    cache.put("scn", key, {"thread": thread, "i": i})
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert list(tmp_path.rglob("*.tmp")) == []
        assert cache.count() == 1000
