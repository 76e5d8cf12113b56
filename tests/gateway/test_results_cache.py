"""Result-cache churn: eviction order, concurrent inserts, poison refusal."""

import json
import threading

import pytest

from repro.errors import GatewayError
from repro.gateway.results import ResultCache
from repro.serve.jobs import JobResult, JobSpec

SETTINGS = {"n_particles": 24, "n_inactive": 0, "n_active": 2,
            "mode": "event", "pincell": True}


def spec(seed=1, job_id=None, **kwargs):
    return JobSpec(
        job_id=job_id or f"job-seed{seed}",
        settings=dict(SETTINGS, seed=seed),
        **kwargs,
    )


def done_result(s, k=1.0):
    return JobResult(
        job_id=s.job_id,
        status="done",
        mode="event",
        n_particles=24,
        n_batches=2,
        k_effective=k,
        k_std_err=0.01,
        k_collision=[k, k + 0.001],
        entropy=[0.5, 0.6],
        counters={"lookups": 7},
        settings_fingerprint=s.settings_fingerprint(),
        library_fingerprint=s.library_fingerprint(),
        worker_id=3,
        service_seconds=1.25,
        library_source="built",
    )


class TestHitSemantics:
    def test_miss_then_hit(self):
        cache = ResultCache()
        s = spec(seed=1)
        assert cache.get(s) is None
        assert cache.put(s, done_result(s))
        hit = cache.get(s)
        assert hit is not None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_hit_payload_is_byte_identical(self):
        """The physics payload survives the cache bit-for-bit."""
        cache = ResultCache()
        s = spec(seed=2)
        original = done_result(s, k=1.0123456789012345)
        cache.put(s, original)
        hit = cache.get(s)
        assert hit.payload_json() == original.payload_json()

    def test_hit_restamps_scheduling_identity(self):
        """Identity fields come from the *requesting* spec; accounting is
        zeroed and the source marked result-cache."""
        cache = ResultCache()
        s1 = spec(seed=3, job_id="first")
        cache.put(s1, done_result(s1))
        s2 = spec(seed=3, job_id="second", case_id="c1", suite_id="sw",
                  scenario_fingerprint="fp")
        hit = cache.get(s2)
        assert hit.job_id == "second"
        assert hit.case_id == "c1"
        assert hit.suite_id == "sw"
        assert hit.scenario_fingerprint == "fp"
        assert hit.library_source == "result-cache"
        assert hit.worker_id == -1
        assert hit.service_seconds == 0.0

    def test_put_keeps_the_callers_document_and_hits_share_it(self):
        """The stated contract: ``put(doc=)`` stores that very dict (no
        second encoding), and what ``get`` hands out shares its traces
        and counters with the entry — results are read-only."""
        cache = ResultCache()
        s = spec(seed=6)
        result = done_result(s)
        doc = result.to_dict()
        assert cache.put(s, result, s.cache_key(), doc)
        first = cache.get(s, s.cache_key())
        second = cache.get(spec(seed=6, job_id="other"))
        assert first.k_collision is doc["k_collision"] is second.k_collision
        assert first.counters is doc["counters"]
        assert doc["job_id"] == s.job_id and second.job_id == "other"
        # Without a document the cache builds its own copy of the result.
        s2 = spec(seed=7)
        r2 = done_result(s2)
        cache.put(s2, r2)
        assert cache.get(s2).k_collision is not r2.k_collision
        assert cache.get(s2).to_json() == ResultCache.restamp(
            r2.to_dict(), s2
        ).to_json()

    def test_scheduling_metadata_does_not_fragment_keys(self):
        """Same physics under different priority/deadline/job-id: one key."""
        a = spec(seed=4, job_id="a", priority=5)
        b = spec(seed=4, job_id="b", deadline_s=60.0)
        assert a.cache_key() == b.cache_key()
        assert spec(seed=5).cache_key() != a.cache_key()


class TestEvictionChurn:
    def test_rejects_nonpositive_bound(self):
        with pytest.raises(GatewayError, match="max_entries"):
            ResultCache(max_entries=0)

    def test_lru_eviction_order(self):
        """A hit refreshes recency; the coldest entry leaves first."""
        cache = ResultCache(max_entries=2)
        s1, s2, s3 = spec(seed=1), spec(seed=2), spec(seed=3)
        cache.put(s1, done_result(s1))
        cache.put(s2, done_result(s2))
        cache.get(s1)  # refresh s1: s2 is now coldest
        cache.put(s3, done_result(s3))
        assert cache.stats()["evictions"] == 1
        assert cache.get(s2) is None
        assert cache.get(s1) is not None
        assert cache.get(s3) is not None
        assert cache.keys() == [s1.cache_key(), s3.cache_key()]

    def test_churn_keeps_bound(self):
        cache = ResultCache(max_entries=4)
        for seed in range(20):
            s = spec(seed=seed)
            cache.put(s, done_result(s))
        stats = cache.stats()
        assert stats["entries"] == 4
        assert stats["evictions"] == 16
        # Survivors are exactly the four most recent inserts.
        assert all(cache.get(spec(seed=s)) for s in range(16, 20))


class TestConcurrentInsert:
    def test_same_key_from_two_shards_first_wins(self):
        """Two shards finishing identical specs race put(): exactly one
        insert lands, and the cache never double-counts."""
        cache = ResultCache()
        s = spec(seed=9)
        result = done_result(s)
        outcomes = []
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            outcomes.append(cache.put(s, result))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == [False, True]
        assert cache.stats()["insertions"] == 1
        assert len(cache) == 1


class TestPoisonRefusal:
    @pytest.mark.parametrize("status", ["failed", "expired", "poisoned"])
    def test_non_done_never_cached(self, status):
        cache = ResultCache()
        s = spec(seed=11)
        bad = JobResult.failure(s, "worker kept dying", status=status)
        assert cache.put(s, bad) is False
        assert cache.get(s) is None
        assert cache.stats()["rejected"] == 1
        assert len(cache) == 0


class TestDiskTier:
    def test_survives_a_new_cache_instance(self, tmp_path):
        s = spec(seed=21)
        original = done_result(s, k=0.987654321098765)
        ResultCache(tmp_path / "rc").put(s, original)
        fresh = ResultCache(tmp_path / "rc")
        hit = fresh.get(s)
        assert hit is not None
        assert hit.payload_json() == original.payload_json()
        assert fresh.stats()["hits"] == 1

    def test_disk_entry_is_exact_float_json(self, tmp_path):
        s = spec(seed=22)
        cache = ResultCache(tmp_path / "rc")
        result = done_result(s, k=1.0000000000000002)
        cache.put(s, result)
        (path,) = sorted((tmp_path / "rc").glob("*.json"))
        assert path.stem == s.cache_key()
        envelope = json.loads(path.read_text())
        assert envelope["format"] == 2
        stored = JobResult.from_dict(envelope["result"])
        assert stored.k_effective == result.k_effective

    def test_memory_eviction_keeps_disk(self, tmp_path):
        cache = ResultCache(tmp_path / "rc", max_entries=1)
        s1, s2 = spec(seed=31), spec(seed=32)
        cache.put(s1, done_result(s1))
        cache.put(s2, done_result(s2))  # evicts s1 from memory
        assert cache.stats()["entries"] == 1
        assert cache.get(s1) is not None  # reloaded from the disk tier

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        s = spec(seed=41)
        (tmp_path / "rc" / f"{s.cache_key()}.json").write_text("{broken")
        assert cache.get(s) is None

    def test_legacy_format1_entry_is_quarantined(self, tmp_path):
        s = spec(seed=45)
        cache = ResultCache(tmp_path / "rc")
        # A pre-checksum cache wrote bare result JSON: no digest, so
        # nothing to verify it against — a miss, never an unverified hit.
        path = tmp_path / "rc" / f"{s.cache_key()}.json"
        path.write_text(done_result(s, k=1.01).to_json())
        assert cache.get(s) is None
        assert cache.stats()["corrupt_entries"] == 1
        assert path.with_suffix(".corrupt").exists()

    def test_duplicate_put_against_disk_is_refused(self, tmp_path):
        s = spec(seed=51)
        ResultCache(tmp_path / "rc").put(s, done_result(s))
        other = ResultCache(tmp_path / "rc")  # cold memory, warm disk
        assert other.put(s, done_result(s)) is False
        assert other.stats()["insertions"] == 0


class TestAdversarialDiskEntries:
    """Every damaged-entry shape quarantines; none ever raises."""

    def warm_path(self, tmp_path, s):
        ResultCache(tmp_path / "rc").put(s, done_result(s))
        return tmp_path / "rc" / f"{s.cache_key()}.json"

    def assert_quarantined(self, tmp_path, s, cache):
        assert cache.get(s) is None
        assert cache.corrupt_entries == 1
        assert cache.stats()["corrupt_entries"] == 1
        path = tmp_path / "rc" / f"{s.cache_key()}.json"
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        # The quarantined name is out of the cache namespace: the next
        # lookup is an honest miss, not a crash loop.
        assert cache.get(s) is None

    def test_truncated_entry(self, tmp_path):
        s = spec(seed=71)
        path = self.warm_path(tmp_path, s)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        self.assert_quarantined(tmp_path, s, ResultCache(tmp_path / "rc"))

    def test_flipped_byte_fails_the_digest(self, tmp_path):
        s = spec(seed=72)
        path = self.warm_path(tmp_path, s)
        data = bytearray(path.read_bytes())
        # Flip one bit inside a float digit of the stored result: the
        # JSON stays valid, only the checksum can catch it.
        k_pos = data.find(b'"k_effective"')
        assert k_pos > 0
        digit = data.find(b"1", k_pos)
        data[digit] = ord("2")
        path.write_bytes(bytes(data))
        self.assert_quarantined(tmp_path, s, ResultCache(tmp_path / "rc"))

    def test_empty_file(self, tmp_path):
        s = spec(seed=73)
        path = self.warm_path(tmp_path, s)
        path.write_bytes(b"")
        self.assert_quarantined(tmp_path, s, ResultCache(tmp_path / "rc"))

    def test_wrong_format_number(self, tmp_path):
        s = spec(seed=74)
        path = self.warm_path(tmp_path, s)
        doc = json.loads(path.read_text())
        doc["format"] = 99
        path.write_text(json.dumps(doc))
        self.assert_quarantined(tmp_path, s, ResultCache(tmp_path / "rc"))

    def test_non_object_entry(self, tmp_path):
        s = spec(seed=75)
        path = self.warm_path(tmp_path, s)
        path.write_text('["not", "an", "object"]')
        self.assert_quarantined(tmp_path, s, ResultCache(tmp_path / "rc"))

    def test_concurrent_reader_during_quarantine(self, tmp_path):
        """Two cold caches race over one corrupt entry: the loser of the
        rename sees a vanished file — a miss, never an exception."""
        s = spec(seed=76)
        path = self.warm_path(tmp_path, s)
        path.write_text("{torn")
        first = ResultCache(tmp_path / "rc")
        second = ResultCache(tmp_path / "rc")
        results = []
        errors = []
        barrier = threading.Barrier(2)

        def race(cache):
            barrier.wait()
            try:
                results.append(cache.get(s))
            except Exception as exc:  # the one thing that must not happen
                errors.append(exc)

        threads = [
            threading.Thread(target=race, args=(c,))
            for c in (first, second)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert results == [None, None]
        # At least the rename winner counted; the loser either saw the
        # corrupt bytes too (counted) or found the file already moved
        # (an ordinary miss) — both are legal, an exception is not.
        assert 1 <= first.corrupt_entries + second.corrupt_entries <= 2
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_rewrite_after_quarantine_restores_service(self, tmp_path):
        s = spec(seed=77)
        path = self.warm_path(tmp_path, s)
        path.write_text("{torn")
        cache = ResultCache(tmp_path / "rc")
        assert cache.get(s) is None
        assert cache.put(s, done_result(s))
        assert cache.get(s) is not None


class TestStats:
    def test_hit_rate(self):
        cache = ResultCache()
        s = spec(seed=61)
        cache.get(s)
        cache.put(s, done_result(s))
        cache.get(s)
        stats = cache.stats()
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert json.dumps(stats)  # export-safe
