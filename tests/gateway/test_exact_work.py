"""Exact work on the gateway's hot path: counts that repeat to the digit.

Each spec and each result crosses the gateway once — built once,
encoded once, held once.  A timing cannot pin that on a shared machine;
a call count can, and a change that makes a landing serialise twice (or
replay re-serialise anything) moves one of these by a whole number.

Only calls on the *main* thread are counted: the gateway's own work
runs there, the synthetic shards' (which hash and key specs to
fabricate results) on their pump threads.

What a recovered gateway *holds* is pinned the same way: the key
objects of its restored documents do not grow with the journal, and its
``tracemalloc`` bytes per job stay at the live gateway's.
"""

import gc
import json
import threading
import tracemalloc

import pytest

from repro.gateway import Gateway, SyntheticService, WriteAheadJournal
from repro.serve.jobs import JobResult, JobSpec

TINY = {"n_particles": 24, "n_inactive": 0, "n_active": 2,
        "mode": "event", "pincell": True}

#: 6 jobs over 4 physics identities: 4 leaders run, 2 followers hit.
N_JOBS, N_DISTINCT = 6, 4


def specs_for(prefix):
    return [
        JobSpec(job_id=f"{prefix}{i}", settings=dict(TINY, seed=i % N_DISTINCT))
        for i in range(N_JOBS)
    ]


class Calls:
    """Main-thread call counts (and first arguments) of patched callables."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.seen: dict[str, list] = {}

    def watch(self, owner, attr):
        original = getattr(owner, attr)
        seen = self.seen.setdefault(f"{owner.__name__}.{attr}", [])

        def counted(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                seen.append(args[0] if args else None)
            return original(*args, **kwargs)

        self.monkeypatch.setattr(owner, attr, counted)

    def count(self, name) -> int:
        return len(self.seen[name])

    def reset(self) -> None:
        for seen in self.seen.values():
            seen.clear()


@pytest.fixture()
def calls(monkeypatch):
    calls = Calls(monkeypatch)
    calls.watch(json, "dumps")
    calls.watch(json, "loads")
    calls.watch(JobResult, "to_dict")
    calls.watch(JobSpec, "to_dict")
    calls.watch(JobSpec, "cache_key")
    return calls


def gateway(path):
    return Gateway(2, service_factory=SyntheticService, journal_path=path)


def journaled_run(path, n) -> Gateway:
    """``n`` cold jobs over ``3n/4`` physics identities, then ``n`` warm
    repeats, through a journaled gateway (shut down on return)."""
    gw = Gateway(2, capacity=2 * n, max_class_share=1.0,
                 service_factory=SyntheticService, journal_path=path)
    for prefix in ("c", "w"):
        for i in range(n):
            gw.submit(JobSpec(job_id=f"{prefix}{i:04d}",
                              settings=dict(TINY, seed=i % (n * 3 // 4))))
        gw.drain(deadline_s=60)
    gw.shutdown()
    return gw


def recovered(path) -> Gateway:
    gw = gateway(path)
    gw.recover()
    gw.shutdown()
    return gw


def held_bytes(build):
    """``(object, tracemalloc bytes still held once build() returned it)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def key_census(gw) -> int:
    """Distinct ``str`` objects used as keys across the restored specs'
    settings and the result-cache entries."""
    docs = [spec.settings for spec in gw._specs.values()]
    docs += gw.result_cache._entries.values()
    return len({id(key) for doc in docs for key in doc})


def result_dumps(calls) -> int:
    """``json.dumps`` calls whose document carries a whole result."""
    return sum(
        isinstance(doc, dict) and "result" in doc
        for doc in calls.seen["json.dumps"]
    )


class TestLivePath:
    def test_submit_keys_each_job_once_and_landing_not_at_all(
        self, tmp_path, calls
    ):
        gw = gateway(tmp_path / "j")
        for spec in specs_for("a"):
            gw.submit(spec)  # shards start with the first poll
        assert calls.count("JobSpec.cache_key") == N_JOBS
        assert calls.count("JobSpec.to_dict") == N_JOBS  # accepted records
        calls.reset()
        gw.drain(deadline_s=30)
        assert calls.count("JobSpec.cache_key") == 0
        gw.shutdown()

    def test_one_landing_is_one_document_encoded_once(self, tmp_path, calls):
        gw = gateway(tmp_path / "j")
        for spec in specs_for("a"):
            gw.submit(spec)
        calls.reset()
        gw.drain(deadline_s=30)
        assert gw.counters["cache_hits"] == N_JOBS - N_DISTINCT
        # One to_dict and one encode per *computed* landing; a hit names
        # its source, so it builds and encodes no result at all.
        assert calls.count("JobResult.to_dict") == N_DISTINCT
        assert result_dumps(calls) == N_DISTINCT
        assert calls.count("json.dumps") == N_JOBS  # one record per landing
        assert calls.count("json.loads") == 0
        # The all-hit resubmission: nothing is built, nothing parsed.
        calls.reset()
        for spec in specs_for("w"):
            gw.submit(spec)
        gw.drain(deadline_s=30)
        assert gw.counters["cache_hits"] == 2 * N_JOBS - N_DISTINCT
        assert calls.count("JobSpec.to_dict") == N_JOBS  # accepted records
        assert calls.count("JobResult.to_dict") == 0
        assert result_dumps(calls) == 0
        assert calls.count("json.loads") == 0
        assert calls.count("JobSpec.cache_key") == N_JOBS
        gw.shutdown()

    def test_a_volatile_gateway_builds_the_document_once_too(self, calls):
        gw = Gateway(2, service_factory=SyntheticService)
        for spec in specs_for("a"):
            gw.submit(spec)
        calls.reset()
        gw.drain(deadline_s=30)
        assert calls.count("JobResult.to_dict") == N_DISTINCT
        assert calls.count("json.dumps") == calls.count("json.loads") == 0
        gw.shutdown()


class TestReplay:
    def test_replay_parses_each_record_once_and_encodes_nothing(
        self, tmp_path, calls
    ):
        path = tmp_path / "j"
        first = gateway(path)
        for spec in specs_for("a") + specs_for("w"):
            first.submit(spec)
        first.drain(deadline_s=30)
        first.shutdown()
        n_records = len(WriteAheadJournal.scan(path).records)
        assert n_records == 4 * N_DISTINCT + 2 * (2 * N_JOBS - N_DISTINCT)

        second = gateway(path)
        calls.reset()
        summary = second.recover()
        assert summary["replayed"] == n_records
        assert summary["restored"] == 2 * N_JOBS
        assert calls.count("json.loads") == n_records
        # The ``recovered`` marker is the one thing replay writes; keys
        # come from the ``leader-elected`` records, documents from the
        # ``completed`` ones.
        assert [doc["kind"] for doc in calls.seen["json.dumps"]] == ["recovered"]
        assert calls.count("JobResult.to_dict") == 0
        assert calls.count("JobSpec.to_dict") == 0
        assert calls.count("JobSpec.cache_key") == 0
        # ... and the cache it seeded answers without further work.
        assert len(second.result_cache) == N_DISTINCT
        second.shutdown()

    def test_restored_documents_hold_one_key_per_field_name(self, tmp_path):
        """Decoded documents keep the canonical name objects, so the keys
        a recovered gateway holds do not grow with its journal; and each
        replayed landing is held once, as its result's own field dict."""
        census = []
        for n in (32, 128):
            live = journaled_run(tmp_path / f"j{n}", n)
            gw = recovered(tmp_path / f"j{n}")
            assert len(gw.results) == 2 * n
            assert len(gw._payload_job) == len(gw.result_cache) == n * 3 // 4
            for key, job_id in gw._payload_job.items():
                assert gw.result_cache._entries[key] is vars(gw.results[job_id])
            # A hit the recovered cache serves is the one served before.
            for spec in live._specs.values():
                assert gw.result_cache.get(spec).payload_json() == (
                    live.results[spec.job_id].payload_json()
                )
            census.append(key_census(gw))
        assert census[0] == census[1]

    def test_a_recovered_job_costs_what_a_live_one_did(self, tmp_path):
        """Bytes held per job: the recovered gateway holds no more than
        the live one that wrote the journal (its specs, results and
        cache entries included), within 10 %."""
        n = 256
        path = tmp_path / "j"
        live, live_bytes = held_bytes(lambda: journaled_run(path, n))
        second, recovered_bytes = held_bytes(lambda: recovered(path))
        assert len(live.results) == len(second.results) == 2 * n
        live_per_job = live_bytes / (2 * n)
        recovered_per_job = recovered_bytes / (2 * n)
        assert recovered_per_job <= 1.1 * live_per_job, (
            f"recovered {recovered_per_job:.0f} B/job vs live "
            f"{live_per_job:.0f} B/job"
        )
