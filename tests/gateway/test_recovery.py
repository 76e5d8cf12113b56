"""Gateway crash recovery: journal replay restores the durable picture.

These tests drive the journaled gateway with synthetic shards, kill it
(via the journal's ``on_append`` tripwire — the same mechanism the
chaos harness uses), and assert the recovery invariants directly:
landed results restore byte-identically and are never re-simulated,
unfinished work re-admits in arrival order, and supervision state
(breaker circuits, quarantine) replays deterministically.
"""

import builtins
import dataclasses
import json
import shutil
import tracemalloc
from pathlib import Path

import pytest

from repro.errors import GatewayError, JournalError
from repro.gateway import (
    Gateway,
    ResultCache,
    SyntheticService,
    WriteAheadJournal,
)
from repro.resilience.faults import SimulatedCrash
from repro.serve.jobs import JobSpec

TINY = {"n_particles": 24, "n_inactive": 0, "n_active": 2,
        "mode": "event", "pincell": True}


def specs_for(prefix, n, distinct=None):
    return [
        JobSpec(job_id=f"{prefix}{i:03d}",
                settings=dict(TINY, seed=i % (distinct or n)))
        for i in range(n)
    ]


def journaled_gateway(path, **kwargs):
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("service_factory", SyntheticService)
    return Gateway(journal_path=path, **kwargs)


def run_all(gateway, specs):
    for spec in specs:
        gateway.submit(spec)
    gateway.drain(deadline_s=30)
    return {r.job_id: r for r in gateway.ordered_results()}


class ScriptedService(SyntheticService):
    """A synthetic shard whose verdict is scripted by job id: ids that
    start with ``failed`` or ``poisoned`` land with that status."""

    def _fabricate(self, spec):
        result = super()._fabricate(spec)
        for status in ("failed", "poisoned"):
            if spec.job_id.startswith(status):
                return dataclasses.replace(result, status=status)
        return result


# -- Histories: each drives a journaled gateway to its death and returns
# -- it; ``make(**kwargs)`` builds the dead and the successor gateway alike.


def coalescing_history(make, tmp_path):
    first = make()
    run_all(first, specs_for("a", 6, distinct=4))
    assert first.counters["cache_hits"] == 2
    return first


def failed_leader_history(make, tmp_path):
    """The leader fails; its parked follower is promoted and runs."""
    first = make()
    leader, follower = specs_for("failed", 1) + specs_for("b", 1)
    run_all(first, [leader, follower] + specs_for("c", 3)[1:])
    assert first.counters["failed"] == 1
    assert first.results[follower.job_id].status == "done"
    assert first.results[follower.job_id].library_source != "result-cache"
    return first


def poison_streak_history(make, tmp_path):
    """Two poisoned jobs in a row on one shard trip its quarantine."""
    first = make()
    run_all(first, specs_for("poisoned", 2) + specs_for("a", 6)[2:])
    assert first.counters["poisoned"] == 2
    assert len(first.quarantined) == 1
    return first


def manual_quarantine_history(make, tmp_path):
    first = make(n_shards=3)
    specs = specs_for("a", 6)
    for spec in specs:
        first.submit(spec)  # shards not started: everything still parked
    assert first.quarantine_shard(first._job_shard[specs[0].job_id])
    assert first.counters["requeued"] == 6
    first.drain(deadline_s=30)
    return first


def disk_cache_history(make, tmp_path):
    """Every job is answered from a disk tier an earlier run filled."""
    warm = Gateway(n_shards=2, service_factory=SyntheticService,
                   result_cache=ResultCache(tmp_path / "cache"))
    run_all(warm, specs_for("w", 4))
    warm.shutdown()
    first = make(result_cache=ResultCache(tmp_path / "cache"))
    run_all(first, specs_for("a", 4))
    assert first.counters["cache_hits"] == 4
    return first


def mid_run_kill_history(make, tmp_path):
    """Three jobs land, then the gateway dies journaling the fourth's
    ``routed`` record — a kind with no transition, so the dead gateway's
    memory holds exactly what its journal says."""
    first = make()
    run_all(first, specs_for("a", 3))

    def tripwire(record):
        if record.kind == "routed":
            raise SimulatedCrash("die routing the late job")

    first.journal.on_append = tripwire
    with pytest.raises(SimulatedCrash):
        first.submit(JobSpec(job_id="late", settings=dict(TINY, seed=99)))
    return first


def mixed_hits_history(make, tmp_path):
    """Embedded and by-reference hits in one journal: two keys come from
    a disk tier an earlier run filled (first hit embeds, the repeat
    names it), two are computed here (their repeats name the leader)."""
    warm = Gateway(n_shards=2, service_factory=SyntheticService,
                   result_cache=ResultCache(tmp_path / "cache"))
    run_all(warm, specs_for("w", 2))
    warm.shutdown()
    first = make(result_cache=ResultCache(tmp_path / "cache"))
    run_all(first, specs_for("a", 8, distinct=4))
    assert first.counters["cache_hits"] == 6
    hits = WriteAheadJournal.scan(first.journal.path).by_kind("cache-hit")
    assert sorted("result" in r.data for r in hits) == 4 * [False] + 2 * [True]
    return first


def bounded_cache_history(make, tmp_path):
    """A one-entry cache: by-reference hits restore from ``results``,
    never from the cache, so replay does not care what was evicted."""
    first = make(result_cache=ResultCache(max_entries=1))
    run_all(first, specs_for("a", 6, distinct=3))
    assert first.counters["cache_hits"] == 3
    assert first.result_cache.evictions == 2
    return first


HISTORIES = {
    "coal": coalescing_history,
    "fail": failed_leader_history,
    "pois": poison_streak_history,
    "quar": manual_quarantine_history,
    "disk": disk_cache_history,
    "kill": mid_run_kill_history,
    "mixed": mixed_hits_history,
    "lru1": bounded_cache_history,
}

#: A journal the parent commit (0e20b97) wrote — every hit embeds its
#: result — and the dead gateway's ``journal_derived_state`` beside it.
FIXTURES = Path(__file__).parent / "fixtures"


def journal_derived_state(gateway):
    """Everything a journal determines (``coalesced`` is a transient
    scheduling fact, ``recovered`` the successor's own)."""
    cache = gateway.result_cache
    if cache.directory is None:
        held = cache.keys()
    else:
        # A disk tier's memory front is a read-through copy: the
        # directory is the state.
        held = [path.stem for path in cache.directory.glob("*.json")]
    return {
        "counters": {
            key: gateway.counters[key]
            for key in ("submitted", "completed", "cache_hits", "failed",
                        "poisoned", "requeued", "quarantines")
        },
        "payloads": {
            job_id: result.payload_json()
            for job_id, result in gateway.results.items()
        },
        # The whole document, accounting included (``to_json`` rather
        # than ``to_dict``: a failed job's NaN fields compare by bytes).
        "documents": {
            job_id: result.to_json()
            for job_id, result in gateway.results.items()
        },
        "order": list(gateway._order),
        "breaker": gateway.breaker.as_dict(),
        "quarantined": sorted(gateway.quarantined),
        "slots": gateway.admission.slots,
        "cache": sorted(held),
    }


class TestRecoverPreconditions:
    def test_needs_a_journal(self):
        gw = Gateway(n_shards=2, service_factory=SyntheticService)
        with pytest.raises(GatewayError, match="journal"):
            gw.recover()
        gw.shutdown()

    def test_refuses_a_used_gateway(self, tmp_path):
        gw = journaled_gateway(tmp_path / "j")
        run_all(gw, specs_for("a", 2))
        with pytest.raises(GatewayError, match="fresh"):
            gw.recover()
        gw.shutdown()

    def test_has_job_tracks_specs_and_results(self, tmp_path):
        gw = journaled_gateway(tmp_path / "j")
        spec = specs_for("a", 1)[0]
        assert not gw.has_job(spec.job_id)
        run_all(gw, [spec])
        assert gw.has_job(spec.job_id)
        gw.shutdown()


class TestCompletedRunRecovery:
    def test_restores_everything_without_resimulating(self, tmp_path):
        path = tmp_path / "j"
        first = journaled_gateway(path)
        reference = run_all(first, specs_for("a", 6, distinct=4))
        first.shutdown()

        second = journaled_gateway(path)
        summary = second.recover()
        assert summary["requeued"] == 0
        assert summary["restored"] == 6
        # Byte-identical payloads, straight from the journal: the
        # synthetic shards of the second gateway never ran a job.
        assert {
            job_id: r.payload_json()
            for job_id, r in second.results.items()
        } == {
            job_id: r.payload_json()
            for job_id, r in reference.items()
        }
        for shard in second.shards.values():
            assert shard.service.metrics.counter(
                "jobs_completed").value == 0
        assert second.unresolved() == 0
        second.shutdown()

    @pytest.mark.parametrize("history", HISTORIES)
    def test_counters_match_the_dead_incarnation(self, tmp_path, history):
        """Replay runs the transitions the live path ran, so after ANY
        history the successor holds the dead gateway's durable state."""

        def make(**kwargs):
            kwargs.setdefault("service_factory", ScriptedService)
            return journaled_gateway(tmp_path / "j", **kwargs)

        first = HISTORIES[history](make, tmp_path)
        first.shutdown(graceful=False)
        # Same construction as the dead gateway (a private result cache
        # is not shared: the successor gets an empty one).
        second = make(
            n_shards=first.n_shards,
            result_cache=ResultCache(
                first.result_cache.directory,
                max_entries=first.result_cache.max_entries,
            ),
        )
        second.recover()
        assert journal_derived_state(second) == journal_derived_state(first)
        second.shutdown(graceful=False)

    def test_a_journal_the_parent_commit_wrote_recovers(self, tmp_path):
        """All-embedded ``cache-hit`` records (the only shape before
        by-reference hits) restore the state their writer died with."""
        path = tmp_path / "j"
        shutil.copyfile(FIXTURES / "journal-0e20b97.log", path)
        hits = WriteAheadJournal.scan(path).by_kind("cache-hit")
        assert hits and all(set(r.data) == {"job_id", "result"} for r in hits)
        second = journaled_gateway(path)
        summary = second.recover()
        assert summary["requeued"] == 0 and summary["truncated_bytes"] == 0
        expected = json.loads(
            (FIXTURES / "journal-0e20b97.state.json").read_text()
        )
        assert journal_derived_state(second) == expected
        # The successor keeps writing: a repeat of restored physics names
        # the restored job instead of embedding a third copy.
        repeat = dataclasses.replace(second._specs["a000"], job_id="again")
        second.submit(repeat)
        last = WriteAheadJournal.scan(path).records[-1]
        assert last.kind == "cache-hit" and "result" not in last.data
        assert last.data["source"] in second.results
        second.shutdown()

    def test_memory_disk_and_restored_hits_are_byte_equal(self, tmp_path):
        """One key, three ways to a hit — the in-memory entry, a cold
        cache reading the disk entry, and a by-reference record replayed
        — give the same document, accounting included."""
        path, cache_dir = tmp_path / "j", tmp_path / "cache"
        first = journaled_gateway(path, result_cache=ResultCache(cache_dir))
        (leader,) = specs_for("a", 1)
        run_all(first, [leader])
        hit = dataclasses.replace(leader, job_id="hit", case_id="case-7")
        first.submit(hit)
        first.shutdown()
        memory = first.results["hit"]
        assert memory.library_source == "result-cache"
        disk = ResultCache(cache_dir).get(hit)
        second = journaled_gateway(path)  # volatile cache: journal only
        second.recover()
        restored = second.results["hit"]
        assert memory.to_json() == disk.to_json() == restored.to_json()
        # Restored hits share containers with their leader, as live ones
        # share them with the cache entry.
        assert restored.k_collision is second.results[leader.job_id].k_collision
        second.shutdown()

    def test_recovered_marker_is_journaled(self, tmp_path):
        path = tmp_path / "j"
        first = journaled_gateway(path)
        run_all(first, specs_for("a", 3))
        first.shutdown()
        second = journaled_gateway(path)
        second.recover()
        second.shutdown()
        markers = WriteAheadJournal.scan(path).by_kind("recovered")
        assert len(markers) == 1
        assert markers[0].data["restored"] == 3
        assert markers[0].data["pending"] == []


class TestReplayIsOneStreamingScan:
    def test_recover_and_the_next_submit_read_the_file_once(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "j"
        first = journaled_gateway(path)
        run_all(first, specs_for("a", 4))
        first.shutdown()
        opens = []
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            if Path(file) == path:
                opens.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(
            Path, "read_bytes",
            lambda self: pytest.fail(f"whole-file read of {self}"),
        )
        second = journaled_gateway(path)
        second.recover()  # appends its marker: the cursor must be placed
        second.submit(specs_for("z", 1)[0])
        # Opened once to replay, once to append; never read whole.
        assert opens == ["rb", "ab"]
        second.shutdown()
        assert [r.seq for r in WriteAheadJournal.scan(path).records] == \
            list(range(1, 16 + 1 + 2 + 1))  # run, marker, accepted + hit

    @pytest.mark.parametrize("n_jobs", [2048, 8192])
    def test_replay_transient_is_bounded_by_the_file_not_the_records(
        self, tmp_path, n_jobs
    ):
        """No list of parsed records and no copy of the file: what
        ``recover()`` allocates beyond the state it keeps is one frame
        and the read buffer — a constant, whatever the journal's size."""
        path = tmp_path / "j"
        first = journaled_gateway(path, capacity=n_jobs, max_class_share=1.0)
        run_all(first, specs_for("a", n_jobs, distinct=n_jobs * 3 // 4))
        first.shutdown()
        assert path.stat().st_size > 8 * 256 * 1024
        second = journaled_gateway(path, capacity=n_jobs, max_class_share=1.0)
        tracemalloc.start()
        try:
            second.recover()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(second.results) == n_jobs
        assert peak - retained <= 256 * 1024
        second.shutdown()


class TestJournalBytesAreTheContract:
    FIELDS = {
        "accepted": {"job_id", "cls", "spec"},
        "leader-elected": {"job_id", "key"},
        "routed": {"job_id", "shard", "front"},
        "completed": {"job_id", "status", "shard", "result"},
        "cache-hit": {"job_id", "source"},
        "cache-hit, embedded": {"job_id", "result"},
        "quarantined": {"shard", "requeued"},
        "recovered": {"replayed", "restored", "pending", "truncated_bytes"},
    }

    def kinds(self, path, start=0):
        records = WriteAheadJournal.scan(path).records[start:]
        for record in records:
            shape = record.kind
            if shape == "cache-hit" and "source" not in record.data:
                shape = "cache-hit, embedded"
            assert set(record.data) == self.FIELDS[shape], record
        return sorted(record.kind for record in records)

    def test_clean_run_journals_exactly_these_records(self, tmp_path):
        path = tmp_path / "j"
        first = journaled_gateway(path)
        run_all(first, specs_for("a", 6, distinct=4))
        first.shutdown()
        assert self.kinds(path) == sorted(
            4 * ["accepted", "leader-elected", "routed", "completed"]
            + 2 * ["accepted", "cache-hit"]
        )
        # Both hits name the leader whose ``completed`` record, earlier
        # in this file, carries their payload.
        scan = WriteAheadJournal.scan(path)
        landed = set()
        for record in scan.records:
            if record.kind == "cache-hit":
                assert record.data["source"] in landed, record
            if record.kind == "completed":
                landed.add(record.data["job_id"])
        second = journaled_gateway(path)
        second.recover()
        second.shutdown()
        assert self.kinds(path, start=20) == ["recovered"]

    def test_a_hit_from_an_earlier_runs_disk_entry_embeds(self, tmp_path):
        """No record in *this* journal carries the payload, so the first
        hit must; the repeat of the same physics then names that hit."""
        first = disk_cache_history(
            lambda **kw: journaled_gateway(tmp_path / "j", **kw), tmp_path
        )
        repeat = dataclasses.replace(first._specs["a000"], job_id="repeat")
        first.submit(repeat)
        first.shutdown()
        hits = WriteAheadJournal.scan(tmp_path / "j").by_kind("cache-hit")
        assert [set(r.data) for r in hits] == (
            4 * [{"job_id", "result"}] + [{"job_id", "source"}]
        )
        assert hits[-1].data["source"] == "a000"
        assert self.kinds(tmp_path / "j") == sorted(
            5 * ["accepted", "cache-hit"]
        )

    def test_quarantine_requeue_adds_routed_records_only(self, tmp_path):
        path = tmp_path / "j"
        gw = journaled_gateway(path)
        specs = specs_for("a", 3)
        for spec in specs:
            gw.submit(spec)  # shards not started: all three still parked
        assert gw.quarantine_shard(gw._job_shard[specs[0].job_id])
        assert self.kinds(path, start=9) == ["quarantined"] + 3 * ["routed"]
        requeues = WriteAheadJournal.scan(path).by_kind("routed")[3:]
        assert [r.data["front"] for r in requeues] == [True] * 3
        gw.shutdown(graceful=False)


class TestReplayFailsTypedOnExternalBytes:
    """A well-framed, digest-valid record the gateway never wrote."""

    RESULT = {"job_id": "x", "status": "done"}

    @pytest.mark.parametrize("kind, data", [
        ("accepted", {"job_id": "x", "cls": "priority-0"}),
        ("accepted", {"job_id": "x", "spec": {"fidelity": "no-such"}}),
        ("accepted", {"job_id": "x", "spec": "not an object"}),
        ("cache-hit", {"job_id": "x"}),
        ("cache-hit", {"job_id": "x", "result": {"no_such_field": 1}}),
        ("cache-hit", {"job_id": "x", "result": 7}),
        ("cache-hit", {"job_id": "x", "source": "x"}),
        ("completed", {"job_id": "x", "status": "done", "shard": 0}),
        ("completed", {"job_id": "x", "status": "done", "result": RESULT}),
        ("completed", {"job_id": "x", "shard": "zero", "result": RESULT}),
        ("quarantined", {"shard": 1}),
        ("quarantined", {"requeued": []}),
    ])
    def test_undecodable_record_names_its_seq_and_kind(
        self, tmp_path, kind, data
    ):
        path = tmp_path / "j"
        with WriteAheadJournal(path) as journal:
            journal.append("routed", job_id="x", shard=0, front=False)
            journal.append(kind, **data)
        gw = journaled_gateway(path)
        with pytest.raises(JournalError, match=f"{kind} record seq 2"):
            gw.recover()
        gw.shutdown()

    def test_a_source_the_journal_never_landed_is_typed(self, tmp_path):
        path = tmp_path / "j"
        spec = specs_for("a", 1)[0]
        with WriteAheadJournal(path) as journal:
            journal.append("accepted", job_id=spec.job_id, cls="priority-0",
                           spec=spec.to_dict())
            journal.append("cache-hit", job_id=spec.job_id, source="ghost")
        gw = journaled_gateway(path)
        with pytest.raises(JournalError, match="cache-hit record seq 2.*ghost"):
            gw.recover()
        gw.shutdown()

    def test_unknown_kinds_stay_ignored(self, tmp_path):
        path = tmp_path / "j"
        with WriteAheadJournal(path) as journal:
            journal.append("from-a-newer-gateway", anything=1)
        gw = journaled_gateway(path)
        assert gw.recover()["replayed"] == 1
        assert gw.counters["submitted"] == 0
        gw.shutdown()


class TestMidRunRecovery:
    def kill_after(self, path, boundary, specs):
        """Run until the journal reaches ``boundary`` records, then die."""
        gw = journaled_gateway(path)

        def tripwire(record):
            if record.seq == boundary:
                raise SimulatedCrash(f"die at {boundary}")

        gw.journal.on_append = tripwire
        with pytest.raises(SimulatedCrash):
            for spec in specs:
                gw.submit(spec)
            gw.drain(deadline_s=30)
        gw.shutdown(graceful=False)

    def test_pending_work_requeues_in_arrival_order(self, tmp_path):
        path = tmp_path / "j"
        specs = specs_for("a", 5)
        # Die right after the 3rd acceptance journals: jobs a000..a002
        # accepted, nothing landed.
        scan_before = None
        self.kill_after(path, 7, specs)
        scan_before = WriteAheadJournal.scan(path)
        accepted = [r.data["job_id"]
                    for r in scan_before.by_kind("accepted")]

        second = journaled_gateway(path)
        summary = second.recover()
        assert summary["requeued"] == len(accepted)
        # Re-admission preserved original arrival order.
        assert second._order[: len(accepted)] == accepted
        for spec in specs:
            if not second.has_job(spec.job_id):
                second.submit(spec)
        second.drain(deadline_s=30)
        assert sorted(second.results) == [s.job_id for s in specs]
        second.shutdown()

    def test_landed_results_survive_and_never_rerun(self, tmp_path):
        path = tmp_path / "j"
        specs = specs_for("b", 4)
        reference = {}
        clean = journaled_gateway(tmp_path / "ref")
        reference = {
            job_id: r.payload_json()
            for job_id, r in run_all(clean, specs).items()
        }
        clean.shutdown()

        # A clean run journals 4 jobs * 4 records = 16; die mid-drain.
        self.kill_after(path, 14, specs)
        landed_before = {
            r.data["job_id"]
            for r in WriteAheadJournal.scan(path).by_kind("completed")
        }
        assert 0 < len(landed_before) < 4

        second = journaled_gateway(path)
        second.recover()
        for spec in specs:
            if not second.has_job(spec.job_id):
                second.submit(spec)
        second.drain(deadline_s=30)
        payloads = {
            job_id: r.payload_json()
            for job_id, r in second.results.items()
        }
        assert payloads == reference
        # Exactly-once in the journal: one landing per job, ever.
        landings = {}
        for record in WriteAheadJournal.scan(path).records:
            if record.kind in ("completed", "cache-hit"):
                job_id = record.data["job_id"]
                landings[job_id] = landings.get(job_id, 0) + 1
        assert all(n == 1 for n in landings.values())
        second.shutdown()

    def test_exempt_admission_bypasses_capacity(self, tmp_path):
        path = tmp_path / "j"
        specs = specs_for("c", 3)
        self.kill_after(path, 9, specs)  # 3 accepted, none landed
        # Recover into a gateway whose admission would refuse 3 jobs.
        second = journaled_gateway(path, capacity=1)
        summary = second.recover()
        assert summary["requeued"] == 3
        second.drain(deadline_s=30)
        assert len(second.results) == 3
        second.shutdown()


class TestBreakerAndQuarantineReplay:
    def test_breaker_state_replays_from_completed_records(self, tmp_path):
        path = tmp_path / "j"
        first = journaled_gateway(path)
        run_all(first, specs_for("a", 4))
        # Every synthetic job lands "done": the breakers saw successes.
        assert first.breaker.failures("shard-0") == 0
        first.shutdown()
        second = journaled_gateway(path)
        second.recover()
        assert second.breaker.as_dict() == first.breaker.as_dict()
        second.shutdown()

    def test_quarantine_replays_and_excludes_the_shard(self, tmp_path):
        path = tmp_path / "j"
        first = journaled_gateway(path, n_shards=3)
        run_all(first, specs_for("a", 6))
        assert first.quarantine_shard(1)
        first.shutdown()
        second = journaled_gateway(path, n_shards=3)
        second.recover()
        assert second.quarantined == {1}
        assert second.counters["quarantines"] == 1
        assert second.admission.slots == 2  # healthy shards only
        # New work routes around the dead shard.
        extra = specs_for("z", 4)
        for spec in extra:
            second.submit(spec)
        second.drain(deadline_s=30)
        assert all(
            second._job_shard[s.job_id] != 1
            for s in extra
            if s.job_id in second._job_shard
        )
        second.shutdown()
