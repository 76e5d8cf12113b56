"""Gateway end to end: routing, caching, supervision, determinism.

Synthetic-service tests cover the orchestration mechanics at speed; the
real-worker tests pin the tier's headline guarantee — results through
the gateway are byte-identical to direct simulation, through cache hits
and mid-job shard eviction alike — on tiny pin-cell jobs.
"""

import asyncio

import pytest

from repro.data.library import build_library
from repro.errors import JobError, QueueFullError
from repro.gateway import Gateway, ResultCache, SyntheticService
from repro.serve.jobs import JobResult, JobSpec
from repro.transport.simulation import Simulation

TINY = {"n_particles": 24, "n_inactive": 0, "n_active": 2,
        "mode": "event", "pincell": True}


def tiny_spec(job_id, seed=5, temperature=None, **kwargs):
    return JobSpec(job_id=job_id, settings=dict(TINY, seed=seed),
                   library_temperature=temperature, **kwargs)


def synth_specs(prefix, n, distinct=4):
    return [
        JobSpec(job_id=f"{prefix}{i:03d}",
                settings=dict(TINY, seed=i % distinct))
        for i in range(n)
    ]


def direct_payload(spec):
    """The bit-identical reference: the same spec run without a service."""
    library = build_library(spec.model, spec.library_config())
    result = Simulation(library, spec.to_settings()).run()
    return JobResult.from_simulation(spec, result).payload_json()


class TestSyntheticOrchestration:
    def test_run_resolves_everything_in_order(self):
        specs = synth_specs("a", 40)
        gw = Gateway(n_shards=3, workers_per_shard=2,
                     service_factory=SyntheticService)
        with gw:
            results = gw.run(specs, deadline_s=30)
        assert [r.job_id for r in results] == [s.job_id for s in specs]
        assert all(r.status == "done" for r in results)
        assert gw.unresolved() == 0

    def test_duplicate_job_id_rejected(self):
        gw = Gateway(n_shards=1, service_factory=SyntheticService)
        gw.submit(tiny_spec("dup"))
        with pytest.raises(JobError, match="duplicate"):
            gw.submit(tiny_spec("dup"))
        gw.shutdown()

    def test_in_run_cache_hits_for_repeat_physics(self):
        """40 jobs over 4 physics identities: the cache absorbs repeats."""
        specs = synth_specs("b", 40, distinct=4)
        gw = Gateway(n_shards=2, service_factory=SyntheticService)
        with gw:
            results = gw.run(specs, deadline_s=30)
        assert len(results) == 40
        assert gw.counters["cache_hits"] >= 40 - 2 * 4
        by_key = {}
        for s, r in zip(specs, results):
            by_key.setdefault(s.cache_key(), set()).add(r.payload_json())
        # Every repeat of a physics identity got identical bytes.
        assert all(len(payloads) == 1 for payloads in by_key.values())

    def test_resubmission_is_all_cache_hits_and_byte_identical(self):
        shared = ResultCache()
        cold = Gateway(n_shards=2, service_factory=SyntheticService,
                       result_cache=shared)
        with cold:
            first = cold.run(synth_specs("c", 16), deadline_s=30)
        warm = Gateway(n_shards=2, service_factory=SyntheticService,
                       result_cache=shared)
        with warm:
            second = warm.run(synth_specs("d", 16), deadline_s=30)
        assert warm.counters["cache_hits"] == 16
        # No shard saw a single job on the warm pass.
        agg = warm.metrics_summary()["aggregate"]
        assert agg["jobs_completed"] == 0
        assert sorted(r.payload_json() for r in first) == sorted(
            r.payload_json() for r in second
        )

    def test_fingerprint_affinity_one_shard_per_library(self):
        specs = [
            JobSpec(job_id=f"t{i}", settings=dict(TINY, seed=1),
                    library_temperature=float(300 + 50 * (i % 4)))
            for i in range(16)
        ]
        gw = Gateway(n_shards=3, service_factory=SyntheticService)
        owners = {}
        for s in specs:
            fp = s.library_fingerprint()
            shard = gw.ring.shard_for(fp)
            owners.setdefault(fp, set()).add(shard)
        assert all(len(shards) == 1 for shards in owners.values())
        with gw:
            gw.run(specs, deadline_s=30)
        # Each fingerprint was built exactly once, tier-wide.
        agg = gw.metrics_summary()["aggregate"]
        assert agg["library_builds"] == len(owners)

    def test_admission_backpressure_is_typed_and_recoverable(self):
        gw = Gateway(n_shards=1, capacity=2, max_class_share=1.0,
                     service_factory=SyntheticService)
        gw.submit(tiny_spec("p1", seed=1))
        gw.submit(tiny_spec("p2", seed=2))
        with pytest.raises(QueueFullError) as exc:
            gw.submit(tiny_spec("p3", seed=3))
        assert exc.value.retry_after_s > 0
        with gw:
            gw.drain(deadline_s=30)
            gw.submit(tiny_spec("p3", seed=3))  # capacity freed
            gw.drain(deadline_s=30)
        assert len(gw.results) == 3

    def test_urgent_job_overtakes_a_backlog_deeper_than_64(self):
        """Everything the gateway admits reaches the shard's priority
        queue; a FIFO overflow inbox behind a 64-deep service queue used
        to hold the urgent job back as entry 17 of 17."""
        gw = Gateway(n_shards=1, capacity=256, max_class_share=1.0)
        for i in range(80):
            gw.submit(tiny_spec(f"low{i:03d}", seed=i, priority=0))
        gw.submit(tiny_spec("urgent", seed=999, priority=9))
        shard = gw.shards[0]
        shard._feed()
        assert not shard._inbox and len(shard.service.queue) == 81
        assert shard.service.queue.get(timeout=0.0).spec.job_id == "urgent"
        gw.shutdown(graceful=False)

    def test_class_fairness_reserves_headroom(self):
        gw = Gateway(n_shards=1, capacity=4, max_class_share=0.5,
                     service_factory=SyntheticService)
        gw.submit(tiny_spec("h1", seed=1, priority=9))
        gw.submit(tiny_spec("h2", seed=2, priority=9))
        with pytest.raises(QueueFullError, match="fairness cap"):
            gw.submit(tiny_spec("h3", seed=3, priority=9))
        gw.submit(tiny_spec("l1", seed=4, priority=0))
        with gw:
            gw.drain(deadline_s=30)
        assert len(gw.results) == 3

    def test_stream_drives_a_full_drain_politely(self):
        """The async feeder rides out a capacity far below the job count."""
        specs = synth_specs("s", 30, distinct=30)
        gw = Gateway(n_shards=2, capacity=4, max_class_share=1.0,
                     service_factory=SyntheticService)

        async def collect():
            events = []
            async for event in gw.stream(specs, deadline_s=30):
                events.append(event)
            return events

        with gw:
            events = asyncio.run(collect())
        done = [e for e in events if e["kind"] == "done"]
        assert len(done) == 30
        assert {e["job_id"] for e in done} == {s.job_id for s in specs}
        assert any(e["kind"] == "progress" for e in events)

    def test_min_one_shard_floor(self):
        gw = Gateway(n_shards=1, service_factory=SyntheticService)
        assert gw.quarantine_shard(0) is False
        assert gw.counters["quarantines_skipped"] == 1
        assert gw.quarantined == set()

    def test_quarantine_requeues_unstarted_work(self):
        """Jobs parked on a quarantined shard re-route and complete."""
        specs = synth_specs("q", 8, distinct=8)
        gw = Gateway(n_shards=2, service_factory=SyntheticService)
        for s in specs:
            gw.submit(s)  # routed but shards not started: all still parked
        victim = next(iter({gw._job_shard[s.job_id] for s in specs}))
        assert gw.quarantine_shard(victim) is True
        assert gw.counters["requeued"] > 0
        with gw:
            gw.drain(deadline_s=30)
        assert all(
            gw.results[s.job_id].status == "done" for s in specs
        )
        assert gw.metrics_summary()["gateway"]["health"][victim][
            "status"] == "dead"


class TestRealWorkers:
    def test_payloads_match_direct_simulation(self, tmp_path):
        """The headline guarantee, plus overhead and progress accounting."""
        spec = tiny_spec("real1", seed=7)
        gw = Gateway(n_shards=1, workers_per_shard=1,
                     cache_dir=str(tmp_path / "libs"))

        async def collect():
            events = []
            async for event in gw.stream([spec], deadline_s=90):
                events.append(event)
            return events

        with gw:
            events = asyncio.run(collect())
        result = gw.results["real1"]
        assert result.status == "done"
        assert result.payload_json() == direct_payload(spec)
        progress = [e for e in events if e["kind"] == "progress"]
        assert len(progress) == TINY["n_inactive"] + TINY["n_active"]
        assert all(e["job_id"] == "real1" for e in progress)
        summary = gw.metrics_summary()
        assert summary["aggregate"]["dispatch_overhead_fraction"] < 0.05
        assert summary["gateway"]["health"][0]["batches"] == len(progress)

    def test_cache_hit_is_byte_identical_to_recomputation(self, tmp_path):
        """Identical physics twice in one drain: second is a cache hit
        whose payload equals the computed one byte for byte."""
        first = tiny_spec("cold", seed=11)
        second = tiny_spec("warm", seed=11)  # same physics, new identity
        gw = Gateway(n_shards=1, cache_dir=str(tmp_path / "libs"))
        with gw:
            gw.run([first], deadline_s=90)
            gw.run([second], deadline_s=90)
        cold, warm = gw.results["cold"], gw.results["warm"]
        assert warm.library_source == "result-cache"
        assert gw.counters["cache_hits"] == 1
        assert warm.payload_json() == cold.payload_json()
        assert warm.payload_json() == direct_payload(second)
        # The shard only ever saw the first job.
        assert gw.metrics_summary()["aggregate"]["jobs_completed"] == 1

    def test_shard_killed_mid_job_requeues_byte_identically(self, tmp_path):
        """Evict a shard while its worker is mid-transport: the job lands
        on the survivor and produces the exact same payload."""
        spec = JobSpec(job_id="victim",
                       settings=dict(TINY, seed=13, n_active=6),
                       library_temperature=450.0)
        gw = Gateway(n_shards=2, cache_dir=str(tmp_path / "libs"))
        owner = gw.ring.shard_for(spec.library_fingerprint())
        survivor = 1 - owner
        with gw:
            gw.submit(spec)
            # Wait until the worker is demonstrably mid-job (a transport
            # batch has completed), then kill the shard under it.
            saw_progress = False
            for _ in range(1200):
                for event in gw.poll(timeout=0.05):
                    if (event["kind"] == "progress"
                            and event["job_id"] == "victim"):
                        saw_progress = True
                if saw_progress:
                    break
            assert saw_progress, "job never started on the owner shard"
            assert gw.quarantine_shard(owner) is True
            gw.drain(deadline_s=120)
        result = gw.results["victim"]
        assert result.status == "done"
        assert gw.counters["requeued"] == 1
        assert gw._job_shard["victim"] == survivor
        assert result.payload_json() == direct_payload(spec)
