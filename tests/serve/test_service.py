"""End-to-end service semantics: the PR's acceptance criteria.

* Determinism: a job through a 4-worker service — queued, batched, cached,
  even crashed and rerun — yields bit-identical per-batch k-effective to
  the same settings run directly through ``Simulation``.
* Library cache: 8 jobs sharing one fingerprint build the library exactly
  once; the hit rate is observable in the metrics JSON.
* Submission: a duplicate job id is a typed rejection (the one capacity
  bound is the gateway's admission, not the service's).
* Drain: shutdown loses no jobs and duplicates none.
"""

import json

import pytest

from repro.errors import JobError
from repro.resilience.recovery import RetryPolicy
from repro.serve import JobSpec, SimulationService
from repro.transport import Settings, Simulation


def job_settings(seed):
    return {
        "n_particles": 24,
        "n_inactive": 0,
        "n_active": 2,
        "seed": seed,
        "mode": "event",
        "pincell": True,
    }


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One 4-worker service run shared by the acceptance assertions:
    8 jobs, one shared library fingerprint, two distinct seeds, one
    injected mid-job worker crash."""
    cache_dir = tmp_path_factory.mktemp("xs-cache")
    specs = []
    for i in range(8):
        specs.append(
            JobSpec(
                job_id=f"job{i}",
                settings=job_settings(seed=1 + i % 2),
                # job3 hard-kills its first worker mid-job (after dispatch,
                # before any result), exercising requeue + rerun.
                fault_crash_attempts=1 if i == 3 else 0,
            )
        )
    service = SimulationService(
        n_workers=4, cache_dir=str(cache_dir)
    )
    results = service.run(specs)
    service.shutdown()
    return service, specs, results


@pytest.fixture(scope="module")
def direct_traces():
    """Reference trajectories from direct Simulation runs (no service)."""
    from repro.data import LibraryConfig, build_library

    library = build_library("hm-small", LibraryConfig.tiny())
    traces = {}
    for seed in (1, 2):
        result = Simulation(library, Settings(**job_settings(seed))).run()
        traces[seed] = result.statistics
    return traces


class TestDeterminism:
    def test_all_jobs_complete_in_submission_order(self, served):
        _, specs, results = served
        assert [r.job_id for r in results] == [s.job_id for s in specs]
        assert all(r.status == "done" for r in results)

    def test_service_results_bit_identical_to_direct_runs(
        self, served, direct_traces
    ):
        _, specs, results = served
        for spec, result in zip(specs, results):
            stats = direct_traces[spec.settings["seed"]]
            assert result.k_collision == stats.k_collision, spec.job_id
            assert result.k_absorption == stats.k_absorption, spec.job_id
            assert result.k_track == stats.k_track, spec.job_id
            assert result.entropy == stats.entropy, spec.job_id

    def test_crashed_job_reran_and_stayed_bit_identical(
        self, served, direct_traces
    ):
        service, _, results = served
        crashed = next(r for r in results if r.job_id == "job3")
        assert crashed.attempts == 2
        assert crashed.status == "done"
        assert crashed.k_collision == direct_traces[2].k_collision
        assert service.metrics.counter("worker_crashes").value >= 1
        assert service.metrics.counter("jobs_requeued").value == 1

    def test_json_payload_round_trips_the_trajectory(self, served):
        _, _, results = served
        from repro.serve import JobResult

        again = JobResult.from_json(results[0].to_json())
        assert again.k_collision == results[0].k_collision


class TestLibraryCache:
    def test_library_built_exactly_once_for_shared_fingerprint(self, served):
        service, _, results = served
        assert service.metrics.counter("library_builds").value == 1
        sources = sorted(r.library_source for r in results)
        assert sources.count("built") == 1
        assert all(s in ("built", "disk-cache", "memory") for s in sources)

    def test_cache_hit_rate_observable_in_metrics_json(self, served):
        service, _, _ = served
        doc = json.loads(service.metrics.to_json())
        hit_rate = doc["metrics"]["cache_hit_rate"]["value"]
        assert hit_rate == pytest.approx(7 / 8)

    def test_latency_histograms_populated(self, served):
        service, _, _ = served
        doc = json.loads(service.metrics.to_json())
        for name in ("queue_wait_seconds", "service_seconds",
                     "dispatch_overhead_seconds"):
            assert doc["metrics"][name]["count"] > 0, name
        assert doc["metrics"]["build_seconds"]["count"] == 1

    def test_profile_projection_includes_service_routines(self, served):
        service, _, _ = served
        profile = service.metrics.to_profile()
        assert "service" in profile.routines
        assert profile.routines["service"].calls == 8


class TestDrain:
    def test_no_lost_or_duplicated_jobs(self, served):
        service, specs, results = served
        assert len(results) == len(specs)
        assert len({r.job_id for r in results}) == len(specs)
        assert len(service.queue) == 0
        assert len(service.batcher) == 0
        assert service.pool.in_flight() == 0

    def test_shutdown_stopped_all_workers(self, served):
        service, _, _ = served
        assert service.pool.alive_count() == 0

    def test_utilization_accounted_for_every_job(self, served):
        service, _, results = served
        rows = service.batcher.utilization_dict()
        assert sum(row["jobs_done"] for row in rows) >= len(results)
        assert all(row["busy_seconds"] >= 0.0 for row in rows)


class TestBackpressure:
    def test_duplicate_job_id_rejected(self):
        service = SimulationService(n_workers=1)
        service.submit(JobSpec(job_id="dup", settings=job_settings(1)))
        with pytest.raises(JobError, match="duplicate"):
            service.submit(JobSpec(job_id="dup", settings=job_settings(1)))
        service.shutdown()


class TestDrainDeadline:
    def test_overrunning_drain_raises_typed_error(self):
        from repro.errors import DeadlineExceededError

        service = SimulationService(n_workers=1, drain_deadline_s=1.0e-6)
        with pytest.raises(DeadlineExceededError, match="serve drain"):
            service.run([JobSpec(job_id="slow", settings=job_settings(1))])
        service.shutdown(graceful=False)

    def test_generous_deadline_drains_normally(self):
        service = SimulationService(n_workers=1, drain_deadline_s=300.0)
        (result,) = service.run(
            [JobSpec(job_id="ok", settings=job_settings(1))]
        )
        service.shutdown()
        assert result.status == "done"


class TestFailurePaths:
    def test_retry_budget_exhaustion_fails_the_job(self):
        service = SimulationService(
            n_workers=1,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        spec = JobSpec(
            job_id="doomed", settings=job_settings(1),
            fault_crash_attempts=99,
        )
        (result,) = service.run([spec])
        service.shutdown()
        assert result.status == "failed"
        assert result.attempts == 2
        assert "retry budget" in result.error
        assert service.metrics.counter("worker_crashes").value == 2
        assert service.metrics.counter("jobs_failed").value == 1

    def test_invalid_settings_fail_in_worker_not_service(self):
        service = SimulationService(n_workers=1)
        spec = JobSpec(
            job_id="badjob",
            settings={"mode": "delta", "tally_power": True,
                      "n_particles": 8, "n_active": 1},
        )
        (result,) = service.run([spec])
        service.shutdown()
        assert result.status == "failed"
        assert "ExecutionError" in result.error
        assert service.metrics.counter("jobs_failed").value == 1

    def test_expired_job_never_dispatches(self):
        import time

        service = SimulationService(n_workers=1)
        spec = JobSpec(
            job_id="late", settings=job_settings(1),
            deadline_s=0.5, submitted_at=time.time() - 10.0,
        )
        (result,) = service.run([spec])
        service.shutdown()
        assert result.status == "expired"
        assert "deadline" in result.error
        assert service.metrics.counter("jobs_expired").value == 1
        assert service.metrics.counter("jobs_completed").value == 0
