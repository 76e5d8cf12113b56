"""The chaos runner's audited cycles, on a small synthetic workload.

The full kill-at-every-boundary sweep over the canned suite runs in the
``chaos-smoke`` CI job; here a 4-job workload keeps each cycle cheap
while still covering every cycle type and — critically — the *audits*:
a runner that cannot detect a violated invariant proves nothing, so the
negative tests hand it corrupted histories and require a typed
:class:`~repro.errors.ChaosError`.
"""

import pytest

from repro.chaos import ChaosRunner, ChaosSchedule
from repro.chaos.runner import ChaosReport
from repro.errors import ChaosError
from repro.gateway.journal import JournalScan, JournalRecord
from repro.serve.jobs import JobSpec

TINY = {"n_particles": 24, "n_inactive": 0, "n_active": 2,
        "mode": "event", "pincell": True}


def small_workload(n=4, distinct=3):
    return [
        JobSpec(job_id=f"chaos-{i:02d}",
                settings=dict(TINY, seed=i % distinct))
        for i in range(n)
    ]


@pytest.fixture()
def runner(tmp_path):
    return ChaosRunner(small_workload(), workdir=tmp_path / "chaos")


class TestConstruction:
    def test_needs_two_shards(self, tmp_path):
        with pytest.raises(ChaosError, match="n_shards"):
            ChaosRunner(small_workload(), workdir=tmp_path, n_shards=1)

    def test_needs_a_workload(self, tmp_path):
        with pytest.raises(ChaosError, match="empty"):
            ChaosRunner([], workdir=tmp_path)

    def test_default_workload_is_the_canned_suite(self, tmp_path):
        runner = ChaosRunner(workdir=tmp_path)
        assert len(runner.specs) == 8
        assert all(
            s.suite_id == "hm-tiny-sweep" for s in runner.specs
        )


class TestKillCycles:
    def test_every_boundary_recovers_byte_identically(self, runner):
        # With 3 distinct physics among 4 jobs the journal carries
        # cache-hit and leader-election records too — the sweep must
        # survive a kill after every one of them.
        report = runner.kill_sweep()
        # By-reference hits change what a ``cache-hit`` record holds,
        # not how many records there are: 3 leaders x 4 + 1 hit x 2.
        assert runner.n_boundaries == 14
        assert report.cycles == runner.n_boundaries
        assert report.kill_boundaries == list(
            range(1, runner.n_boundaries + 1)
        )

    def test_out_of_range_boundary_is_typed(self, runner):
        with pytest.raises(ChaosError, match="outside"):
            runner.kill_sweep([0])

    def test_kill_cycle_reports_recovery_accounting(self, runner):
        last = runner.n_boundaries
        cycle = runner.run_kill_cycle(last)
        # Killed after the final record: everything had landed, nothing
        # requeues, every result restores from the journal.
        assert cycle["restored"] == len(runner.specs)
        assert cycle["requeued"] == 0


class TestOtherCycles:
    def test_shard_kill_quarantines_and_finishes(self, runner):
        cycle = runner.run_shard_kill_cycle(0)
        assert cycle["victim"] == 0

    def test_shard_victim_must_exist(self, runner):
        with pytest.raises(ChaosError, match="outside"):
            runner.run_shard_kill_cycle(7)

    @pytest.mark.parametrize("truncate", [False, True])
    def test_disk_fault_quarantines_exactly_one_entry(
        self, runner, truncate
    ):
        cycle = runner.run_disk_fault_cycle(truncate=truncate)
        assert cycle["corrupt_entries"] == 1
        # Undamaged entries still serve from disk; only the damaged
        # one recomputed (its first submission is the one miss beyond
        # the usual in-flight coalescing).
        assert 1 <= cycle["cache_hits"] < len(runner.specs)

    def test_spool_fault_quarantines_the_torn_file(self, runner):
        cycle = runner.run_spool_fault_cycle()
        assert cycle["pending"] == len(runner.specs)

    def test_seeded_schedule_end_to_end(self, runner):
        schedule = ChaosSchedule.generate(
            11, 6, p_gateway_kill=0.5, p_shard_kill=0.3,
            p_spool_partial=0.3,
        )
        report = runner.run_schedule(schedule)
        assert report.cycles == len(schedule)
        assert isinstance(report.to_dict()["cycles"], int)


class TestAuditsDetectViolations:
    def test_double_landing_is_flagged(self, runner):
        scan = JournalScan(
            path=runner.workdir / "fake",
            records=[
                JournalRecord(1, "completed", {"job_id": "x"}),
                JournalRecord(2, "completed", {"job_id": "x"}),
            ],
        )
        with pytest.raises(ChaosError, match="landed twice"):
            runner._audit_journal(scan, label="synthetic")

    def test_route_after_landing_is_flagged(self, runner):
        scan = JournalScan(
            path=runner.workdir / "fake",
            records=[
                JournalRecord(1, "cache-hit", {"job_id": "x"}),
                JournalRecord(2, "routed", {"job_id": "x", "shard": 0}),
            ],
        )
        with pytest.raises(ChaosError, match="after its result"):
            runner._audit_journal(scan, label="synthetic")

    def test_payload_divergence_is_flagged(self, runner):
        with pytest.raises(ChaosError, match="diverged"):
            runner._assert_byte_identical(
                {"a": "{}"}, {"a": "{...}"}, label="synthetic"
            )

    def test_missing_result_is_flagged(self, runner):
        with pytest.raises(ChaosError, match="missing"):
            runner._assert_byte_identical(
                {}, {"a": "{}"}, label="synthetic"
            )


class TestReport:
    def test_report_round_trips_to_dict(self):
        report = ChaosReport(cycles=3, kill_boundaries=[1, 5])
        doc = report.to_dict()
        assert doc["cycles"] == 3
        assert doc["kill_boundaries"] == [1, 5]
