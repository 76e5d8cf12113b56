"""Spool and jobs-file flows through ``gateway serve``, via main(argv).

``gateway serve`` is the one way to serve jobs: ``suite submit`` (or
:func:`submit_to_spool`) fills a spool's ``pending/``, ``gateway serve
--spool`` drains it into ``done/``/``failed/``, ``gateway serve --jobs``
drains a jobs file or stdin, and ``gateway status`` reports.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main as sim_main
from repro.serve import JobSpec
from repro.serve.service import read_spool_pending, submit_to_spool

TINY = {"n_particles": 24, "n_inactive": 0, "n_active": 2,
        "mode": "event", "pincell": True}
SERVE = ["gateway", "serve", "--shards", "1", "--deadline-s", "110"]
SRC = str(Path(__file__).resolve().parents[2] / "src")


def tiny_spec(job_id, seed=5, **kwargs):
    return JobSpec(job_id=job_id, settings=dict(TINY, seed=seed), **kwargs)


def spool_counts(spool):
    return {name: len(list((Path(spool) / name).glob("*.json")))
            for name in ("pending", "done", "failed")}


class TestSubmit:
    def test_submit_writes_pending_spec(self, tmp_path):
        spool = tmp_path / "spool"
        path = submit_to_spool(spool, tiny_spec("s1", priority=2))
        assert path == spool / "pending" / "s1.json"
        (spec,) = read_spool_pending(spool)
        assert spec.job_id == "s1"
        assert spec.priority == 2
        assert spec.settings["n_particles"] == 24
        assert spec.settings["pincell"] is True
        assert spec.submitted_at is not None

    def test_duplicate_job_id_fails(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        argv = ["suite", "submit", "hm-tiny-sweep", "--spool", spool]
        assert sim_main(argv) == 0
        assert sim_main(argv) == 1
        assert "already spooled" in capsys.readouterr().err


class TestServeAndStatus:
    def test_spool_lifecycle(self, tmp_path, capsys):
        """spool N -> gateway serve -> gateway status: results filed,
        gateway state exported."""
        spool = str(tmp_path / "spool")
        for i in range(3):
            submit_to_spool(spool, tiny_spec(f"job{i}", seed=5 + i))

        rc = sim_main([*SERVE, "--spool", spool, "--workers-per-shard", "2",
                       "--cache", str(tmp_path / "cache")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 jobs over 1 shard(s), 3 done" in out
        assert spool_counts(spool) == {"pending": 0, "done": 3, "failed": 0}
        # All three share a fingerprint: exactly one build tier-wide.
        doc = json.loads((Path(spool) / "gateway.json").read_text())
        assert doc["aggregate"]["library_builds"] == 1
        assert doc["aggregate"]["jobs_completed"] == 3

        rc = sim_main(["gateway", "status", "--spool", spool])
        assert rc == 0
        out = capsys.readouterr().out
        assert "jobs: 3 submitted, 3 completed" in out
        assert "libraries: 1 built" in out

        rc = sim_main(["gateway", "status", "--spool", spool, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gateway"]["counters"]["completed"] == 3

    def test_serve_jobs_file_with_json_output(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(tiny_spec("f1").to_json() + "\n")
        rc = sim_main([*SERVE, "--jobs", str(jobs), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        (result,) = doc["results"]
        assert result["job_id"] == "f1"
        assert result["status"] == "done"
        assert len(result["k_collision"]) == 2
        shard = doc["gateway"]["shards"]["0"]
        assert "cache_hit_rate" in shard["metrics"]["metrics"]
        assert shard["workers"][0]["jobs_done"] == 1

    def test_serve_json_array_input(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        specs = [tiny_spec(f"a{i}", seed=i).to_dict() for i in range(2)]
        jobs.write_text(json.dumps(specs))
        rc = sim_main([*SERVE, "--jobs", str(jobs)])
        assert rc == 0
        assert "2 jobs over 1 shard(s), 2 done" in capsys.readouterr().out

    def test_serve_empty_spool_fails(self, tmp_path, capsys):
        rc = sim_main([*SERVE, "--spool", str(tmp_path / "nothing")])
        assert rc == 1
        assert "no jobs" in capsys.readouterr().err

    def test_serve_malformed_jobs_file_fails(self, tmp_path, capsys):
        jobs = tmp_path / "bad.jsonl"
        jobs.write_text('{"job_id": "x", "bogus_field": 1}\n')
        rc = sim_main([*SERVE, "--jobs", str(jobs)])
        assert rc == 1
        assert "cannot read jobs" in capsys.readouterr().err

    def test_failed_job_sets_exit_code_and_files_failure(
        self, tmp_path, capsys
    ):
        spool = tmp_path / "spool"
        submit_to_spool(spool, JobSpec(job_id="bad1", settings={
            "mode": "delta", "tally_power": True,
            "n_particles": 8, "n_active": 1,
        }))
        rc = sim_main([*SERVE, "--spool", str(spool)])
        assert rc == 1
        assert "bad1: failed" in capsys.readouterr().out
        assert spool_counts(spool) == {"pending": 0, "done": 0, "failed": 1}
        result = json.loads((spool / "failed" / "bad1.json").read_text())
        assert result["error"].startswith("ExecutionError: ")

    def test_status_round_trips_provenance_and_retry_hint(
        self, tmp_path, capsys
    ):
        """Scenario provenance survives spool -> gateway serve -> done/,
        and the adaptive retry-after hint surfaces in gateway status."""
        spool = tmp_path / "spool"
        submit_to_spool(spool, tiny_spec(
            "prov1", case_id="hm0p5-t293", suite_id="hm-tiny-sweep",
            scenario_fingerprint="deadbeef" * 8,
        ))
        assert sim_main([*SERVE, "--spool", str(spool),
                         "--cache", str(tmp_path / "cache")]) == 0
        capsys.readouterr()

        entry = json.loads((spool / "done" / "prov1.json").read_text())
        assert entry["case_id"] == "hm0p5-t293"
        assert entry["suite_id"] == "hm-tiny-sweep"
        assert entry["scenario_fingerprint"] == "deadbeef" * 8

        rc = sim_main(["gateway", "status", "--spool", str(spool), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gateway"]["admission"]["retry_after_s"] > 0

        rc = sim_main(["gateway", "status", "--spool", str(spool)])
        assert rc == 0
        assert "retry-after hint" in capsys.readouterr().out

    def test_status_on_untouched_spool(self, tmp_path, capsys):
        rc = sim_main(["gateway", "status", "--spool", str(tmp_path / "fresh")])
        assert rc == 1
        assert "no gateway state" in capsys.readouterr().err

    def test_crashed_job_recovers_with_the_same_k_eff(self, tmp_path, capsys):
        """A job whose first worker dies mid-run comes back done on its
        second attempt, with the physics of a direct ``run --json``."""
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            tiny_spec("crashy", seed=7, fault_crash_attempts=1).to_json()
        )
        assert sim_main([*SERVE, "--jobs", str(jobs), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (served,) = doc["results"]
        assert (served["status"], served["attempts"]) == ("done", 2)
        assert doc["gateway"]["aggregate"]["worker_crashes"] == 1
        assert doc["gateway"]["aggregate"]["jobs_requeued"] == 1

        assert sim_main(["run", "--pincell", "--particles", "24",
                         "--batches", "2", "--inactive", "0", "--seed", "7",
                         "--json"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert served["k_collision"] == direct["k_collision"]
        assert served["entropy"] == direct["entropy"]

    def test_jobs_from_stdin(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            tiny_spec("in1", seed=3).to_json() + "\n"
        ))
        rc = sim_main([*SERVE, "--jobs", "-", "--json"])
        assert rc == 0
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert (result["job_id"], result["status"]) == ("in1", "done")


class TestMalformedJobs:
    def test_duplicate_job_ids_fail_on_one_line(self, tmp_path, capsys):
        jobs = tmp_path / "dup.jsonl"
        jobs.write_text(tiny_spec("a").to_json() + "\n"
                        + tiny_spec("a", seed=6).to_json() + "\n")
        rc = sim_main([*SERVE, "--jobs", str(jobs)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "cannot read jobs: duplicate job id 'a'\n"
        assert captured.out == ""

    def test_wrong_typed_spec_fails_fast_in_a_subprocess(self, tmp_path):
        """A priority of "high" used to kill the shard pump thread and
        hang the drain; now it is one typed line and exit 1."""
        doc = tiny_spec("t1").to_dict()
        doc["priority"] = "high"
        jobs = tmp_path / "typed.jsonl"
        jobs.write_text(json.dumps(doc) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *SERVE, "--jobs", str(jobs)],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert line.startswith("cannot read jobs: ")
        assert "priority must be an integer" in line


class TestPriorityOrdering:
    def test_higher_priority_spooled_jobs_serve_first(self, tmp_path):
        spool = str(tmp_path / "spool")
        submit_to_spool(spool, tiny_spec("low", priority=0))
        submit_to_spool(spool, tiny_spec("high", priority=9))
        specs = read_spool_pending(spool)
        assert [s.job_id for s in specs] == ["high", "low"]

