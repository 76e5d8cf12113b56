"""The gateway CLI verbs (serve/status) end to end, via main(argv)."""

import json
from pathlib import Path

from repro.cli import main as sim_main
from repro.serve.jobs import JobSpec
from repro.serve.service import submit_to_spool

TINY = {"n_particles": 24, "n_inactive": 0, "n_active": 2,
        "mode": "event", "pincell": True}


def write_jobs(path, specs):
    path.write_text("".join(s.to_json() + "\n" for s in specs))
    return str(path)


def tiny_spec(job_id, seed=5):
    return JobSpec(job_id=job_id, settings=dict(TINY, seed=seed))


class TestGatewaySubmit:
    """One-shot submission: ``gateway serve --jobs FILE``."""

    def test_one_shot_json_document(self, tmp_path, capsys):
        jobs = write_jobs(tmp_path / "jobs.jsonl", [
            tiny_spec("g1", seed=5), tiny_spec("g2", seed=5),
        ])
        rc = sim_main(["gateway", "serve", "--jobs", jobs,
                       "--shards", "1", "--cache", str(tmp_path / "libs"),
                       "--deadline-s", "110", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["job_id"] for r in doc["results"]] == ["g1", "g2"]
        assert all(r["status"] == "done" for r in doc["results"])
        gw = doc["gateway"]["gateway"]
        assert gw["counters"]["completed"] == 2
        # Identical physics: the second job came from the result cache.
        assert gw["counters"]["cache_hits"] == 1
        assert doc["gateway"]["aggregate"]["library_builds"] == 1

    def test_result_cache_dir_answers_resubmission(self, tmp_path, capsys):
        """Two invocations sharing --result-cache: the second runs zero
        simulations and returns byte-identical physics."""
        flags = ["--shards", "1", "--cache", str(tmp_path / "libs"),
                 "--result-cache", str(tmp_path / "rc"),
                 "--deadline-s", "110", "--json"]
        jobs1 = write_jobs(tmp_path / "j1.jsonl", [tiny_spec("cold")])
        assert sim_main(["gateway", "serve", "--jobs", jobs1, *flags]) == 0
        cold = json.loads(capsys.readouterr().out)

        jobs2 = write_jobs(tmp_path / "j2.jsonl", [tiny_spec("warm")])
        assert sim_main(["gateway", "serve", "--jobs", jobs2, *flags]) == 0
        warm = json.loads(capsys.readouterr().out)

        assert warm["gateway"]["gateway"]["counters"]["cache_hits"] == 1
        assert warm["gateway"]["aggregate"]["jobs_completed"] == 0
        assert warm["results"][0]["library_source"] == "result-cache"
        payload = {k: warm["results"][0][k]
                   for k in ("k_effective", "k_collision", "entropy",
                             "counters")}
        reference = {k: cold["results"][0][k]
                     for k in ("k_effective", "k_collision", "entropy",
                               "counters")}
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            reference, sort_keys=True)

    def test_empty_jobs_file_fails(self, tmp_path, capsys):
        jobs = tmp_path / "empty.jsonl"
        jobs.write_text("")
        rc = sim_main(["gateway", "serve", "--jobs", str(jobs)])
        assert rc == 1
        assert "no jobs" in capsys.readouterr().err


class TestGatewayServeAndStatus:
    def test_spool_round_trip(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        for i in range(2):
            submit_to_spool(spool, tiny_spec(f"sp{i}", seed=5))
        rc = sim_main(["gateway", "serve", "--spool", spool,
                       "--shards", "1", "--cache", str(tmp_path / "libs"),
                       "--deadline-s", "110"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 jobs over 1 shard(s)" in out

        counts = {name: len(list((Path(spool) / name).glob("*.json")))
                  for name in ("pending", "done", "failed")}
        assert counts == {"pending": 0, "done": 2, "failed": 0}

        rc = sim_main(["gateway", "status", "--spool", spool])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gateway: 1 shard(s)" in out
        assert "result cache:" in out
        assert "shard 0: healthy" in out

        rc = sim_main(["gateway", "status", "--spool", spool, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gateway"]["counters"]["completed"] == 2
        assert doc["aggregate"]["library_builds"] == 1
        assert doc["gateway"]["quarantined"] == []

    def test_status_without_state_fails(self, tmp_path, capsys):
        rc = sim_main(["gateway", "status", "--spool", str(tmp_path)])
        assert rc == 1
        assert "no gateway state" in capsys.readouterr().err


class TestJournalRecoverCli:
    def serve_flags(self, tmp_path, spool):
        return ["gateway", "serve", "--spool", spool,
                "--journal", str(tmp_path / "gw.journal"),
                "--shards", "1", "--cache", str(tmp_path / "libs"),
                "--deadline-s", "110"]

    def done_payloads(self, spool):
        return {
            r["job_id"]: json.dumps(
                {k: r[k] for k in ("k_effective", "k_std_err",
                                   "k_collision", "entropy", "counters")},
                sort_keys=True)
            for r in (json.loads(p.read_text())
                      for p in sorted((spool / "done").glob("*.json")))
        }

    def test_restart_with_journal_recovers_byte_identically(
        self, tmp_path, capsys
    ):
        """The operator's crash-recovery runbook, end to end: run a
        journaled spool to completion, then rerun the identical command
        — the second incarnation replays the journal, restores every
        result verbatim, and simulates nothing."""
        spool = tmp_path / "spool"
        for i in range(2):
            submit_to_spool(spool, tiny_spec(f"jr{i}", seed=5))
        assert sim_main(self.serve_flags(tmp_path, str(spool))) == 0
        capsys.readouterr()
        reference = self.done_payloads(spool)
        assert len(reference) == 2

        # Same command again: the pending dir is empty, the journal is
        # not — recovery is the only work.
        assert sim_main(self.serve_flags(tmp_path, str(spool))) == 0
        captured = capsys.readouterr()
        assert "recovered from" in captured.err
        assert "2 result(s) restored" in captured.err
        assert self.done_payloads(spool) == reference

        rc = sim_main(["gateway", "status", "--spool", str(spool)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 recovered from journal" in out
        assert "journal: " in out
        assert "gw.journal" in out

        doc = json.loads((spool / "gateway.json").read_text())
        g = doc["gateway"]
        assert g["counters"]["recovered"] == 2
        assert g["journal"]["path"].endswith("gw.journal")
        # The recovered incarnation ran zero simulations.
        assert doc["aggregate"]["jobs_completed"] == 0
        assert doc["aggregate"]["library_builds"] == 0

    def test_journal_status_fields_round_trip_via_json(
        self, tmp_path, capsys
    ):
        spool = tmp_path / "spool"
        submit_to_spool(spool, tiny_spec("j0", seed=5))
        assert sim_main(self.serve_flags(tmp_path, str(spool))) == 0
        capsys.readouterr()
        rc = sim_main(["gateway", "status", "--spool", str(spool),
                       "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        journal = doc["gateway"]["journal"]
        # One clean job journals accepted/leader-elected/routed/completed.
        assert journal["appended"] == 4
        assert journal["next_seq"] == 5
        assert journal["fsync"] is True
        assert doc["gateway"]["result_cache"]["corrupt_entries"] == 0
