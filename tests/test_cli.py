"""Tests for the two command-line entry points."""

import json

import pytest

from repro.cli import build_parser, main as sim_main
from repro.experiments.cli import main as exp_main


class TestArgumentParsing:
    """Pure parser coverage: every subcommand, no simulation spawned."""

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mode == "event"
        assert args.model == "hm-small"
        assert args.library_cache is None
        assert args.json_output is False

    def test_run_service_flags(self):
        args = build_parser().parse_args(
            ["run", "--library-cache", "xs/", "--json"]
        )
        assert args.library_cache == "xs/"
        assert args.json_output is True

    def test_checkpoint_requires_dir(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["checkpoint"])
        capsys.readouterr()

    def test_checkpoint_and_resume_flags(self):
        ck = build_parser().parse_args(
            ["checkpoint", "--dir", "ck", "--every", "3"]
        )
        assert ck.checkpoint_dir == "ck"
        assert ck.checkpoint_every == 3
        rs = build_parser().parse_args(["resume", "--dir", "ck"])
        assert rs.checkpoint_dir == "ck"

    def test_submit_flags(self):
        args = build_parser().parse_args(
            ["submit", "--spool", "sp", "--priority", "4",
             "--deadline", "30", "--job-id", "j1", "--pincell"]
        )
        assert args.command == "submit"
        assert args.spool == "sp"
        assert args.priority == 4
        assert args.deadline == 30.0
        assert args.job_id == "j1"
        assert args.pincell is True

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--spool", "sp", "--workers", "4",
             "--cache", "xs/", "--capacity", "8", "--max-attempts", "2"]
        )
        assert args.command == "serve"
        assert (args.workers, args.capacity, args.max_attempts) == (4, 8, 2)
        assert args.cache == "xs/"

    def test_serve_requires_spool_or_jobs(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        capsys.readouterr()

    def test_serve_spool_and_jobs_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--spool", "a", "--jobs", "b"]
            )
        capsys.readouterr()

    def test_supervise_flags(self):
        args = build_parser().parse_args(
            ["run", "--supervise", "--batch-deadline-s", "2.5"]
        )
        assert args.supervise is True
        assert args.batch_deadline_s == 2.5
        bare = build_parser().parse_args(["run"])
        assert bare.supervise is False
        assert bare.batch_deadline_s is None

    def test_serve_drain_deadline_flag(self):
        args = build_parser().parse_args(
            ["serve", "--jobs", "j.jsonl", "--drain-deadline-s", "30"]
        )
        assert args.drain_deadline_s == 30.0

    def test_status_flags(self):
        args = build_parser().parse_args(["status", "--spool", "sp", "--json"])
        assert args.command == "status"
        assert args.json_output is True

    def test_legacy_bare_form_is_a_usage_error(self, capsys):
        """``repro-sim --pincell`` (no subcommand) is no longer rewritten
        to ``run``: the parser and main() both answer with argparse's
        usage error."""
        for parse in (build_parser().parse_args, sim_main):
            with pytest.raises(SystemExit) as err:
                parse(["--pincell"])
            assert err.value.code == 2
            assert "usage: repro-sim" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            sim_main([])
        assert err.value.code == 2
        capsys.readouterr()


class TestReproSim:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mode == "event"
        assert args.model == "hm-small"

    def test_legacy_flat_form_is_a_usage_error(self, capsys):
        """``repro-sim --pincell ...`` (no subcommand) exits 2 without
        running anything; the same flags after ``run`` run."""
        flags = ["--pincell", "--particles", "40", "--batches", "2",
                 "--inactive", "0"]
        with pytest.raises(SystemExit) as err:
            sim_main(flags)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert "k-effective" not in captured.out
        assert "invalid choice" in captured.err
        assert sim_main(["run", *flags]) == 0
        assert "k-effective" in capsys.readouterr().out

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        common = ["--pincell", "--particles", "60", "--batches", "3",
                  "--inactive", "1", "--seed", "3", "--dir", str(tmp_path)]
        rc = sim_main(["checkpoint", *common, "--every", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checkpoints: 2 written" in out
        assert (tmp_path / "ckpt-000002.rpk").exists()
        rc = sim_main(["resume", *common])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resuming from" in out
        assert "k-effective" in out

    def test_resume_without_checkpoints_fails(self, tmp_path, capsys):
        rc = sim_main(
            ["resume", "--pincell", "--dir", str(tmp_path / "empty")]
        )
        assert rc == 1
        assert "no checkpoint found" in capsys.readouterr().err

    def test_resume_refuses_different_physics(self, tmp_path, capsys):
        """The settings fingerprint refuses resume under changed physics
        instead of silently breaking bit-identical resume."""
        common = ["--pincell", "--particles", "40", "--batches", "2",
                  "--inactive", "1", "--dir", str(tmp_path)]
        assert sim_main(["checkpoint", *common, "--every", "1",
                         "--seed", "3"]) == 0
        capsys.readouterr()
        rc = sim_main(["resume", *common, "--seed", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "checkpoint error" in err
        assert "fingerprint" in err

    def test_run_json_emits_jobresult_payload(self, capsys):
        rc = sim_main(
            ["run", "--pincell", "--particles", "40", "--batches", "2",
             "--inactive", "0", "--seed", "3", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "done"
        assert payload["mode"] == "event"
        assert len(payload["k_collision"]) == 2
        assert payload["settings_fingerprint"]
        assert payload["library_fingerprint"]
        # The same flags through the JobSpec model give the same payload.
        from repro.serve import JobSpec

        spec = JobSpec(settings={
            "n_particles": 40, "n_inactive": 0, "n_active": 2,
            "seed": 3, "mode": "event", "pincell": True,
        })
        assert payload["settings_fingerprint"] == spec.settings_fingerprint()
        assert payload["library_fingerprint"] == spec.library_fingerprint()

    def test_run_library_cache_hits_on_second_run(self, tmp_path, capsys):
        cache = str(tmp_path / "xs-cache")
        args = ["run", "--pincell", "--particles", "40", "--batches", "2",
                "--inactive", "0", "--library-cache", cache]
        assert sim_main(args) == 0
        assert "built and cached" in capsys.readouterr().out
        assert sim_main(args) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_pincell_run(self, capsys):
        rc = sim_main(
            ["run", "--pincell", "--particles", "60", "--batches", "2",
             "--inactive", "0", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "k-effective" in out
        assert "calculation rate" in out

    def test_supervised_run_reports_health(self, capsys):
        rc = sim_main(
            ["run", "--pincell", "--particles", "40", "--batches", "2",
             "--inactive", "1", "--supervise"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "k-effective" in out
        assert "supervision: 3 batches observed, status healthy" in out

    def test_batch_deadline_implies_supervision_and_aborts(self, capsys):
        """An impossible per-batch deadline turns into a typed abort
        (exit 1), not a hang or a stack trace."""
        rc = sim_main(
            ["run", "--pincell", "--particles", "40", "--batches", "2",
             "--inactive", "0", "--batch-deadline-s", "1e-9"]
        )
        assert rc == 1
        assert "deadline exceeded" in capsys.readouterr().err

    def test_generous_batch_deadline_runs_clean(self, capsys):
        rc = sim_main(
            ["run", "--pincell", "--particles", "40", "--batches", "2",
             "--inactive", "0", "--batch-deadline-s", "300"]
        )
        assert rc == 0
        assert "supervision:" in capsys.readouterr().out

    def test_delta_mode(self, capsys):
        rc = sim_main(
            ["run", "--pincell", "--particles", "60", "--batches", "2",
             "--inactive", "0", "--mode", "delta"]
        )
        assert rc == 0
        assert "k-effective" in capsys.readouterr().out

    def test_history_with_power(self, capsys):
        rc = sim_main(
            ["run", "--particles", "60", "--batches", "2", "--inactive", "0",
             "--mode", "event", "--tally-power"]
        )
        assert rc == 0
        assert "peaking factor" in capsys.readouterr().out

    def test_save_and_load_library(self, tmp_path, capsys):
        path = str(tmp_path / "lib.npz")
        assert sim_main(["run", "--pincell", "--save-library", path]) == 0
        rc = sim_main(
            ["run", "--pincell", "--library", path, "--particles", "40",
             "--batches", "2", "--inactive", "0"]
        )
        assert rc == 0
        assert "loaded library" in capsys.readouterr().out

    def test_save_library_writes_the_name_given(self, tmp_path, capsys):
        """A suffix-less ``--save-library`` name is the file written (numpy
        used to append ``.npz``), and ``--library`` finds it again."""
        path = tmp_path / "out" / "lib"
        path.parent.mkdir()
        assert sim_main(
            ["run", "--pincell", "--fidelity", "tiny",
             "--save-library", str(path)]
        ) == 0
        assert f"saved to {path}" in capsys.readouterr().out
        assert [p.name for p in path.parent.iterdir()] == ["lib"]
        rc = sim_main(
            ["run", "--pincell", "--library", str(path), "--particles", "40",
             "--batches", "2", "--inactive", "0"]
        )
        assert rc == 0
        assert "loaded library" in capsys.readouterr().out

    def test_stripped_physics_flags(self, capsys):
        rc = sim_main(
            ["run", "--pincell", "--particles", "40", "--batches", "2",
             "--inactive", "0", "--no-sab", "--no-urr"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 URR samples" in out
        assert "0 S(a,b) samples" in out


class TestReproExperiments:
    def test_list(self, capsys):
        assert exp_main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("fig1", "table3", "ext-futurework"):
            assert exp_id in out

    def test_run_one(self, capsys):
        assert exp_main(["run", "table3", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "17,098" in out or "17098" in out

    def test_unknown_experiment(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            exp_main(["run", "fig99"])


class TestScenarioCli:
    """The declarative verbs: scenario validate/compile/run, suite
    expand/submit, and the registry-aware backend error."""

    def test_unknown_backend_error_names_registry(self, capsys):
        from repro.transport import available_backends

        with pytest.raises(SystemExit) as err:
            sim_main(["run", "--backend", "warp"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "unknown transport backend 'warp'" in stderr
        assert "available backends" in stderr
        for name in available_backends():
            assert name in stderr

    def test_scenario_and_suite_parse(self):
        args = build_parser().parse_args(
            ["scenario", "run", "hm-full-core", "--fidelity", "tiny",
             "--backend", "history", "--json"]
        )
        assert (args.command, args.scenario_command) == ("scenario", "run")
        assert args.backend == "history"
        args = build_parser().parse_args(
            ["suite", "expand", "hm-tiny-sweep", "--json"]
        )
        assert (args.command, args.suite_command) == ("suite", "expand")

    def test_validate_all_canned_documents(self, capsys):
        assert sim_main(["scenario", "validate", "--all"]) == 0
        out = capsys.readouterr().out
        for name in ("hm-full-core", "c5g7-mox", "smr-core",
                     "shield-slab"):
            assert f"ok   {name}" in out
        assert "ok   suite hm-tiny-sweep" in out

    def test_validate_bad_document_lists_all_findings(self, tmp_path,
                                                      capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "scenario": {"name": "nope"},
            "model": "hm-huge",
            "run": {"particles": 0},
        }))
        assert sim_main(["scenario", "validate", str(bad)]) == 1
        stderr = capsys.readouterr().err
        assert "model" in stderr and "run.particles" in stderr

    def test_compile_json_is_a_loadable_job_spec(self, capsys):
        from repro.serve import JobSpec

        assert sim_main(["scenario", "compile", "smr-core", "--json"]) == 0
        spec = JobSpec.from_dict(json.loads(capsys.readouterr().out))
        assert spec.settings["boron_ppm"] == 200.0
        assert spec.library_temperature == 565.0
        assert len(spec.scenario_fingerprint) == 64
        spec.to_settings()  # reconstructs without error

    def test_scenario_run_with_overrides(self, capsys):
        rc = sim_main([
            "scenario", "run", "hm-full-core", "--fidelity", "tiny",
            "--particles", "40", "--batches", "1", "--inactive", "0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "k-effective" in out

    def test_suite_expand_json_pipes_into_serve(self, capsys):
        from repro.serve import JobSpec

        assert sim_main(["suite", "expand", "hm-tiny-sweep", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        specs = [JobSpec.from_json(line) for line in lines]
        assert len(specs) == 8
        assert all(s.suite_id == "hm-tiny-sweep" for s in specs)
        # Fingerprint-affine: same-library cases are consecutive.
        fps = [s.library_fingerprint() for s in specs]
        assert sum(
            1 for i in range(1, len(fps)) if fps[i] != fps[i - 1]
        ) == len(set(fps)) - 1

    def test_suite_submit_spools_every_case(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        rc = sim_main(["suite", "submit", "hm-tiny-sweep",
                       "--spool", str(spool)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "submitted 8 cases" in out
        assert len(list((spool / "pending").glob("*.json"))) == 8

    def test_unknown_canned_scenario_fails_cleanly(self, capsys):
        assert sim_main(["scenario", "compile", "no-such-core"]) == 1
        assert "hm-full-core" in capsys.readouterr().err


class TestFleetCli:
    """ISSUE 9 satellites: the device-fleet verbs and the --devices
    registry-error round trip."""

    def test_devices_flag_parses_comma_list(self):
        args = build_parser().parse_args(
            ["run", "--devices", "a100,a100,epyc-host"]
        )
        assert args.devices == ["a100", "a100", "epyc-host"]

    def test_devices_flag_expands_fleet_preset(self):
        from repro.cluster.topology import FLEET_PRESETS

        args = build_parser().parse_args(["run", "--devices", "a100-node"])
        assert args.devices == list(FLEET_PRESETS["a100-node"])

    def test_unknown_device_error_lists_live_registries(self, capsys):
        """Satellite 2 round trip: the argparse error names every preset
        device and fleet (the transport-backend registry convention)."""
        from repro.cluster.topology import available_fleets
        from repro.machine.presets import available_devices

        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["run", "--devices", "h100,epyc-host"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "unknown device 'h100'" in stderr
        for name in available_devices():
            assert name in stderr
        assert "fleet presets" in stderr
        for name in available_fleets():
            assert name in stderr

    def test_fleet_devices_lists_every_preset(self, capsys):
        from repro.machine.presets import DEVICE_PRESETS

        assert sim_main(["fleet", "devices"]) == 0
        out = capsys.readouterr().out
        for dev in DEVICE_PRESETS.values():
            assert dev.name in out
        assert "(alias: a100)" in out

    def test_fleet_report_json_round_trips(self, capsys):
        rc = sim_main([
            "fleet", "report", "--devices", "a100,a100,epyc-host",
            "--model", "hm-large", "--particles", "1000000", "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [d["class"] for d in doc["devices"]] == ["gpu", "gpu", "ooo"]
        assert sum(d["balanced_share"] for d in doc["devices"]) == 1_000_000
        assert doc["balanced_rate"] > 1.5 * doc["equal_rate"]
        assert doc["speedup"] == pytest.approx(
            doc["balanced_rate"] / doc["equal_rate"]
        )
        assert doc["ideal_rate"] >= doc["balanced_rate"]

    def test_fleet_report_accepts_fleet_preset_name(self, capsys):
        assert sim_main([
            "fleet", "report", "--devices", "a100-node", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["devices"]) == 3

    def test_run_with_devices_prints_projection_trailer(self, capsys):
        rc = sim_main([
            "run", "--pincell", "--particles", "40", "--inactive", "1",
            "--batches", "3", "--devices", "a100-node",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet projection" in out
        assert "rate balanced" in out
        assert "gpu-a100-sxm" in out
