"""The backend registry is ``delta``, ``event``, ``history`` — and a name
outside it fails typed at every door.

``"numba-event"`` was a registered backend once, so journals, spools and
suite files written then still carry it; it gets no alias.  Each door is
pinned with that name, and one property says the same of any other text.
"""

import argparse
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _backend_name
from repro.cli import main as sim_main
from repro.errors import ExecutionError, ScenarioError
from repro.scenarios import validate_scenario
from repro.serve import JobSpec, SimulationService
from repro.transport import Settings, available_backends

RETIRED = "numba-event"


def scenario(backend):
    return {"scenario": {"name": "t"}, "run": {"backend": backend}}


def test_registry_is_exactly_three_backends():
    assert available_backends() == ("delta", "event", "history")


def test_settings_lists_exactly_the_registry():
    with pytest.raises(ExecutionError) as err:
        Settings(mode=RETIRED)
    assert str(err.value).endswith("available: delta, event, history")


def test_cli_exits_2_naming_the_registry(capsys):
    with pytest.raises(SystemExit) as err:
        sim_main(["run", "--backend", RETIRED])
    assert err.value.code == 2
    assert "available backends: delta, event, history" in capsys.readouterr().err


def test_scenario_document_gets_a_run_backend_path_error():
    with pytest.raises(ScenarioError) as err:
        validate_scenario(scenario(RETIRED))
    (error,) = err.value.errors
    assert error.startswith("run.backend: ")
    assert error.endswith("available: delta, event, history")


def _serve_in_process(tmp_path, jobs):
    """The serve layer as in-process callers use it."""
    spec = JobSpec.from_json(jobs.read_text())
    service = SimulationService(n_workers=1, cache_dir=str(tmp_path / "libs"))
    try:
        (result,) = service.run([spec])
    finally:
        service.shutdown()
    counts = {k: service.metrics.counter(k).value
              for k in ("jobs_failed", "worker_crashes", "jobs_requeued")}
    return result.to_dict(), counts


def _serve_through_gateway(tmp_path, jobs, capsys):
    rc = sim_main(["gateway", "serve", "--shards", "1", "--deadline-s", "110",
                   "--jobs", str(jobs), "--cache", str(tmp_path / "libs"),
                   "--json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    (result,) = doc["results"]
    return result, doc["gateway"]["aggregate"]


@pytest.mark.parametrize("door", ["serve", "gateway"])
def test_replayed_job_fails_once_without_crashing_a_worker(
    tmp_path, capsys, door
):
    """What a journal, spool or suite file written while the name was
    registered replays into: a failed job, not a crash-requeue loop."""
    jobs = tmp_path / "jobs.jsonl"
    spec = JobSpec(job_id="old1", settings={
        "n_particles": 24, "n_inactive": 0, "n_active": 2,
        "mode": RETIRED, "pincell": True,
    })
    jobs.write_text(spec.to_json() + "\n")
    result, counts = (
        _serve_in_process(tmp_path, jobs) if door == "serve"
        else _serve_through_gateway(tmp_path, jobs, capsys)
    )
    assert result["status"] == "failed"
    assert result["attempts"] == 1
    assert result["error"].startswith("ExecutionError: ")
    assert counts["jobs_failed"] == 1
    assert counts["worker_crashes"] == 0
    assert counts["jobs_requeued"] == 0


@given(name=st.text().filter(lambda s: s not in available_backends()))
@settings(max_examples=100, deadline=None)
def test_any_unregistered_name_fails_typed_at_every_parser(name):
    with pytest.raises(ExecutionError):
        Settings(mode=name)
    with pytest.raises(argparse.ArgumentTypeError):
        _backend_name(name)
    with pytest.raises(ScenarioError) as err:
        validate_scenario(scenario(name))
    assert [e.split(":")[0] for e in err.value.errors] == ["run.backend"]
