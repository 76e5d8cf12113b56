"""JobSpec/JobResult: JSON round trip, validation, fingerprints."""

import copy
import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.data import LibraryConfig, library_fingerprint
from repro.errors import JobError
from repro.resilience.checkpoint import settings_fingerprint
from repro.serve import JobResult, JobSpec
from repro.transport import Settings, Simulation

SETTINGS = {
    "n_particles": 30,
    "n_inactive": 0,
    "n_active": 2,
    "seed": 11,
    "mode": "event",
    "pincell": True,
}


class TestJobSpec:
    def test_json_round_trip_is_exact(self):
        spec = JobSpec(
            job_id="rt1", settings=dict(SETTINGS), priority=3,
            deadline_s=12.5, submitted_at=1722945600.123456,
        )
        again = JobSpec.from_json(spec.to_json())
        assert again == spec

    def test_generated_ids_are_unique(self):
        assert JobSpec().job_id != JobSpec().job_id

    def test_unknown_settings_key_rejected(self):
        with pytest.raises(JobError, match="unknown settings keys"):
            JobSpec(settings={"n_partcles": 10})

    def test_checkpoint_settings_are_not_job_settings(self):
        with pytest.raises(JobError, match="checkpoint_every"):
            JobSpec(settings={"checkpoint_every": 2})

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError, match="unknown job spec fields"):
            JobSpec.from_dict({"job_id": "x", "nope": 1})

    def test_bad_fidelity_rejected(self):
        with pytest.raises(JobError, match="fidelity"):
            JobSpec(fidelity="huge")

    def test_invalid_json_rejected(self):
        with pytest.raises(JobError, match="not valid JSON"):
            JobSpec.from_json("{nope")

    def test_to_settings_reconstructs_exactly(self):
        spec = JobSpec(settings=dict(SETTINGS))
        assert spec.to_settings() == Settings(**SETTINGS)

    def test_settings_fingerprint_matches_checkpoint_subsystem(self):
        spec = JobSpec(settings=dict(SETTINGS))
        assert spec.settings_fingerprint() == settings_fingerprint(
            Settings(**SETTINGS)
        )

    def test_library_fingerprint_keys_on_model_and_config(self):
        base = JobSpec(settings=dict(SETTINGS))
        assert base.library_fingerprint() == library_fingerprint(
            "hm-small", LibraryConfig.tiny()
        )
        other_model = JobSpec(model="hm-large", settings=dict(SETTINGS))
        other_seed = JobSpec(library_seed=7, settings=dict(SETTINGS))
        fps = {
            base.library_fingerprint(),
            other_model.library_fingerprint(),
            other_seed.library_fingerprint(),
        }
        assert len(fps) == 3

    def test_scheduling_fields_do_not_change_fingerprints(self):
        a = JobSpec(job_id="a", settings=dict(SETTINGS), priority=9)
        b = JobSpec(job_id="b", settings=dict(SETTINGS), deadline_s=1.0)
        assert a.settings_fingerprint() == b.settings_fingerprint()
        assert a.library_fingerprint() == b.library_fingerprint()


class TestJobResult:
    def test_from_simulation_carries_exact_traces(self, small_library):
        spec = JobSpec(job_id="payload", settings=dict(SETTINGS))
        result = Simulation(small_library, spec.to_settings()).run()
        payload = JobResult.from_simulation(spec, result, worker_id=2)
        assert payload.k_collision == result.statistics.k_collision
        assert payload.k_track == result.statistics.k_track
        assert payload.entropy == result.statistics.entropy
        assert payload.k_effective == result.k_effective.mean
        assert payload.counters == result.counters.as_dict()
        assert payload.status == "done"
        assert payload.worker_id == 2

    def test_json_round_trip_preserves_float_bits(self, small_library):
        spec = JobSpec(job_id="bits", settings=dict(SETTINGS))
        result = Simulation(small_library, spec.to_settings()).run()
        payload = JobResult.from_simulation(spec, result)
        again = JobResult.from_json(payload.to_json())
        assert again.k_collision == payload.k_collision
        assert again.k_absorption == payload.k_absorption
        assert again.k_track == payload.k_track
        assert again.entropy == payload.entropy
        assert again.to_dict() == payload.to_dict()

    def test_failure_result(self):
        spec = JobSpec(job_id="boom", settings=dict(SETTINGS))
        failed = JobResult.failure(spec, "it broke", attempts=3)
        assert failed.status == "failed"
        assert failed.error == "it broke"
        assert failed.attempts == 3
        assert JobResult.from_json(failed.to_json()).error == "it broke"

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError, match="unknown job result fields"):
            JobResult.from_dict({"job_id": "x", "bogus": 1})

    @pytest.mark.parametrize("data", [7, "job_id", ["job_id"], None, 1.5])
    def test_non_object_document_is_typed(self, data):
        """Same door as ``JobSpec.from_dict``: an ``int`` used to raise a
        bare ``TypeError``, a ``str`` an "unknown fields" message about
        its characters."""
        with pytest.raises(JobError, match="must be an object, got "
                                           + type(data).__name__):
            JobResult.from_dict(data)
        with pytest.raises(JobError, match="must be an object"):
            JobSpec.from_dict(data)


# -- to_dict is dataclasses.asdict, without the deepcopy ----------------------

_scalars = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6)
)
#: What a settings value can be: a scalar, or rows of pairs the way
#: ``fuel_overrides`` / ``core_pattern`` arrive (tuples in Python, lists
#: after JSON).
_setting_values = _scalars | st.one_of(
    st.lists(st.lists(_scalars, max_size=3), max_size=3),
    st.lists(st.tuples(st.text(max_size=4), st.floats()), max_size=3)
    .map(tuple),
)
_setting_names = st.sampled_from(sorted(
    f.name for f in dataclasses.fields(Settings)
    if f.name not in ("checkpoint_every", "checkpoint_dir")
))
_traces = st.lists(st.floats(allow_nan=True), max_size=200)

job_specs = st.builds(
    JobSpec,
    job_id=st.text(max_size=8),
    fidelity=st.sampled_from(["tiny", "default"]),
    library_temperature=st.none() | st.floats(allow_nan=True),
    settings=st.dictionaries(_setting_names, _setting_values, max_size=6),
    priority=st.integers(-5, 5),
    deadline_s=st.none() | st.floats(allow_nan=True),
    case_id=st.text(max_size=8),
)
job_results = st.builds(
    JobResult,
    job_id=st.text(max_size=8),
    status=st.sampled_from(["done", "failed", "expired", "poisoned"]),
    k_effective=st.floats(allow_nan=True),
    k_collision=_traces, k_absorption=_traces, k_track=_traces,
    entropy=_traces,
    counters=st.dictionaries(st.text(max_size=6), _scalars, max_size=5),
    wall_time=st.floats(allow_nan=True),
    error=st.none() | st.text(max_size=8),
)


def _scribble(value):
    """Mutate every container reachable from ``value``, in place."""
    if isinstance(value, dict):
        for item in list(value.values()):
            _scribble(item)
        value["scribbled"] = True
    elif isinstance(value, list):
        for item in value:
            _scribble(item)
        value.append("scribbled")


class TestToDictIsAsdict:
    @given(x=job_specs | job_results)
    def test_equal_to_asdict_and_independent_of_the_dataclass(self, x):
        # NaN fields compare equal here because neither copy rebuilds a
        # float: both documents hold the dataclass's own objects.
        before = dataclasses.asdict(x)
        doc = x.to_dict()
        assert doc == before
        assert list(doc) == list(before)  # field order too
        assert type(x).from_dict(copy.copy(doc)).to_dict() == before
        _scribble(doc)
        assert dataclasses.asdict(x) == before

    def test_asdict_is_not_what_runs(self, monkeypatch):
        import repro.serve.jobs as jobs

        assert not hasattr(jobs, "asdict")
        monkeypatch.setattr(
            dataclasses, "asdict",
            lambda *a, **k: pytest.fail("dataclasses.asdict called"),
        )
        spec = JobSpec(job_id="flat", settings=dict(SETTINGS))
        assert JobSpec.from_json(spec.to_json()) == spec
        assert JobResult.failure(spec, "x").to_dict()["error"] == "x"


class TestScenarioProvenance:
    """Provenance fields ride along without touching the physics payload."""

    PROVENANCE = {
        "case_id": "sweep:boron_ppm=612.300000000001,backend=event",
        "suite_id": "sweep",
        "scenario_fingerprint": "ab" * 32,
    }

    def test_spec_round_trips_provenance_exactly(self):
        spec = JobSpec(
            job_id="prov", settings=dict(SETTINGS), priority=2,
            library_temperature=565.125, **self.PROVENANCE,
        )
        again = JobSpec.from_json(spec.to_json())
        assert again == spec
        assert again.case_id == self.PROVENANCE["case_id"]
        assert again.suite_id == "sweep"
        assert again.scenario_fingerprint == "ab" * 32
        # Exact-float round trip still holds with provenance present.
        assert again.library_temperature == 565.125

    def test_provenance_does_not_change_fingerprints(self):
        plain = JobSpec(job_id="a", settings=dict(SETTINGS))
        tagged = JobSpec(job_id="b", settings=dict(SETTINGS),
                         **self.PROVENANCE)
        assert plain.settings_fingerprint() == tagged.settings_fingerprint()
        assert plain.library_fingerprint() == tagged.library_fingerprint()

    def test_library_temperature_changes_library_fingerprint(self):
        plain = JobSpec(job_id="a", settings=dict(SETTINGS))
        doppler = JobSpec(job_id="b", settings=dict(SETTINGS),
                          library_temperature=900.0)
        assert plain.library_fingerprint() != doppler.library_fingerprint()
        assert plain.settings_fingerprint() == doppler.settings_fingerprint()

    def test_results_copy_provenance_from_spec(self, small_library):
        spec = JobSpec(job_id="prov2", settings=dict(SETTINGS),
                       **self.PROVENANCE)
        result = Simulation(small_library, spec.to_settings()).run()
        done = JobResult.from_simulation(spec, result)
        failed = JobResult.failure(spec, "boom")
        for payload in (done, failed):
            assert payload.case_id == self.PROVENANCE["case_id"]
            assert payload.suite_id == "sweep"
            assert payload.scenario_fingerprint == "ab" * 32
        again = JobResult.from_json(done.to_json())
        assert again.case_id == done.case_id
        assert again.scenario_fingerprint == done.scenario_fingerprint

    def test_legacy_spec_without_provenance_defaults_empty(self):
        spec = JobSpec.from_dict({"job_id": "old", "settings": dict(SETTINGS)})
        assert spec.case_id == spec.suite_id == spec.scenario_fingerprint == ""
