"""Job model: what a client submits and what the service returns.

A :class:`JobSpec` is a *complete, self-contained* description of one
eigenvalue calculation: the library to build (model + fidelity + seed) and
the physics settings of the run, plus scheduling metadata (priority,
deadline).  Completeness is what makes the service deterministic — a worker
reconstructs the exact :class:`~repro.transport.simulation.Settings` and
:class:`~repro.data.library.LibraryConfig` from the spec alone, so a job
produces bit-identical k-effective trajectories whether it runs through the
queue, survives a worker crash and reruns, or is executed directly by
``Simulation``.

Both dataclasses round-trip through JSON exactly (Python's ``json`` emits
shortest-repr floats, which parse back bit-identically), so specs and
results can live in spool files, stream over stdin, and cross process
boundaries without perturbing the physics payload.
"""

from __future__ import annotations

import hashlib
import json
import uuid
from dataclasses import dataclass, field, fields, replace

from ..data.library import LibraryConfig, library_fingerprint
from ..errors import JobError, ReproError
from ..resilience.checkpoint import settings_fingerprint
from ..transport.simulation import Settings, SimulationResult

__all__ = ["JobSpec", "JobResult"]

#: Settings fields a job may carry (checkpointing is a service concern, not
#: a job concern — workers never checkpoint).
_ALLOWED_SETTINGS = frozenset(
    f.name for f in fields(Settings)
) - {"checkpoint_every", "checkpoint_dir"}

_FIDELITIES = ("tiny", "default")

#: Fields that define a job's *physics identity* — everything a worker
#: consults to produce the payload, and nothing it doesn't.  Job IDs,
#: priorities, deadlines, and scenario provenance are scheduling metadata:
#: including them would fragment the result cache across identical physics.
_IDENTITY_FIELDS = (
    "model",
    "fidelity",
    "library_seed",
    "library_temperature",
    "settings",
)


def _new_job_id() -> str:
    return uuid.uuid4().hex[:12]


def _plain(value):
    """``dataclasses.asdict``'s copy of one field value without its
    ``deepcopy`` per leaf: plain containers are rebuilt (through nested
    ``fuel_overrides`` rows too), everything else is shared."""
    kind = type(value)
    if kind is dict:
        return {key: _plain(item) for key, item in value.items()}
    return kind(map(_plain, value)) if kind in (list, tuple) else value


@dataclass(frozen=True)
class JobSpec:
    """One simulation request.

    ``settings`` holds keyword overrides for
    :class:`~repro.transport.simulation.Settings` (particles, batches, seed,
    mode, ...).  ``priority`` orders jobs in the queue (higher runs first);
    within a priority, submission order is preserved.  ``deadline_s`` is a
    relative service-level deadline: jobs still queued that long after
    ``submitted_at`` are expired rather than run.  ``fault_crash_attempts``
    is the test hook for crash recovery — a worker hard-exits mid-job on the
    first N attempts, exercising the requeue path deterministically.
    """

    job_id: str = field(default_factory=_new_job_id)
    model: str = "hm-small"
    fidelity: str = "tiny"
    library_seed: int = 20150525
    #: Library data temperature [K]; ``None`` keeps the fidelity preset's
    #: default.  Distinct temperatures are distinct library fingerprints
    #: (Doppler sweeps rebuild the data, as they must).
    library_temperature: float | None = None
    settings: dict = field(default_factory=dict)
    priority: int = 0
    deadline_s: float | None = None
    #: Wall-clock submission time (``time.time()``), stamped by the queue.
    submitted_at: float | None = None
    #: Crash injection: workers ``os._exit`` mid-job on attempts <= this.
    fault_crash_attempts: int = 0
    #: Scenario provenance (set by ``repro.scenarios``): which case of
    #: which suite produced this job, and the fingerprint of the scenario
    #: document it compiled from.  Purely descriptive — never consulted by
    #: workers, so legacy specs (empty strings) behave identically.
    case_id: str = ""
    suite_id: str = ""
    scenario_fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.fidelity not in _FIDELITIES:
            raise JobError(
                f"job {self.job_id}: unknown fidelity {self.fidelity!r} "
                f"(want one of {_FIDELITIES})"
            )
        unknown = set(self.settings) - _ALLOWED_SETTINGS
        if unknown:
            raise JobError(
                f"job {self.job_id}: unknown settings keys {sorted(unknown)}"
            )

    # -- Reconstruction ------------------------------------------------------

    def to_settings(self) -> Settings:
        """The exact ``Settings`` a worker (or a direct run) uses."""
        return Settings(**self.settings)

    def library_config(self) -> LibraryConfig:
        config = (
            LibraryConfig.tiny(seed=self.library_seed)
            if self.fidelity == "tiny"
            else LibraryConfig(seed=self.library_seed)
        )
        if self.library_temperature is not None:
            config = replace(config, temperature=self.library_temperature)
        return config

    # -- Fingerprints --------------------------------------------------------

    def settings_fingerprint(self) -> str:
        """Physics fingerprint (shared with the checkpoint subsystem)."""
        return settings_fingerprint(self.to_settings())

    def library_fingerprint(self) -> str:
        """Cache/affinity key: determines the built library bit-for-bit."""
        return library_fingerprint(self.model, self.library_config())

    def cache_key(self) -> str:
        """Result-cache key: SHA-256 over the canonical physics identity.

        Two specs share a key exactly when a worker would produce
        bit-identical payloads for both — same library (model, fidelity,
        seed, temperature) and same transport settings.  Scheduling
        metadata never contributes, so resubmitting a job under a new ID
        (or from a different suite) still hits the cache.
        """
        doc = {name: getattr(self, name) for name in _IDENTITY_FIELDS}
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()

    # -- JSON round trip -----------------------------------------------------

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in _SPEC_FIELDS}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        if not isinstance(data, dict):
            raise JobError(f"job spec must be an object, got {type(data).__name__}")
        unknown = data.keys() - _SPEC_FIELDS
        if unknown:
            raise JobError(f"unknown job spec fields {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise JobError(f"malformed job spec: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise JobError(f"job spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class JobResult:
    """The outcome of one job: physics payload plus service accounting.

    The physics fields (per-batch estimator traces, combined k) are exactly
    what :class:`~repro.transport.simulation.SimulationResult` reports —
    :meth:`from_simulation` is the single construction path used by workers
    *and* by ``repro-sim run --json``, so a payload diff between the two is
    a determinism bug by definition.
    """

    job_id: str
    status: str = "done"  # done | failed | expired | poisoned
    mode: str = ""
    n_particles: int = 0
    n_batches: int = 0
    #: Combined k-effective over active batches (mean, standard error).
    k_effective: float = float("nan")
    k_std_err: float = float("nan")
    #: Per-batch estimator and entropy traces (the determinism payload).
    k_collision: list[float] = field(default_factory=list)
    k_absorption: list[float] = field(default_factory=list)
    k_track: list[float] = field(default_factory=list)
    entropy: list[float] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    settings_fingerprint: str = ""
    library_fingerprint: str = ""
    #: Scenario provenance, copied verbatim from the spec.
    case_id: str = ""
    suite_id: str = ""
    scenario_fingerprint: str = ""
    #: Service accounting.
    worker_id: int = -1
    attempts: int = 1
    wait_seconds: float = 0.0
    service_seconds: float = 0.0
    build_seconds: float = 0.0
    #: Where the worker got its library: built | disk-cache | memory.
    library_source: str = ""
    wall_time: float = 0.0
    error: str | None = None

    @classmethod
    def from_simulation(
        cls,
        spec: JobSpec,
        result: SimulationResult,
        *,
        worker_id: int = -1,
        attempts: int = 1,
        build_seconds: float = 0.0,
        library_source: str = "built",
    ) -> "JobResult":
        k = result.k_effective
        return cls(
            job_id=spec.job_id,
            status="done",
            mode=result.mode,
            n_particles=result.n_particles,
            n_batches=result.n_batches,
            k_effective=k.mean,
            k_std_err=k.std_err,
            k_collision=list(result.statistics.k_collision),
            k_absorption=list(result.statistics.k_absorption),
            k_track=list(result.statistics.k_track),
            entropy=list(result.statistics.entropy),
            counters=result.counters.as_dict(),
            settings_fingerprint=spec.settings_fingerprint(),
            library_fingerprint=spec.library_fingerprint(),
            case_id=spec.case_id,
            suite_id=spec.suite_id,
            scenario_fingerprint=spec.scenario_fingerprint,
            worker_id=worker_id,
            attempts=attempts,
            build_seconds=build_seconds,
            library_source=library_source,
            wall_time=result.wall_time,
        )

    @classmethod
    def failure(
        cls, spec: JobSpec, error: str, *, status: str = "failed",
        worker_id: int = -1, attempts: int = 1,
    ) -> "JobResult":
        # A job can fail *because* its settings are invalid, in which case
        # fingerprinting (which constructs Settings) would raise too.
        try:
            settings_fp = spec.settings_fingerprint()
        except ReproError:
            settings_fp = ""
        return cls(
            job_id=spec.job_id,
            status=status,
            settings_fingerprint=settings_fp,
            library_fingerprint=spec.library_fingerprint(),
            case_id=spec.case_id,
            suite_id=spec.suite_id,
            scenario_fingerprint=spec.scenario_fingerprint,
            worker_id=worker_id,
            attempts=attempts,
            error=error,
        )

    #: The deterministic physics payload: exactly the fields that are a
    #: pure function of the spec (service accounting — worker IDs, waits,
    #: wall times — varies run to run and is excluded).  This is the
    #: surface the bit-identical guarantees quantify over.
    PAYLOAD_FIELDS = (
        "status",
        "mode",
        "n_particles",
        "n_batches",
        "k_effective",
        "k_std_err",
        "k_collision",
        "k_absorption",
        "k_track",
        "entropy",
        "counters",
        "settings_fingerprint",
        "library_fingerprint",
    )

    def payload_dict(self) -> dict:
        """The deterministic physics payload as a plain dict."""
        return {name: getattr(self, name) for name in self.PAYLOAD_FIELDS}

    def payload_json(self) -> str:
        """Canonical exact-float JSON of the payload.

        Python's ``json`` emits shortest-repr floats that parse back
        bit-identically, so two results are physics-equal iff these
        strings are byte-equal — the comparison the gateway's result
        cache and the determinism tests use.
        """
        return json.dumps(self.payload_dict(), sort_keys=True)

    # -- JSON round trip -----------------------------------------------------

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in _RESULT_FIELDS}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        if not isinstance(data, dict):
            raise JobError(
                f"job result must be an object, got {type(data).__name__}"
            )
        unknown = data.keys() - _RESULT_FIELDS
        if unknown:
            raise JobError(f"unknown job result fields {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise JobError(f"malformed job result: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "JobResult":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise JobError(f"job result is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


#: Field names, computed once: these run per journal record in the gateway.
_SPEC_FIELDS = tuple(f.name for f in fields(JobSpec))
_RESULT_FIELDS = tuple(f.name for f in fields(JobResult))
