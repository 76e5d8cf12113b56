"""Exception hierarchy for the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GeometryError(ReproError):
    """A particle could not be located, or a model is inconsistent."""


class DataError(ReproError):
    """Nuclear-data construction or lookup failed."""


class PhysicsError(ReproError):
    """A physics routine received an unphysical state."""


class MachineModelError(ReproError):
    """The device/cost model was configured or queried inconsistently."""


class ExecutionError(ReproError):
    """An execution model (offload/native/symmetric) was misconfigured."""


class ClusterError(ReproError):
    """The simulated cluster/communicator was used incorrectly."""


class CommunicationError(ClusterError):
    """A collective received malformed buffers (shape/count/value)."""


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or validated."""


class FaultInjectionError(ReproError):
    """A fault-injection plan was configured or queried inconsistently."""


class SupervisionError(ReproError):
    """The supervision layer was misconfigured or misused (bad policy
    thresholds, evicting an unknown rank, negative budget spend)."""


class DeadlineExceededError(SupervisionError):
    """An operation overran its deadline or exhausted its time budget.

    Raised by :class:`repro.supervise.Deadline`/:class:`~repro.supervise.
    Budget` and by the layers they wrap: simulated-fabric collectives, PCIe
    bank shipments aborted at the retry policy's stall timeout, and the
    serve drain loop.  ``deadline_s`` is the allowance that was exceeded and
    ``elapsed_s`` the time actually consumed (when known).
    """

    def __init__(
        self,
        message: str,
        *,
        deadline_s: float | None = None,
        elapsed_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s


class DegradedRunError(SupervisionError):
    """Graceful degradation hit its floor: evicting one more rank would
    leave fewer survivors than the supervision policy's ``min_ranks``."""


class ServeError(ReproError):
    """The simulation service was configured or used incorrectly."""


class JobError(ServeError):
    """A job specification or result was malformed."""


class QueueFullError(ServeError):
    """The gateway's admission is at capacity (or the job's priority class
    is at its fairness cap); retry after ``retry_after_s`` seconds.

    Backpressure is a *typed* rejection, not a silent drop: callers receive
    an estimate of when capacity should free up (derived from the tier's
    recent drain rate) and are expected to resubmit.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class WorkerCrashError(ServeError):
    """A worker process died while a job was in flight."""


class PoisonedJobError(ServeError):
    """A job crashed its worker on every attempt and has been quarantined.

    The circuit breaker trips after ``crashes`` consecutive worker deaths
    with this job in flight; the pool stops respawning workers *for this
    job* (the pool itself stays healthy) and the service records the
    quarantine as a typed failure in the :class:`~repro.serve.jobs.
    JobResult`.
    """

    def __init__(self, message: str, *, job_id: str = "", crashes: int = 0) -> None:
        super().__init__(message)
        self.job_id = job_id
        self.crashes = int(crashes)


class GatewayError(ReproError):
    """The gateway tier was configured or used incorrectly (no routable
    shard, duplicate submission, submitting to a stopped gateway)."""


class JournalError(GatewayError):
    """The write-ahead journal is unusable: wrong version header, a
    sequence-number discontinuity (valid frames spliced or replayed out of
    order), or an append against a closed journal.

    A *torn tail* — a partially written final record after a crash — is
    NOT an error: the scan detects it by frame checksum and truncates it.
    ``JournalError`` marks corruption the framing cannot repair.
    """


class CorruptEntryError(ReproError):
    """A sealed file (:func:`repro.durable.read_sealed`) failed its digest.

    The disk caches answer it by *quarantining* the entry (rename to
    ``*.corrupt``) and counting it, never by crashing a reader; a
    checkpoint load reports it as a :class:`CheckpointError`.  ``path`` is
    the offending file.
    """

    def __init__(self, message: str, *, path: str = "") -> None:
        super().__init__(message)
        self.path = str(path)


class ChaosError(ReproError):
    """A chaos schedule/runner was misconfigured, or a chaos invariant
    (byte-identical recovery, exactly-once landing, monotonic journal
    sequence) was violated during a run."""


class ShardQuarantinedError(GatewayError):
    """A shard was quarantined (sick-shard circuit tripped or an operator
    eviction) while work was being routed to it.

    Routing never raises this for *new* work — the consistent-hash ring
    deterministically remaps around quarantined shards — but it surfaces
    when quarantine would leave the gateway with no shard at all.
    """

    def __init__(self, message: str, *, shard_id: int = -1) -> None:
        super().__init__(message)
        self.shard_id = int(shard_id)


class ScenarioError(ReproError):
    """A scenario document failed validation or compilation.

    ``errors`` carries every individual finding as a ``"path: message"``
    string (e.g. ``"materials.fuel.enrichment_scale: must be > 0"``), so a
    user fixes a whole document in one round trip instead of one field per
    run.
    """

    def __init__(self, message: str, *, errors: tuple = ()) -> None:
        super().__init__(message)
        self.errors = tuple(errors)


class SuiteError(ScenarioError):
    """A case-suite document (sweep axes, base scenario) was malformed."""
