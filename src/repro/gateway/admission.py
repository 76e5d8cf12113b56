"""Gateway-edge admission control: bounded, fair, typed backpressure.

Admission is the one capacity in the service tier: it is a hard bound,
rejection is a typed :class:`~repro.errors.QueueFullError` carrying an
**adaptive retry-after** estimate, and nothing is ever silently dropped.
Below it, shard queues hold whatever it admits.  Two properties at
gateway scale:

* **Per-class fairness.**  Jobs are classed by priority band; one class
  may hold at most ``max_class_share`` of total capacity.  Under mixed
  traffic a flood of one class throttles itself (typed rejection naming
  the class) while other classes keep admitting — the queue-level
  priority ordering alone cannot provide this, because by the time jobs
  are queued the capacity is already spent.
* **Cluster-wide drain model.**  The retry hint (:class:`RetryAfterModel`)
  divides the smoothed mean service time by the fleet's worker slots
  (shards x workers, shrinking as shards are quarantined).

Admission state is in-flight occupancy, not queue depth: a job holds its
slot from ``admit`` until the gateway records its result (done, failed,
poisoned, or served from the result cache), so the bound covers work
resident anywhere in the tier — shard queues, batchers, and worker
processes alike.
"""

from __future__ import annotations

import threading

from ..errors import GatewayError, QueueFullError
from ..serve.jobs import JobSpec

__all__ = ["AdmissionController"]


class RetryAfterModel:
    """The adaptive retry-after hint of a full gateway: an EMA of job
    service time over the worker slots draining it — one slot frees
    roughly every ``mean / slots`` seconds."""

    ALPHA = 0.3
    FLOOR_S = 0.05

    def __init__(self) -> None:
        self.mean_service_s = 0.0
        #: The current hint; 1 s until a completion has been measured.
        self.seconds = 1.0

    def note(self, service_s: float, slots: int) -> None:
        """Fold one completion's service time in (non-positive
        observations are ignored)."""
        if service_s > 0:
            self.mean_service_s = (
                service_s
                if self.mean_service_s == 0.0
                else self.ALPHA * service_s
                + (1 - self.ALPHA) * self.mean_service_s
            )
            self.seconds = max(self.FLOOR_S, self.mean_service_s / slots)


class AdmissionController:
    """Bounded in-flight admission with per-class fairness caps."""

    def __init__(
        self,
        capacity: int = 256,
        *,
        max_class_share: float = 0.5,
        slots: int = 1,
    ) -> None:
        if capacity < 1:
            raise GatewayError(
                f"admission capacity must be >= 1, got {capacity}"
            )
        if not 0.0 < max_class_share <= 1.0:
            raise GatewayError(
                f"max_class_share must be in (0, 1], got {max_class_share}"
            )
        if slots < 1:
            raise GatewayError(f"slots must be >= 1, got {slots}")
        self.capacity = capacity
        self.max_class_share = max_class_share
        #: Fleet worker slots feeding the retry-after model; the gateway
        #: updates this as shards are quarantined.
        self.slots = slots
        self._lock = threading.Lock()
        self._in_flight = 0
        self._per_class: dict[str, int] = {}
        self._retry = RetryAfterModel()

    # -- Classing ------------------------------------------------------------

    @staticmethod
    def class_of(spec: JobSpec) -> str:
        """The fairness class of a spec: its priority band."""
        return f"priority-{spec.priority}"

    @property
    def class_cap(self) -> int:
        """Per-class occupancy bound (never below one slot)."""
        return max(1, int(self.capacity * self.max_class_share))

    # -- Admission -----------------------------------------------------------

    def admit(self, spec: JobSpec, *, exempt: bool = False) -> str:
        """Take one slot for ``spec``; raises :class:`QueueFullError`.

        Returns the class the slot was charged to (the token
        :meth:`release` must return).  ``exempt=True`` is the recovery
        path: journal-replayed jobs were *already admitted once* by the
        dead incarnation, so they re-enter past the capacity and
        fairness checks — but still count toward occupancy, keeping the
        in-flight bound honest for new traffic.
        """
        cls = self.class_of(spec)
        with self._lock:
            if exempt:
                self._in_flight += 1
                self._per_class[cls] = self._per_class.get(cls, 0) + 1
                return cls
            if self._in_flight >= self.capacity:
                raise QueueFullError(
                    f"gateway at capacity ({self.capacity} jobs in "
                    f"flight); retry in {self._retry.seconds:.2f}s",
                    retry_after_s=self._retry.seconds,
                )
            held = self._per_class.get(cls, 0)
            if held >= self.class_cap:
                raise QueueFullError(
                    f"class {cls} at its fairness cap ({self.class_cap} of "
                    f"{self.capacity} slots); retry in "
                    f"{self._retry.seconds:.2f}s",
                    retry_after_s=self._retry.seconds,
                )
            self._in_flight += 1
            self._per_class[cls] = held + 1
        return cls

    def release(self, cls: str) -> None:
        """Return the slot charged to class ``cls`` (on any resolution)."""
        with self._lock:
            held = self._per_class.get(cls, 0)
            if held <= 0 or self._in_flight <= 0:
                raise GatewayError(
                    f"admission release for class {cls!r} with no slot held"
                )
            self._in_flight -= 1
            if held == 1:
                del self._per_class[cls]
            else:
                self._per_class[cls] = held - 1

    # -- Adaptive retry-after ------------------------------------------------

    def note_service(self, seconds: float) -> None:
        """Fold one completion's service time into the retry-after model."""
        with self._lock:
            self._retry.note(seconds, self.slots)

    @property
    def retry_after_s(self) -> float:
        with self._lock:
            return self._retry.seconds

    # -- Observability -------------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "in_flight": self._in_flight,
                "class_cap": self.class_cap,
                "per_class": dict(sorted(self._per_class.items())),
                "retry_after_s": self._retry.seconds,
                "slots": self.slots,
            }
