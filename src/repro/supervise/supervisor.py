"""The supervisor: policy + monitor + eviction bookkeeping for a run.

The paper's symmetric mode (§III-B3) has no answer to a rank that slows or
dies mid-run: the batch barrier simply waits.  The resilience layer (PR 1)
can recover *after* a crash from a checkpoint; the :class:`Supervisor`
watches a run *in flight* and drives **graceful degradation**:

* every batch, each rank's (seconds, particles) observation feeds the
  :class:`~repro.supervise.health.HealthMonitor`;
* a rank declared dead (injected crash, missed heartbeats) or chronically
  straggling (``evict_after`` consecutive batches beyond
  ``straggler_factor``) is **evicted**: removed from the alive set, its
  in-flight global-id slice redistributed across survivors by the caller
  (:func:`repro.resilience.recovery.redistribute_slice`), and subsequent
  batches split over the survivors only;
* eviction below ``min_ranks`` raises
  :class:`~repro.errors.DegradedRunError` — degradation has a floor;
* ``batch_deadline_s`` bounds any single batch, surfacing a hung barrier
  as a typed :class:`~repro.errors.DeadlineExceededError` instead of a
  silent stall.

Determinism argument: eviction changes *which rank* transports a slice,
never *which histories* are run — particle RNG streams are keyed by global
id alone and the fission bank's canonical ``(parent, seq)`` order is
partition-invariant, so a degraded run's banks and work counters are
bit-identical to a fault-free run of the surviving topology (tallies agree
to per-rank summation order, the repo-wide float contract).

This module deliberately imports **no transport, execution, serve, or
cluster code** (enforced by ``tools/check_layering.py``): drivers call
into the supervisor, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DegradedRunError, SupervisionError
from .deadline import Budget
from .health import HealthMonitor, RankStatus

__all__ = ["SupervisionEvent", "SupervisionPolicy", "Supervisor"]


@dataclass(frozen=True)
class SupervisionPolicy:
    """Deterministic thresholds governing one supervised run."""

    #: A rank is straggling when the fastest rank's smoothed rate exceeds
    #: its own by more than this factor.
    straggler_factor: float = 4.0
    #: Consecutive straggling batches before a rank is evicted.
    evict_after: int = 2
    #: Eviction never reduces the alive set below this floor.
    min_ranks: int = 1
    #: Hard bound on a single batch's wall/modelled seconds (None = off).
    batch_deadline_s: float | None = None
    #: Heartbeats older than this (on the caller's clock) mean dead.
    heartbeat_timeout_s: float | None = None
    #: Modelled-communication allowance for the whole run (None = off).
    comm_budget_s: float | None = None

    def __post_init__(self) -> None:
        if self.evict_after < 1:
            raise SupervisionError(
                f"evict_after must be >= 1, got {self.evict_after}"
            )
        if self.min_ranks < 1:
            raise SupervisionError(
                f"min_ranks must be >= 1, got {self.min_ranks}"
            )
        for name in ("batch_deadline_s", "heartbeat_timeout_s",
                     "comm_budget_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise SupervisionError(
                    f"{name} must be positive when set, got {value}"
                )


@dataclass(frozen=True)
class SupervisionEvent:
    """One supervision decision, kept for the run report."""

    batch: int
    rank: int
    action: str  # "evict"
    reason: str  # "crash" | "straggler" | "heartbeat"


@dataclass
class Supervisor:
    """In-flight watchdog for one run across a fixed initial rank set."""

    n_ranks: int = 1
    policy: SupervisionPolicy = field(default_factory=SupervisionPolicy)

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise SupervisionError("Supervisor needs n_ranks >= 1")
        self.monitor = HealthMonitor(
            self.n_ranks,
            straggler_factor=self.policy.straggler_factor,
            heartbeat_timeout_s=self.policy.heartbeat_timeout_s,
        )
        self._alive = list(range(self.n_ranks))
        self.evicted: list[int] = []
        self.events: list[SupervisionEvent] = []
        self.retries = 0
        self._batch = -1
        self.comm_budget: Budget | None = (
            Budget(self.policy.comm_budget_s, label="communication budget")
            if self.policy.comm_budget_s is not None
            else None
        )

    # -- Topology -----------------------------------------------------------------

    @property
    def alive(self) -> list[int]:
        """Surviving ranks, ascending (the current split targets)."""
        return list(self._alive)

    @property
    def batch(self) -> int:
        """Index of the batch currently being supervised (-1 before any)."""
        return self._batch

    def begin_batch(self) -> int:
        """Advance the supervised batch counter; returns the new index."""
        self._batch += 1
        return self._batch

    def evict(self, rank: int, batch: int | None = None,
              reason: str = "dead") -> list[int]:
        """Remove a rank from the alive set; returns the survivors.

        Raises :class:`DegradedRunError` when the eviction would leave
        fewer than ``policy.min_ranks`` survivors — the caller should
        abort (and typically checkpoint-restart on fresh resources)
        rather than limp on.
        """
        if rank not in self._alive:
            raise SupervisionError(
                f"cannot evict rank {rank}: not in alive set {self._alive}"
            )
        survivors = [r for r in self._alive if r != rank]
        if len(survivors) < self.policy.min_ranks:
            raise DegradedRunError(
                f"evicting rank {rank} ({reason}) would leave "
                f"{len(survivors)} rank(s), below the policy floor of "
                f"{self.policy.min_ranks}"
            )
        self._alive = survivors
        self.evicted.append(rank)
        self.monitor.mark_dead(rank)
        self.events.append(
            SupervisionEvent(
                batch=self._batch if batch is None else batch,
                rank=rank, action="evict", reason=reason,
            )
        )
        return list(survivors)

    # -- Observations -------------------------------------------------------------

    def observe_batch(
        self, rank: int, batch: int, seconds: float, n_particles: int
    ) -> float:
        """Record one rank's batch; returns its smoothed rate."""
        return self.monitor.record(rank, batch, seconds, n_particles)

    def note_retry(self, n: int = 1) -> None:
        """Count an aborted-and-reissued operation (a crashed rank's slice
        re-run by the survivors)."""
        self.retries += int(n)

    def enforce_deadline(self, seconds: float, what: str = "batch") -> None:
        """Raise :class:`DeadlineExceededError` when a batch overran
        ``policy.batch_deadline_s`` (no-op without a deadline)."""
        deadline = self.policy.batch_deadline_s
        if deadline is not None and seconds > deadline:
            from ..errors import DeadlineExceededError

            raise DeadlineExceededError(
                f"{what} took {seconds:.3f}s, over the "
                f"{deadline:g}s batch deadline",
                deadline_s=deadline,
                elapsed_s=seconds,
            )

    def finish_batch(self, batch: int | None = None,
                     now: float | None = None) -> list[int]:
        """Close out a batch: update straggle streaks, evict chronic
        stragglers.  Returns the ranks evicted by this call (possibly
        empty); raises :class:`DegradedRunError` at the policy floor."""
        streaks = self.monitor.update_straggles(now)
        evicted: list[int] = []
        for rank in self.alive:
            if streaks.get(rank, 0) >= self.policy.evict_after:
                self.evict(rank, batch=batch, reason="straggler")
                evicted.append(rank)
        return evicted

    def check_heartbeats(self, now: float) -> list[int]:
        """Evict every alive rank whose heartbeat has timed out at
        ``now``; returns the evicted ranks."""
        evicted = []
        for rank in self.alive:
            if self.monitor.classify(rank, now) is RankStatus.DEAD:
                self.evict(rank, reason="heartbeat")
                evicted.append(rank)
        return evicted

    # -- Simulation-driver hook ---------------------------------------------------

    def batch_callback(self):
        """An ``on_batch`` observer for :meth:`repro.transport.simulation.
        Simulation.run`: records each batch as rank 0 and enforces the
        batch deadline (raising aborts the run, typed)."""

        def on_batch(batch: int, seconds: float, n_particles: int) -> None:
            self._batch = max(self._batch, batch)
            self.observe_batch(0, batch, seconds, n_particles)
            self.enforce_deadline(seconds, what=f"batch {batch}")

        return on_batch

    # -- Export -------------------------------------------------------------------

    def report(self, now: float | None = None) -> dict:
        """The run's supervision document: topology, events, health."""
        return {
            "batches": self._batch + 1,
            "alive": self.alive,
            "evicted": list(self.evicted),
            "retries": self.retries,
            "events": [
                {"batch": e.batch, "rank": e.rank, "action": e.action,
                 "reason": e.reason}
                for e in self.events
            ],
            "health": self.monitor.summary(now),
            "comm_budget_spent_s": (
                self.comm_budget.spent if self.comm_budget else None
            ),
        }
