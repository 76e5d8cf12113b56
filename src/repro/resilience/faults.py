"""Deterministic fault injection: seeded schedules of crashes and stalls.

Resilience code that is only exercised by real failures is untested code.
This module generates a **deterministic fault plan** from a seed — using the
same 63-bit LCG as particle transport, so schedules are reproducible across
platforms and NumPy versions — and the execution layers consult it:

* ``RANK_CRASH`` — a rank dies mid-generation in
  :class:`repro.cluster.distributed.DistributedSimulation`; its batch work
  is lost and its particle slice must be re-run by survivors;
* ``TRANSFER_STALL`` — a PCIe bank shipment in
  :class:`repro.execution.offload.OffloadCostModel` hangs for ``magnitude``
  seconds before the retry policy aborts and re-ships it;
* ``MID_BATCH_KILL`` — the whole (serial) process dies after transporting a
  generation but before recording it, the worst case for checkpoint/restart
  (a full batch of work is lost).

Injected faults are raised as :class:`SimulatedCrash` so tests can treat
them exactly like a process kill: nothing downstream of the raise runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import FaultInjectionError, ReproError
from ..rng.lcg import RandomStream

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "SimulatedCrash",
           "sample_schedule"]


def sample_schedule(seed: int, slots, kinds, error=FaultInjectionError) -> list:
    """The seeded sampler under every fault schedule (this module's
    :class:`FaultPlan`, the chaos harness's ``ChaosSchedule``).

    ``kinds`` is an ordered sequence of ``(kind, p, drawn)``; a ``p``
    outside [0, 1] raises ``error`` naming ``p_<kind.value>``.  One
    :class:`~repro.rng.lcg.RandomStream` is consumed slot by slot, kind by
    kind: ``prn() < p`` decides whether the kind fires, and a ``drawn`` kind
    that fires takes one more uniform (victim, entry, magnitude).  Returns
    the ``(slot, kind, uniform or None)`` that fired, in draw order — the
    schedule's identity on any platform.
    """
    for kind, p, _ in kinds:
        if not 0.0 <= p <= 1.0:
            raise error(f"p_{kind.value} must be in [0, 1], got {p}")
    stream = RandomStream(seed=seed)
    fired = []
    for slot in slots:
        for kind, p, drawn in kinds:
            if stream.prn() < p:
                fired.append((slot, kind, stream.prn() if drawn else None))
    return fired


class SimulatedCrash(ReproError):
    """An injected failure: treat as a process/rank death, not a bug."""


class FaultKind(enum.Enum):
    """The failure modes the plan can schedule."""

    RANK_CRASH = "rank_crash"
    TRANSFER_STALL = "transfer_stall"
    MID_BATCH_KILL = "mid_batch_kill"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure.

    ``batch`` indexes the generation (or offload iteration for stalls);
    ``rank`` is the victim rank for crashes (-1 for serial/global events);
    ``magnitude`` is the stall duration in seconds for transfer stalls.
    """

    kind: FaultKind
    batch: int
    rank: int = -1
    magnitude: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, queryable schedule of fault events."""

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    @classmethod
    def generate(
        cls,
        seed: int,
        n_batches: int,
        n_ranks: int = 1,
        p_rank_crash: float = 0.0,
        p_transfer_stall: float = 0.0,
        p_mid_batch_kill: float = 0.0,
        stall_seconds: float = 0.25,
    ) -> "FaultPlan":
        """Sample a schedule: fixed seed, fixed schedule, any platform.

        Each batch independently draws each fault type from the shared LCG
        (so the schedule is a pure function of ``seed`` and the shape
        arguments).  At most one rank crashes per batch, and the victim is
        drawn uniformly from the ranks.
        """
        if n_batches < 0 or n_ranks < 1:
            raise FaultInjectionError("need n_batches >= 0 and n_ranks >= 1")
        fired = sample_schedule(seed, range(n_batches), (
            (FaultKind.RANK_CRASH, p_rank_crash, True),
            (FaultKind.TRANSFER_STALL, p_transfer_stall, True),
            (FaultKind.MID_BATCH_KILL, p_mid_batch_kill, False),
        ))
        events = []
        for batch, kind, u in fired:
            if kind is FaultKind.RANK_CRASH:
                event = FaultEvent(kind, batch, rank=int(u * n_ranks))
            elif kind is FaultKind.TRANSFER_STALL:
                magnitude = stall_seconds * (0.5 + u)
                event = FaultEvent(kind, batch, magnitude=magnitude)
            else:
                event = FaultEvent(kind, batch)
            events.append(event)
        return cls(events=tuple(events))

    @classmethod
    def single(
        cls, kind: FaultKind, batch: int, rank: int = -1, magnitude: float = 0.0
    ) -> "FaultPlan":
        """A plan with exactly one event (the common test fixture)."""
        return cls(events=(FaultEvent(kind, batch, rank, magnitude),))

    # -- Queries -----------------------------------------------------------------

    def at(self, batch: int, kind: FaultKind | None = None) -> list[FaultEvent]:
        return [
            e
            for e in self.events
            if e.batch == batch and (kind is None or e.kind == kind)
        ]

    def kills_at(self, batch: int) -> bool:
        """Does the serial process die mid-way through this batch?"""
        return bool(self.at(batch, FaultKind.MID_BATCH_KILL))

    def crashed_rank(self, batch: int) -> int | None:
        """The rank that dies during this batch, or ``None``."""
        crashes = self.at(batch, FaultKind.RANK_CRASH)
        return crashes[0].rank if crashes else None

    def stall_seconds(self, iteration: int) -> float:
        """Total injected PCIe stall time for one offload iteration."""
        return sum(
            e.magnitude for e in self.at(iteration, FaultKind.TRANSFER_STALL)
        )
