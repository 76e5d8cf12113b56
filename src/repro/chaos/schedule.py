"""Seeded chaos schedules: which fault, at which boundary, on whom.

A schedule is a **pure function of its seed** — the same guarantee
:class:`~repro.resilience.faults.FaultPlan` makes one tier down, built
on the same 63-bit LCG as particle transport, so a chaos failure
reproduces from nothing but ``(seed, shape arguments)`` on any platform.

The unit of placement is the **journal boundary**: the gap after write-
ahead journal record ``seq`` (boundary *k* = "the process dies with
record *k* durable and record *k+1* never written").  Gateway kills
target a boundary exactly; the other kinds use the boundary only as a
deterministic draw position.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ChaosError
from ..resilience.faults import sample_schedule

__all__ = ["ChaosEvent", "ChaosKind", "ChaosSchedule"]


class ChaosKind(enum.Enum):
    """The process-level failure modes the harness can inject."""

    #: The gateway process dies between journal records ``boundary`` and
    #: ``boundary + 1``; a fresh incarnation recovers from the journal.
    GATEWAY_KILL = "gateway_kill"
    #: One shard drops dead mid-drain (unforwarded results lost); the
    #: gateway quarantines it and re-routes its manifest.
    SHARD_KILL = "shard_kill"
    #: One result-cache disk entry gets a flipped byte.
    DISK_CORRUPT = "disk_corrupt"
    #: One result-cache disk entry is truncated mid-file.
    DISK_TRUNCATE = "disk_truncate"
    #: A torn (partially written) pending file lands in the serve spool.
    SPOOL_PARTIAL = "spool_partial"


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled failure.

    ``boundary`` is the journal sequence number after which the fault
    fires (gateway kills) or the deterministic draw position (all other
    kinds); ``shard`` is the victim shard for shard kills (-1 when not
    applicable); ``entry`` selects which cache entry (by sorted index)
    a disk fault damages.
    """

    kind: ChaosKind
    boundary: int
    shard: int = -1
    entry: int = 0


@dataclass(frozen=True)
class ChaosSchedule:
    """An immutable, queryable schedule of chaos events."""

    seed: int = 0
    events: tuple[ChaosEvent, ...] = field(default_factory=tuple)

    @classmethod
    def generate(
        cls,
        seed: int,
        n_boundaries: int,
        n_shards: int = 2,
        p_gateway_kill: float = 0.0,
        p_shard_kill: float = 0.0,
        p_disk_corrupt: float = 0.0,
        p_disk_truncate: float = 0.0,
        p_spool_partial: float = 0.0,
    ) -> "ChaosSchedule":
        """Sample a schedule: fixed seed, fixed schedule, any platform.

        Each boundary independently draws each fault kind from the
        shared LCG, so the schedule is a pure function of ``seed`` and
        the shape arguments — rerunning with the same seed replays the
        exact same failures in the exact same order.
        """
        if n_boundaries < 0:
            raise ChaosError(
                f"need n_boundaries >= 0, got {n_boundaries}"
            )
        if n_shards < 2:
            # A shard kill needs a survivor to quarantine around, and
            # the single-shard gateway never quarantines its last shard.
            raise ChaosError(f"need n_shards >= 2, got {n_shards}")
        fired = sample_schedule(seed, range(1, n_boundaries + 1), (
            (ChaosKind.GATEWAY_KILL, p_gateway_kill, False),
            (ChaosKind.SHARD_KILL, p_shard_kill, True),
            (ChaosKind.DISK_CORRUPT, p_disk_corrupt, True),
            (ChaosKind.DISK_TRUNCATE, p_disk_truncate, True),
            (ChaosKind.SPOOL_PARTIAL, p_spool_partial, False),
        ), ChaosError)
        events = []
        for boundary, kind, u in fired:
            if kind is ChaosKind.SHARD_KILL:
                event = ChaosEvent(kind, boundary, shard=int(u * n_shards))
            elif u is not None:
                event = ChaosEvent(kind, boundary, entry=int(u * n_boundaries))
            else:
                event = ChaosEvent(kind, boundary)
            events.append(event)
        return cls(seed=seed, events=tuple(events))

    @classmethod
    def kill_every_boundary(cls, n_boundaries: int) -> "ChaosSchedule":
        """The exhaustive sweep: one gateway kill after *every* record.

        This is the strongest statement the harness makes — there is no
        pair of adjacent journal records between which a crash loses
        landed work or double-runs it.
        """
        if n_boundaries < 1:
            raise ChaosError(
                f"need n_boundaries >= 1, got {n_boundaries}"
            )
        return cls(
            seed=0,
            events=tuple(
                ChaosEvent(ChaosKind.GATEWAY_KILL, boundary)
                for boundary in range(1, n_boundaries + 1)
            ),
        )

    # -- Queries -------------------------------------------------------------

    def by_kind(self, kind: ChaosKind) -> list[ChaosEvent]:
        return [e for e in self.events if e.kind == kind]

    def kill_boundaries(self) -> list[int]:
        """The journal boundaries at which the gateway dies, in order."""
        return [
            e.boundary for e in self.by_kind(ChaosKind.GATEWAY_KILL)
        ]

    def __len__(self) -> int:
        return len(self.events)
