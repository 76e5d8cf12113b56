"""Work-stealing rebalancing at batch barriers (ROADMAP item 4).

The paper's symmetric mode fixes the split once (Eq. 3's static alpha);
the supervision layer (PR 5) already *measures* who is slow — per-rank
EMA calculation rates in :class:`repro.supervise.HealthMonitor` — but
could only evict.  :class:`WorkStealingRebalancer` closes the loop: at
each batch barrier it re-plans the assignment from the measured rates,
keeping the head of every rank's equal-split slice in place and moving
*tail* sub-slices from stragglers (donors) to fast devices (receivers)
through :func:`repro.resilience.recovery.redistribute_slice` — the same
global-particle-id primitive rank-loss recovery uses.

Determinism contract (DESIGN.md §16): the plan is a pure function of
``(n, alive, rates)``.  Because every moved slice keeps its *global*
first id, a rebalanced run transports exactly the histories a static run
of the same final assignment would: fission banks and work counters stay
bit-identical, and tallies agree to summation-order tolerance (per-rank
partial sums merge in a different association).  When the rates are equal
the plan *is* the equal split and the whole run is bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import ExecutionError
from ..resilience.recovery import redistribute_slice
from .loadbalance import equal_assignments, fleet_split

__all__ = ["StealEvent", "WorkStealingRebalancer"]


@dataclass(frozen=True)
class StealEvent:
    """One tail sub-slice moved from a straggler to a faster rank."""

    batch: int
    donor: int
    receiver: int
    start: int
    count: int


@dataclass
class WorkStealingRebalancer:
    """Plans per-batch ``(rank, slice)`` assignments from measured rates.

    Each batch starts from the contiguous equal split over the alive
    ranks (what a run without a rebalancer executes) and steals tail
    sub-slices until the assignment matches the rate-proportional
    :func:`~repro.execution.loadbalance.fleet_split` targets.  Stateless
    across batches: the EMA rates carry the history, so the plan
    converges as the monitor's rates do.
    """

    #: Skip rebalancing when fewer than this fraction of the batch would
    #: move — sub-percent imbalance is barrier noise, not signal.
    min_move_fraction: float = 0.02
    #: Optional override returning a rank's rate (tests and couplings like
    #: the alpha controller); ``None`` falls back to the health monitor.
    rate_source: Callable[[int], "float | None"] | None = None
    #: Audit trail of every steal, in plan order.
    events: list[StealEvent] = field(default_factory=list)

    def resolve_rates(
        self, alive: Sequence[int], monitor=None
    ) -> "list[float] | None":
        """Per-rank rates in ``alive`` order, or ``None`` until every
        alive rank has a positive measurement (first batch runs equal)."""
        rates: list[float] = []
        for rank in alive:
            rate = (
                self.rate_source(rank)
                if self.rate_source is not None
                else (monitor.rate(rank) if monitor is not None else None)
            )
            if rate is None or rate <= 0:
                return None
            rates.append(rate)
        return rates

    def plan(
        self,
        batch: int,
        n: int,
        alive: Sequence[int],
        rates: "Sequence[float] | None",
    ) -> list[tuple[int, slice]]:
        """Assignment for one batch: equal-split base, tails stolen to
        match the rate-proportional targets.

        Returns ``(rank, slice)`` pairs covering ``[0, n)`` exactly once.
        """
        if not alive:
            raise ExecutionError("no alive ranks to plan over")
        static = equal_assignments(n, alive)
        if rates is None:
            return static
        base = [sl.stop - sl.start for _, sl in static]
        starts = [sl.start for _, sl in static]
        targets = fleet_split(n, list(rates))
        moved = sum(max(b - t, 0) for b, t in zip(base, targets))
        if moved == 0 or moved < self.min_move_fraction * n:
            return static
        assignments: list[tuple[int, slice]] = []
        released: list[tuple[int, slice]] = []
        deficits = [max(t - b, 0) for b, t in zip(base, targets)]
        for i, rank in enumerate(alive):
            keep = min(base[i], targets[i])
            if keep > 0:
                assignments.append((rank, slice(starts[i], starts[i] + keep)))
            if base[i] > targets[i]:
                released.append(
                    (rank, slice(starts[i] + keep, starts[i] + base[i]))
                )
        remaining = {
            rank: deficit for rank, deficit in zip(alive, deficits) if deficit
        }
        receivers = list(remaining)
        for donor, sl in released:
            weights = [float(remaining[r]) for r in receivers]
            if sum(weights) <= 0:
                # Float rounding in a prior range over-satisfied every
                # deficit; hand the leftover back evenly.
                pieces = redistribute_slice(sl, list(receivers))
            else:
                pieces = redistribute_slice(sl, list(receivers), weights)
            for rank, piece in pieces:
                assignments.append((rank, piece))
                remaining[rank] = max(
                    remaining[rank] - (piece.stop - piece.start), 0
                )
                self.events.append(
                    StealEvent(
                        batch=batch,
                        donor=donor,
                        receiver=rank,
                        start=piece.start,
                        count=piece.stop - piece.start,
                    )
                )
        assignments.sort(key=lambda pair: pair[1].start)
        return assignments

    def summary(self) -> dict:
        """Steal-traffic report: totals and per-(donor, receiver) counts."""
        pairs: dict[tuple[int, int], int] = {}
        for ev in self.events:
            pairs[(ev.donor, ev.receiver)] = (
                pairs.get((ev.donor, ev.receiver), 0) + ev.count
            )
        return {
            "steals": len(self.events),
            "particles_moved": sum(ev.count for ev in self.events),
            "batches": len({ev.batch for ev in self.events}),
            "pairs": {
                f"{donor}->{receiver}": count
                for (donor, receiver), count in sorted(pairs.items())
            },
        }
