"""Lane-utilization analysis of a transport run's queue trace.

As a generation drains, the event queues shrink; once a queue holds fewer
particles than the vector width (or a non-multiple), trailing lanes idle.
:func:`queue_lane_efficiency` converts the per-stage queue occupancies
(:class:`repro.transport.stats.TransportStats`, recorded by *either*
backend — per event cycle on the banked schedule, per particle history on
the scalar one) into the lane efficiency a ``width``-lane machine would
achieve — the quantitative form of the paper's observation that banking
needs *large* banks (Fig. 3's ">10,000 particles" crossover has a
lane-utilization component as well as a PCIe one).  Run on a history
trace, the report shows what vectorizing *those* histories as-is would
waste — the divergence the event schedule exists to absorb.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..transport.stats import TransportStats

__all__ = [
    "queue_lane_efficiency",
    "divergence_loss",
    "lane_utilization_report",
]


def queue_lane_efficiency(queue_sizes: Iterable[int], width: int = 16) -> float:
    """Aggregate lane efficiency of processing each queue in ``width`` chunks.

    ``sum(q) / sum(ceil(q / width) * width)`` over all queue drains.
    """
    total_active = 0
    total_slots = 0
    for q in queue_sizes:
        if q < 0:
            raise ValueError("negative queue size")
        if q == 0:
            continue
        total_active += q
        total_slots += math.ceil(q / width) * width
    return total_active / total_slots if total_slots else 1.0


def divergence_loss(
    branch_fractions: Iterable[float], width: int = 16
) -> float:
    """Expected lane efficiency when a bank splits into branches.

    If a bank of many particles splits into sub-banks with the given
    fractions and each sub-bank is compressed and executed separately,
    efficiency approaches 1 for large banks; but under *masked* execution
    (no compress), every branch pays full-width issue and efficiency is
    ``1 / n_branches``-ish weighted by fractions.  This helper returns the
    masked-execution efficiency: ``1 / sum over branches of 1`` weighted —
    i.e. ``1 / (number of executed branches)`` when all lanes take some
    branch: sum(f_i) / n_branches executed.
    """
    fractions = [f for f in branch_fractions if f > 0]
    if not fractions:
        return 1.0
    total = sum(fractions)
    if total > 1.0 + 1e-9:
        raise ValueError("branch fractions exceed 1")
    # Masked execution issues every branch across all lanes.
    return total / len(fractions)


def lane_utilization_report(
    stats: "TransportStats", width: int = 16
) -> dict:
    """Per-stage lane utilization from a transport run's queue trace.

    Combines :meth:`~repro.transport.stats.TransportStats.summary`
    occupancy statistics with :func:`queue_lane_efficiency` for each
    stage, so one call answers "how full were the SIMD lanes in each
    stage of this run?" — for either backend's trace.

    Returns ``{"iterations", "width", "stages": {stage: {"mean", "min",
    "max", "total", "lane_efficiency"}}, "gather": {"mean_stride",
    "strides"}}``.  The ``gather`` section is the union-grid
    gather-locality profile recorded by the event schedule
    (:meth:`~repro.transport.stats.TransportStats.record_gather_indices`):
    ``mean_stride`` is the mean absolute index stride between consecutive
    XS-lookup gathers in tile-dispatch order — small against the
    union-grid size because every tile is an energy band — or ``None``
    when no gather stream was recorded (history trace, no union grid).
    """
    if width <= 0:
        raise ValueError("width must be positive")
    summary = stats.summary()
    counts_by_stage = {
        "lookup": stats.lookup_counts,
        "collision": stats.collision_counts,
        "crossing": stats.crossing_counts,
    }
    stages = {}
    for name, occ in summary["stages"].items():
        stages[name] = dict(occ)
        stages[name]["lane_efficiency"] = queue_lane_efficiency(
            counts_by_stage[name], width=width
        )
    return {
        "iterations": summary["iterations"],
        "width": width,
        "stages": stages,
        "gather": summary["gather"],
    }
