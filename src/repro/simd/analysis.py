"""Lane-utilization analysis of event-queue occupancies.

As a generation drains, the event queues shrink; once a queue holds fewer
particles than the vector width (or a non-multiple), trailing lanes idle.
:func:`queue_lane_efficiency` converts a sequence of queue sizes into the
lane efficiency a ``width``-lane machine would achieve — the quantitative
form of the paper's observation that banking needs *large* banks (Fig. 3's
">10,000 particles" crossover has a lane-utilization component as well as
a PCIe one).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = ["queue_lane_efficiency", "divergence_loss"]


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
