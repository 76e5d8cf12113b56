r"""Static and adaptive load balancing for symmetric mode (paper §III-B3, §V).

With host and MIC ranks running the same binary, OpenMC's default static
split (equal particles per rank) leaves the faster device idle at the batch
barrier.  The paper's fix solves

.. math::

    p_{mic} n_{mic} + p_{cpu} n_{cpu} = n_{total}, \qquad
    n_{cpu} / n_{mic} = \alpha

for the per-rank particle counts (Eq. 3):

.. math::

    n_{mic} = \frac{n_{total}}{p_{mic} + p_{cpu}\alpha}, \qquad
    n_{cpu} = \frac{\alpha\, n_{total}}{p_{mic} + p_{cpu}\alpha}.

§V sketches the runtime-adaptive variant — start at :math:`\alpha = 1/p`
equivalently an equal split, measure each rank's rate on the first batch,
and rebalance — implemented here as :class:`AdaptiveAlphaController`.

:func:`fleet_split` generalizes Eq. 3 to an ordered fleet of N
heterogeneous devices: rank :math:`i` with rate weight :math:`w_i`
receives :math:`n_i = \mathrm{round}(n\, w_i / \sum_j w_j)`, with the
first positive-weight rank absorbing the rounding remainder.  Eq. 3 is
the N=2 special case: for weights ``[1.0, alpha]`` the denominator
accumulates to exactly ``1 + alpha`` and the two counts are bit-identical
to :func:`alpha_split`'s ``(n_mic, n_cpu)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ExecutionError

__all__ = [
    "alpha_split",
    "alpha_split_counts",
    "equal_assignments",
    "equal_split",
    "fleet_split",
    "AdaptiveAlphaController",
]


def equal_split(n_total: int, p: int) -> list[int]:
    """OpenMC's default static assignment: ``n_total / p`` each (remainder
    to the first ranks)."""
    if p < 1:
        raise ExecutionError("need at least one rank")
    base = n_total // p
    rem = n_total % p
    return [base + (1 if r < rem else 0) for r in range(p)]


def equal_assignments(
    n_total: int, ranks: Sequence[int]
) -> list[tuple[int, slice]]:
    """The equal split as contiguous ``(rank, slice)`` pairs over ``ranks``
    in order — the static plan of every rank-split driver."""
    assignments = []
    start = 0
    for rank, count in zip(ranks, equal_split(n_total, len(ranks))):
        assignments.append((rank, slice(start, start + count)))
        start += count
    return assignments


def alpha_split(
    n_total: int, p_mic: int, p_cpu: int, alpha: float
) -> tuple[int, int]:
    """Eq. (3): particles per MIC rank and per CPU rank.

    Counts are rounded; the MIC ranks absorb the rounding remainder so the
    total is exact.  For the paper's example (1e7 particles, 1 MIC + 1 CPU,
    alpha = 0.62) this returns (6,172,840, 3,827,160).
    """
    if p_mic < 0 or p_cpu < 0 or p_mic + p_cpu == 0:
        raise ExecutionError("invalid rank counts")
    if alpha <= 0:
        raise ExecutionError("alpha must be positive")
    if p_mic == 0:
        # Degenerate CPU-only split: first-rank count of the equal split
        # (ceil rather than the old silent floor, so no rank sits idle on
        # a dropped remainder).
        return 0, equal_split(n_total, p_cpu)[0]
    if p_cpu == 0:
        return equal_split(n_total, p_mic)[0], 0
    denom = p_mic + p_cpu * alpha
    n_cpu = int(round(n_total * alpha / denom))
    # Rounding can overshoot the population when alpha is extreme and
    # p_cpu large; clamp so no count goes negative.
    n_cpu = min(n_cpu, n_total // p_cpu)
    # MIC ranks take exactly the rest (integer-exact total).
    n_mic = (n_total - p_cpu * n_cpu) // p_mic
    return n_mic, n_cpu


def alpha_split_counts(
    n_total: int, p_mic: int, p_cpu: int, alpha: float
) -> tuple[list[int], list[int]]:
    """Eq. (3) with explicit per-rank counts that sum *exactly* to
    ``n_total``.

    The scalar :func:`alpha_split` returns one count per device class and
    (for ``p_mic > 1``) floors away the remainder; this variant keeps the
    same CPU count (bit-identical to :func:`alpha_split`'s general branch)
    and spreads the exact MIC-side remainder over the MIC ranks
    equal-split style.  Degenerate classes (``p_mic == 0`` or
    ``p_cpu == 0``) fall back to :func:`equal_split` of the live class.
    Returns ``(mic_counts, cpu_counts)``.
    """
    _, n_cpu = alpha_split(n_total, p_mic, p_cpu, alpha)  # validates
    if p_mic == 0:
        return [], equal_split(n_total, p_cpu)
    if p_cpu == 0:
        return equal_split(n_total, p_mic), []
    return equal_split(n_total - p_cpu * n_cpu, p_mic), [n_cpu] * p_cpu


def fleet_split(n_total: int, weights: Sequence[float]) -> list[int]:
    """Rate-proportional split of ``n_total`` particles over an ordered
    fleet (Eq. 3 generalized to N heterogeneous devices).

    ``weights`` are per-rank calculation rates (any positive scale);
    zero-weight ranks receive zero particles.  Counts are non-negative and
    sum exactly to ``n_total``: every rank except the *anchor* (the first
    positive-weight rank) gets ``round(n_total * w_i / sum(w))`` and the
    anchor absorbs the remainder — for two ranks with weights
    ``[1.0, alpha]`` this reproduces :func:`alpha_split`'s
    ``(n_mic, n_cpu)`` bit-for-bit (same float expression, same rounding).
    If rounding overshoots, counts are decremented deterministically
    (largest count first, ties to the lowest rank) until the anchor is
    whole.
    """
    if n_total < 0:
        raise ExecutionError("negative particle count")
    if not weights:
        raise ExecutionError("need at least one rank")
    if any(w < 0 for w in weights):
        raise ExecutionError("negative rate weight")
    total = 0.0
    for w in weights:
        total += w
    if total <= 0:
        raise ExecutionError("need at least one positive rate weight")
    anchor = next(i for i, w in enumerate(weights) if w > 0)
    counts = [0] * len(weights)
    assigned = 0
    for i, w in enumerate(weights):
        if i == anchor or w == 0:
            continue
        counts[i] = int(round(n_total * w / total))
        assigned += counts[i]
    counts[anchor] = n_total - assigned
    while counts[anchor] < 0:
        donor = max(
            (i for i in range(len(counts)) if i != anchor and counts[i] > 0),
            key=lambda i: (counts[i], -i),
        )
        counts[donor] -= 1
        counts[anchor] += 1
    return counts


@dataclass
class AdaptiveAlphaController:
    """Runtime alpha estimation from measured batch rates (paper §V).

    Start with an equal split; after each batch, update alpha from the
    measured CPU and MIC calculation rates (exponentially smoothed, since
    the paper observes the rate "varies little between batches").
    """

    p_mic: int
    p_cpu: int
    smoothing: float = 0.5
    alpha: float | None = None
    history: list[float] = field(default_factory=list)
    #: A measured ratio this far from the smoothed alpha (either direction)
    #: is a *regime change* — a device throttled, was evicted-and-replaced,
    #: or lost a co-tenant — not batch noise.  The EMA would take
    #: ~log2(shift)/smoothing batches to catch up; snapping to the measured
    #: ratio re-converges the split within two batches instead.
    shift_factor: float = 2.0

    def split(self, n_total: int) -> tuple[int, int]:
        """Current per-rank assignment (equal until a measurement lands)."""
        if self.alpha is None:
            per = equal_split(n_total, self.p_mic + self.p_cpu)
            return per[0], per[-1]
        return alpha_split(n_total, self.p_mic, self.p_cpu, self.alpha)

    def observe(self, cpu_rate: float, mic_rate: float) -> float:
        """Feed one batch's measured rates; returns the updated alpha."""
        if cpu_rate <= 0 or mic_rate <= 0:
            raise ExecutionError("rates must be positive")
        measured = cpu_rate / mic_rate
        if self.alpha is None:
            self.alpha = measured
        elif (
            self.shift_factor > 1.0
            and not (
                self.alpha / self.shift_factor
                <= measured
                <= self.alpha * self.shift_factor
            )
        ):
            self.alpha = measured
        else:
            self.alpha = (
                self.smoothing * measured + (1.0 - self.smoothing) * self.alpha
            )
        self.history.append(self.alpha)
        return self.alpha
