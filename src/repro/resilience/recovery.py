"""Recovery policies: retry/backoff and rank-failure slice redistribution.

Two recovery shapes cover the injected fault modes:

* **retry with exponential backoff** (:class:`RetryPolicy`) for transient
  faults — a stalled PCIe shipment is aborted at the policy's stall
  timeout and re-issued after a deterministic backoff delay, *priced* on
  the caller's modelled clock;
* **slice redistribution** (:func:`redistribute_slice`) for permanent rank
  loss — the dead rank's *global particle-id range* is split contiguously
  across survivors and re-run.  Because every particle's RNG stream is a
  function of its global id alone, the recovered histories are the exact
  histories the dead rank would have produced, and the recovered run stays
  bit-identical to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ClusterError, ReproError

__all__ = ["RetryPolicy", "redistribute_slice"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff (no jitter — runs must replay)."""

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff_factor: float = 2.0
    #: How long a transfer may hang before the runtime aborts and retries.
    stall_timeout_s: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError("RetryPolicy needs max_attempts >= 1")
        if self.base_delay_s < 0 or self.backoff_factor < 1.0:
            raise ReproError(
                "RetryPolicy needs base_delay_s >= 0 and backoff_factor >= 1"
            )

    def delay_s(self, attempt: int) -> float:
        """Backoff delay before retry number ``attempt`` (1-based)."""
        return self.base_delay_s * self.backoff_factor ** (attempt - 1)

    def total_backoff_s(self, n_retries: int) -> float:
        """Sum of the first ``n_retries`` backoff delays."""
        return sum(self.delay_s(a) for a in range(1, n_retries + 1))


def redistribute_slice(
    dead: slice, survivors: list[int], weights: "list[float] | None" = None
) -> list[tuple[int, slice]]:
    """Split a released particle slice contiguously across survivors.

    Returns ``(survivor_rank, sub_slice)`` pairs in ascending particle-id
    order, covering ``dead`` exactly once.  With ``weights=None`` (the
    rank-loss recovery path) the split is even, survivors earlier in the
    list receiving the remainder particles — the same static split the
    initial decomposition uses.  With ``weights`` (one non-negative rate
    weight per survivor — the work-stealing rebalance path) the split is
    proportional by largest remainder: floors first, then one extra
    particle per largest fractional part (ties to the earlier survivor);
    zero-weight survivors receive nothing.

    Because every particle's RNG stream is a function of its global id
    alone, either split re-runs the exact histories the releasing rank
    would have produced.
    """
    if not survivors:
        raise ClusterError("no surviving ranks to redistribute onto")
    n = dead.stop - dead.start
    if n < 0:
        raise ClusterError(f"malformed dead slice {dead}")
    if n == 0:
        return []
    k = len(survivors)
    if weights is None:
        base, rem = divmod(n, k)
        counts = [base + (1 if i < rem else 0) for i in range(k)]
    else:
        if len(weights) != k:
            raise ClusterError(
                f"{len(weights)} weights for {k} survivors"
            )
        if any(w < 0 for w in weights):
            raise ClusterError("negative redistribution weight")
        total = 0.0
        for w in weights:
            total += w
        if total <= 0:
            raise ClusterError("need at least one positive weight")
        shares = [n * w / total for w in weights]
        counts = [int(share) for share in shares]
        leftover = n - sum(counts)
        order = sorted(
            (i for i in range(k) if weights[i] > 0),
            key=lambda i: (-(shares[i] - counts[i]), i),
        )
        for i in order[:leftover]:
            counts[i] += 1
    out: list[tuple[int, slice]] = []
    start = dead.start
    for rank, count in zip(survivors, counts):
        if count == 0:
            continue
        out.append((rank, slice(start, start + count)))
        start += count
    return out
