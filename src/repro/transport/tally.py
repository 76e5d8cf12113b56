r"""Global tallies and k-effective estimators.

OpenMC's default global tallies — the ones the paper's experiments collect —
are total **collisions**, **absorptions**, and **track lengths**, each of
which yields an estimator of :math:`k_\mathrm{eff}`:

* collision estimator:  :math:`k_c = \sum_i w_i\, \nu\Sigma_f/\Sigma_t` over
  collision sites;
* absorption estimator: :math:`k_a = \sum_i w_i\, \nu\Sigma_f/\Sigma_a` over
  absorption sites;
* track-length estimator: :math:`k_t = \sum_i w_i\, d_i\, \nu\Sigma_f` over
  flight segments.

Each is normalized by the batch's source weight.  :class:`BatchStatistics`
accumulates per-batch values and reports mean and standard error over active
batches, exactly the inactive/active split of Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GlobalTallies", "BatchStatistics", "TallyResult"]


@dataclass
class GlobalTallies:
    """Within-batch accumulators (reset at every batch boundary)."""

    collision: float = 0.0
    absorption: float = 0.0
    track_length: float = 0.0
    #: Statistical weight of the batch source (the normalization).
    source_weight: float = 0.0
    #: Raw event counts (diagnostics, not estimators).
    n_collisions: int = 0
    n_absorptions: int = 0
    n_leaks: int = 0

    def score_collision(self, weight: float, nu_sigma_f: float, sigma_t: float) -> None:
        if sigma_t > 0.0:
            self.collision += weight * nu_sigma_f / sigma_t
        self.n_collisions += 1

    def score_collision_many(
        self, weight: np.ndarray, nu_sigma_f: np.ndarray, sigma_t: np.ndarray
    ) -> None:
        ok = sigma_t > 0.0
        self.collision += float(np.sum(weight[ok] * nu_sigma_f[ok] / sigma_t[ok]))
        self.n_collisions += int(weight.shape[0])

    def score_absorption(
        self, weight: float, nu_sigma_f: float, sigma_a: float
    ) -> None:
        if sigma_a > 0.0:
            self.absorption += weight * nu_sigma_f / sigma_a
        self.n_absorptions += 1

    def score_absorption_many(
        self, weight: np.ndarray, nu_sigma_f: np.ndarray, sigma_a: np.ndarray
    ) -> None:
        ok = sigma_a > 0.0
        self.absorption += float(np.sum(weight[ok] * nu_sigma_f[ok] / sigma_a[ok]))
        self.n_absorptions += int(weight.shape[0])

    def score_track(self, weight: float, distance: float, nu_sigma_f: float) -> None:
        self.track_length += weight * distance * nu_sigma_f

    def score_track_many(
        self, weight: np.ndarray, distance: np.ndarray, nu_sigma_f: np.ndarray
    ) -> None:
        self.track_length += float(np.sum(weight * distance * nu_sigma_f))

    # -- Batch estimators -----------------------------------------------------------

    def k_collision(self) -> float:
        return self.collision / self.source_weight if self.source_weight else 0.0

    def k_absorption(self) -> float:
        return self.absorption / self.source_weight if self.source_weight else 0.0

    def k_track_length(self) -> float:
        return self.track_length / self.source_weight if self.source_weight else 0.0

    def reset(self) -> None:
        self.collision = 0.0
        self.absorption = 0.0
        self.track_length = 0.0
        self.source_weight = 0.0
        self.n_collisions = 0
        self.n_absorptions = 0
        self.n_leaks = 0

    def as_array(self) -> np.ndarray:
        """Dense packing used by the simulated MPI reduction — the payload
        whose reduce cost the cluster model charges per batch."""
        return np.array(
            [
                self.collision,
                self.absorption,
                self.track_length,
                self.source_weight,
                float(self.n_collisions),
                float(self.n_absorptions),
                float(self.n_leaks),
            ]
        )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "GlobalTallies":
        t = cls()
        (
            t.collision,
            t.absorption,
            t.track_length,
            t.source_weight,
            nc,
            na,
            nl,
        ) = (float(v) for v in arr)
        t.n_collisions = int(nc)
        t.n_absorptions = int(na)
        t.n_leaks = int(nl)
        return t

    def merge_from(self, other: "GlobalTallies") -> None:
        """Accumulate another partial tally into this one (rank/slice
        reduction).  All fields are sums, so merging is exact and
        order-independent up to float addition order — drivers that need
        bit-parity with a serial run must merge in rank order."""
        self.collision += other.collision
        self.absorption += other.absorption
        self.track_length += other.track_length
        self.source_weight += other.source_weight
        self.n_collisions += other.n_collisions
        self.n_absorptions += other.n_absorptions
        self.n_leaks += other.n_leaks


@dataclass
class TallyResult:
    """Mean and standard error of one estimator over active batches."""

    mean: float
    std_err: float
    n_batches: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.5f} +/- {self.std_err:.5f} ({self.n_batches} batches)"


@dataclass
class BatchStatistics:
    """Per-batch k estimates with the inactive/active split."""

    n_inactive: int
    k_collision: list[float] = field(default_factory=list)
    k_absorption: list[float] = field(default_factory=list)
    k_track: list[float] = field(default_factory=list)
    entropy: list[float] = field(default_factory=list)

    def record(self, tallies: GlobalTallies, entropy: float | None = None) -> None:
        self.k_collision.append(tallies.k_collision())
        self.k_absorption.append(tallies.k_absorption())
        self.k_track.append(tallies.k_track_length())
        if entropy is not None:
            self.entropy.append(entropy)

    @property
    def n_batches(self) -> int:
        return len(self.k_collision)

    @property
    def n_active(self) -> int:
        return max(0, self.n_batches - self.n_inactive)

    def _stat(self, values: list[float]) -> TallyResult:
        active = np.array(values[self.n_inactive:])
        if active.size == 0:
            return TallyResult(mean=float("nan"), std_err=float("nan"), n_batches=0)
        mean = float(active.mean())
        if active.size > 1:
            err = float(active.std(ddof=1) / np.sqrt(active.size))
        else:
            err = float("inf")
        return TallyResult(mean=mean, std_err=err, n_batches=int(active.size))

    def result_collision(self) -> TallyResult:
        return self._stat(self.k_collision)

    def result_absorption(self) -> TallyResult:
        return self._stat(self.k_absorption)

    def result_track(self) -> TallyResult:
        return self._stat(self.k_track)

    def combined_k(self) -> TallyResult:
        """Equal-weight combination of the three estimators per batch."""
        combined = [
            (a + b + c) / 3.0
            for a, b, c in zip(self.k_collision, self.k_absorption, self.k_track)
        ]
        return self._stat(combined)

    def running_k(self) -> float:
        """Best current k estimate for source normalization (collision
        estimator mean over all batches so far, or 1 before any batch)."""
        if not self.k_collision:
            return 1.0
        return float(np.mean(self.k_collision))
