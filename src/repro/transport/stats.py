"""Unified per-stage transport statistics for both schedules.

:class:`TransportStats` records how many particles each stage processed per
*dispatch* — one row per event-loop cycle on the banked schedule, one row
per particle history on the scalar schedule.  Under the same seed the two
schedules execute the same physics work in a different order, so the
**column totals agree exactly** between backends (same flights, collisions
and crossings), while the row structure exposes each schedule's shape:
event rows shrink as the generation drains (the lane-utilization story),
history rows show the per-history divergence that banking has to absorb.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TransportStats"]


class TransportStats:
    """Per-stage particle counts — the queue-occupancy profile of a
    transport schedule (used to study lane utilization / divergence).

    Backed by one amortized-doubling ``(3, capacity)`` int64 array rather
    than unbounded Python lists; ``lookup_counts`` / ``collision_counts`` /
    ``crossing_counts`` are zero-copy views of the recorded prefix.
    """

    _STAGES = ("lookup", "collision", "crossing")

    def __init__(self) -> None:
        self.iterations = 0
        self._counts = np.zeros((3, 16), dtype=np.int64)
        #: Aborted-and-reissued operations (stalled PCIe shipments re-sent
        #: under a retry policy) — recovery work, not physics work.
        self.retries = 0
        #: Gather-locality accumulators: sum of |stride| between consecutive
        #: union-grid gather indices, and the number of strides observed.
        #: Recorded by the event schedule in the order the XS-lookup stage's
        #: tile dispatch walks the bank, so the energy banding is directly
        #: observable instead of inferred from wall time.
        self._gather_stride_sum = 0
        self._gather_stride_n = 0

    def record_retries(self, n: int = 1) -> None:
        """Count ``n`` aborted-and-reissued operations for this run."""
        self.retries += int(n)

    def record_gather_indices(self, indices: np.ndarray) -> None:
        """Accumulate the stride profile of one union-grid gather stream.

        ``indices`` are the grid intervals a lookup dispatch gathers from,
        in dispatch order.  Energy-banded tiles walk the grid in one
        direction (small strides); bank order yields strides on the order
        of the grid size.
        """
        indices = np.asarray(indices)
        if indices.size < 2:
            return
        strides = np.abs(np.diff(indices.astype(np.int64)))
        self._gather_stride_sum += int(strides.sum())
        self._gather_stride_n += strides.size

    @property
    def gather_mean_stride(self) -> float | None:
        """Mean absolute union-grid gather stride, or ``None`` when no
        gather stream was recorded (history schedule, no union grid)."""
        if self._gather_stride_n == 0:
            return None
        return self._gather_stride_sum / self._gather_stride_n

    def record(self, n_lookup: int, n_collision: int, n_crossing: int) -> None:
        i = self.iterations
        if i >= self._counts.shape[1]:
            grown = np.zeros((3, 2 * self._counts.shape[1]), dtype=np.int64)
            grown[:, :i] = self._counts
            self._counts = grown
        self._counts[0, i] = n_lookup
        self._counts[1, i] = n_collision
        self._counts[2, i] = n_crossing
        self.iterations = i + 1

    @property
    def lookup_counts(self) -> np.ndarray:
        return self._counts[0, : self.iterations]

    @property
    def collision_counts(self) -> np.ndarray:
        return self._counts[1, : self.iterations]

    @property
    def crossing_counts(self) -> np.ndarray:
        return self._counts[2, : self.iterations]

    def summary(self) -> dict:
        """Per-stage occupancy statistics over the recorded dispatches.

        Returns ``{"iterations": n, "stages": {name: {"mean", "min",
        "max", "total"}}}`` — the inputs to the lane-utilization analysis
        (:func:`repro.simd.analysis.lane_utilization_report`).
        """
        stages: dict[str, dict[str, float | int]] = {}
        for row, name in enumerate(self._STAGES):
            counts = self._counts[row, : self.iterations]
            if counts.size:
                stages[name] = {
                    "mean": float(counts.mean()),
                    "min": int(counts.min()),
                    "max": int(counts.max()),
                    "total": int(counts.sum()),
                }
            else:
                stages[name] = {"mean": 0.0, "min": 0, "max": 0, "total": 0}
        return {
            "iterations": self.iterations,
            "retries": self.retries,
            "stages": stages,
            "gather": {
                "mean_stride": self.gather_mean_stride,
                "strides": self._gather_stride_n,
            },
        }
