"""Fingerprint-affinity batching: route compatible jobs to warm workers.

The paper's Fig. 3 argument — bank enough homogeneous work to amortize a
fixed cost — reappears at the job level: a worker that has already built
(or loaded) a library serves any job with the same
:func:`~repro.data.library.library_fingerprint` at marginal cost, while a
fingerprint switch pays the build/load price again.  The :class:`Batcher`
therefore keeps dispatch-ready jobs grouped by fingerprint and, when a
worker goes idle, prefers a job matching the library that worker already
holds; only when no compatible job exists does it fall back to the oldest
pending job (so affinity never starves a lone job of a different physics).

It also owns per-worker utilization accounting (jobs served, busy seconds,
affinity hit rate) — the service's answer to "are my workers warm and
busy?".
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from .queue import QueuedJob

__all__ = ["Batcher", "WorkerUtilization"]


@dataclass
class WorkerUtilization:
    """Dispatch-side view of one worker's usefulness."""

    worker_id: int
    jobs_done: int = 0
    busy_seconds: float = 0.0
    #: Dispatches whose fingerprint matched the worker's warm library.
    affinity_hits: int = 0
    dispatches: int = 0
    #: Fingerprint of the library the worker holds (after first dispatch).
    fingerprint: str = ""
    _busy_since: float | None = field(default=None, repr=False)

    @property
    def affinity_rate(self) -> float:
        return self.affinity_hits / self.dispatches if self.dispatches else 0.0

    def utilization(self, elapsed: float) -> float:
        """Busy fraction of ``elapsed`` service seconds."""
        busy = self.busy_seconds
        if self._busy_since is not None:
            busy += time.monotonic() - self._busy_since
        return busy / elapsed if elapsed > 0 else 0.0

    def as_dict(self, elapsed: float) -> dict:
        return {
            "worker_id": self.worker_id,
            "jobs_done": self.jobs_done,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization(elapsed),
            "affinity_rate": self.affinity_rate,
            "dispatches": self.dispatches,
            "fingerprint": self.fingerprint[:12],
        }


class Batcher:
    """Holds dispatch-ready jobs grouped by library fingerprint.

    Jobs arrive in queue order (priority already resolved by
    :class:`~repro.serve.queue.JobQueue`) and leave either by affinity
    (:meth:`take_for` with a matching fingerprint) or age (head of the
    oldest group).  Insertion order is preserved within and across groups
    via a monotone arrival index.
    """

    def __init__(self) -> None:
        self._groups: "OrderedDict[str, list[tuple[int, QueuedJob]]]" = (
            OrderedDict()
        )
        self._arrival = 0
        self._workers: dict[int, WorkerUtilization] = {}
        self._started_at = time.monotonic()

    def __len__(self) -> int:
        return sum(len(jobs) for jobs in self._groups.values())

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def add(self, job: QueuedJob) -> None:
        fp = job.spec.library_fingerprint()
        self._groups.setdefault(fp, []).append((self._arrival, job))
        self._arrival += 1

    def take_for(self, worker_id: int) -> tuple[QueuedJob, bool] | None:
        """Pick the next job for an idle worker.

        Returns ``(job, affinity_hit)``: the oldest job sharing the
        worker's warm fingerprint when one exists, else the oldest job
        overall.  ``None`` when no jobs are staged.
        """
        if not self._groups:
            return None
        util = self._workers.setdefault(
            worker_id, WorkerUtilization(worker_id)
        )
        fp = util.fingerprint
        if fp and fp in self._groups:
            chosen_fp, hit = fp, True
        else:
            # Oldest pending job across all groups (min arrival index).
            chosen_fp = min(self._groups, key=lambda f: self._groups[f][0][0])
            hit = util.fingerprint == chosen_fp
        _, job = self._groups[chosen_fp].pop(0)
        if not self._groups[chosen_fp]:
            del self._groups[chosen_fp]
        util.dispatches += 1
        util.affinity_hits += int(hit)
        util.fingerprint = chosen_fp
        util._busy_since = time.monotonic()
        return job, hit

    # -- Utilization accounting ---------------------------------------------

    def note_done(self, worker_id: int, busy_seconds: float | None = None) -> None:
        """Record a completed (or crashed-out) dispatch for a worker."""
        util = self._workers.setdefault(
            worker_id, WorkerUtilization(worker_id)
        )
        if busy_seconds is None:
            busy_seconds = (
                time.monotonic() - util._busy_since
                if util._busy_since is not None
                else 0.0
            )
        util.jobs_done += 1
        util.busy_seconds += busy_seconds
        util._busy_since = None

    def forget_worker_library(self, worker_id: int) -> None:
        """A worker was respawned: its in-memory library is gone."""
        util = self._workers.get(worker_id)
        if util is not None:
            util.fingerprint = ""
            util._busy_since = None

    def utilization(self) -> dict[int, WorkerUtilization]:
        return dict(self._workers)

    def utilization_dict(self) -> list[dict]:
        elapsed = time.monotonic() - self._started_at
        return [
            self._workers[wid].as_dict(elapsed)
            for wid in sorted(self._workers)
        ]
