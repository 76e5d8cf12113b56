"""Thread-safe priority queue of jobs.

Ordering is ``(-priority, sequence)``: higher-priority jobs first, strict
FIFO within a priority (the sequence counter is monotone, so two jobs of
equal priority dequeue in submission order).  The queue is unbounded:
the gateway's :class:`~repro.gateway.admission.AdmissionController` is the
one capacity in the service tier, and everything it admits must reach a
shard's queue so that priority can order it.

Recovery requeues re-enter *at the front* of their priority class
(negative sequence, so the latest requeue leads): a job that was already
dispatched once must not lose its place because fresh submissions arrived
while it was in flight.
"""

from __future__ import annotations

import heapq
import threading
import time

from ..errors import ServeError
from .jobs import JobSpec

__all__ = ["JobQueue", "QueuedJob"]


class QueuedJob:
    """A spec plus its queue bookkeeping (attempt count, enqueue time)."""

    __slots__ = ("spec", "attempt", "enqueued_at")

    def __init__(self, spec: JobSpec, attempt: int, enqueued_at: float) -> None:
        self.spec = spec
        self.attempt = attempt
        self.enqueued_at = enqueued_at


class JobQueue:
    """Thread-safe priority queue (higher priority dequeues first)."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, QueuedJob]] = []
        self._seq = 0
        self._front_seq = 0  # decreasing; requeues jump the FIFO line
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def put(self, spec: JobSpec, *, attempt: int = 1, front: bool = False) -> None:
        """Enqueue a job; ``front=True`` is the recovery path: the job
        re-enters ahead of its priority class."""
        with self._lock:
            if self._closed:
                raise ServeError("queue is closed to new submissions")
            if front:
                self._front_seq -= 1
                seq = self._front_seq
            else:
                self._seq += 1
                seq = self._seq
            item = QueuedJob(spec, attempt, time.monotonic())
            heapq.heappush(self._heap, (-spec.priority, seq, item))
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> QueuedJob | None:
        """Dequeue the next job, or ``None`` on timeout / closed-and-empty."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not self._heap:
                if self._closed:
                    return None
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)
            _, _, item = heapq.heappop(self._heap)
            return item

    def close(self) -> None:
        """Refuse further submissions; pending jobs remain drainable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
