"""Bounded, thread-safe priority queue of jobs with typed backpressure.

Ordering is ``(-priority, sequence)``: higher-priority jobs first, strict
FIFO within a priority (the sequence counter is monotone, so two jobs of
equal priority dequeue in submission order).  Capacity is a hard bound —
:meth:`JobQueue.put` never blocks and never drops; a full queue raises
:class:`~repro.errors.QueueFullError` carrying a retry-after estimate, the
job-level analogue of a device refusing work until an in-flight bank
drains.

Recovery requeues bypass the capacity check and re-enter *at the front* of
their priority class (negative sequence): a job that was already dispatched
once must not lose its place — or be rejected — because fresh submissions
filled the queue while it was in flight.
"""

from __future__ import annotations

import heapq
import threading
import time

from ..errors import QueueFullError, ServeError
from .jobs import JobSpec

__all__ = ["JobQueue", "QueuedJob", "RetryAfterModel"]


class RetryAfterModel:
    """The adaptive retry-after hint of a full queue (serve) or a full
    gateway: an EMA of job service time over the worker slots draining
    it — one slot frees roughly every ``mean / slots`` seconds."""

    ALPHA = 0.3
    FLOOR_S = 0.05

    def __init__(self) -> None:
        self.mean_service_s = 0.0
        #: The current hint; 1 s until a completion has been measured.
        self.seconds = 1.0

    def note(self, service_s: float, slots: int) -> float:
        """Fold one completion's service time in (non-positive
        observations are ignored); returns the updated hint."""
        if service_s > 0:
            self.mean_service_s = (
                service_s
                if self.mean_service_s == 0.0
                else self.ALPHA * service_s
                + (1 - self.ALPHA) * self.mean_service_s
            )
            self.seconds = max(self.FLOOR_S, self.mean_service_s / slots)
        return self.seconds


class QueuedJob:
    """A spec plus its queue bookkeeping (attempt count, enqueue time)."""

    __slots__ = ("spec", "attempt", "enqueued_at")

    def __init__(self, spec: JobSpec, attempt: int, enqueued_at: float) -> None:
        self.spec = spec
        self.attempt = attempt
        self.enqueued_at = enqueued_at


class JobQueue:
    """Thread-safe bounded priority queue (higher priority dequeues first)."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ServeError("JobQueue needs capacity >= 1")
        self.capacity = capacity
        self._heap: list[tuple[int, int, QueuedJob]] = []
        self._seq = 0
        self._front_seq = 0  # decreasing; requeues jump the FIFO line
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        #: Estimated seconds until capacity frees (kept current by the
        #: service from its measured drain rate); reported on rejection.
        self.retry_after_hint = 1.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def depth(self) -> int:
        return len(self)

    def put(self, spec: JobSpec, *, attempt: int = 1, front: bool = False) -> None:
        """Enqueue a job; raise :class:`QueueFullError` at capacity.

        ``front=True`` is the recovery path: the job re-enters ahead of its
        priority class and is exempt from the capacity bound (a requeued
        in-flight job was already admitted once).
        """
        with self._lock:
            if self._closed:
                raise ServeError("queue is closed to new submissions")
            if not front and len(self._heap) >= self.capacity:
                raise QueueFullError(
                    f"queue at capacity ({self.capacity} jobs); "
                    f"retry in {self.retry_after_hint:.2f}s",
                    retry_after_s=self.retry_after_hint,
                )
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

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed
