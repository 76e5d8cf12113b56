"""A gateway shard: one node-local service pumped by a background thread.

Each shard owns a complete :class:`~repro.serve.service.SimulationService`
— priority queue, fingerprint-affinity batcher, worker pool, circuit
breaker — plus a pump thread that drives it incrementally via the
service's :meth:`~repro.serve.service.SimulationService.step` API.  The
pump feeds admitted specs from the shard's inbox, forwards every fresh
result and per-batch progress report to the gateway's shared outbox as
:class:`ShardEvent`\\ s, and otherwise stays out of the way: all
scheduling policy lives in the service, all placement policy in the
gateway.

Shards are the gateway's failure domain.  :meth:`evict` is the
quarantine primitive: stop the pump, hard-stop the pool, flush any
results that did complete, and hand back the specs that did not — the
gateway re-routes those to surviving shards at the front of their
priority class, mirroring the pool's own crash requeue one level up.

A service that raises never hangs its jobs.  A spec ``submit`` refuses
resolves ``failed``; a ``step`` that raises fails every job the shard
holds, stops the pump, and fails whatever is routed to the shard after
— nothing is re-routed, so a poison input cannot walk from shard to
shard.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from dataclasses import dataclass

from ..serve.jobs import JobResult, JobSpec
from ..serve.service import SimulationService

__all__ = ["GatewayShard", "ShardEvent"]


@dataclass
class ShardEvent:
    """One shard→gateway report.

    ``kind`` is ``"done"`` (``result`` set: a job resolved — done, failed,
    expired, or poisoned) or ``"progress"`` (``progress`` set:
    ``(worker_id, job_id, batch, seconds, n_particles)`` — one simulation
    batch finished inside a worker).
    """

    kind: str
    shard_id: int
    result: JobResult | None = None
    progress: tuple | None = None


class GatewayShard:
    """One sharded service plus its pump thread."""

    def __init__(
        self,
        shard_id: int,
        outbox: "queue.Queue[ShardEvent]",
        *,
        n_workers: int = 1,
        cache_dir: str | None = None,
        start_method: str | None = None,
        service_factory=None,
    ) -> None:
        self.shard_id = shard_id
        self.outbox = outbox
        # ``service_factory`` swaps in a protocol-compatible stand-in (the
        # benchmarks' SyntheticService) without touching pump mechanics.
        factory = service_factory or SimulationService
        self.service = factory(
            n_workers,
            cache_dir=cache_dir,
            start_method=start_method,
        )
        self.service.on_progress = self._on_progress
        self.n_workers = n_workers
        self._lock = threading.Lock()
        #: Admitted-but-unfed specs: ``(spec, front)`` pairs.
        self._inbox: deque[tuple[JobSpec, bool]] = deque()
        #: Every spec this shard currently owns, by job id — the eviction
        #: manifest: whatever is still here when the shard dies must be
        #: re-routed by the gateway.
        self._pending: dict[str, JobSpec] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Why the service broke (``step`` raised); ``None`` while healthy.
        self._broken: str | None = None

    # -- Submission (gateway thread) -----------------------------------------

    def submit(self, spec: JobSpec, *, front: bool = False) -> None:
        """Hand one routed spec to this shard (non-blocking)."""
        with self._lock:
            if self._broken is None:
                self._pending[spec.job_id] = spec
                if front:
                    self._inbox.appendleft((spec, True))
                else:
                    self._inbox.append((spec, False))
                return
        self._fail([spec], self._broken)

    # -- Lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._pump, name=f"gateway-shard-{self.shard_id}",
            daemon=True,
        )
        self._thread.start()

    def stop(self, *, graceful: bool = True) -> None:
        """Stop the pump and the pool (after in-flight work if graceful)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if graceful and self._broken is None:
            # Drain whatever the pump had already fed before stopping.
            while self.service.outstanding():
                self._forward(self.service.step())
        self._forward(self.service.take_fresh_results())
        self.service.shutdown(graceful=graceful)

    def evict(self) -> list[JobSpec]:
        """Quarantine this shard; returns the specs it failed to finish.

        Results that *did* complete are flushed to the outbox first (the
        gateway dedupes by job id, so a completion racing the eviction is
        harmless either way); everything else — inbox, queue, batcher,
        in-flight — comes back as specs for front-of-class re-routing.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        # One last non-restarting collection pass: the pool may hold
        # finished results that the pump never got to poll.
        if self.service._started and self._broken is None:
            self._forward(self.service.step())
        self._forward(self.service.take_fresh_results())
        self.service.shutdown(graceful=False)
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
            self._inbox.clear()
        return leftovers

    def kill(self) -> None:
        """Chaos primitive: die mid-job, reporting nothing.

        Unlike :meth:`evict` — the orderly quarantine that flushes
        finished results and hands back leftovers — ``kill`` models a
        shard process dropping dead: the pump stops, the pool is
        hard-stopped, and any results sitting unforwarded are *lost*.
        The pending manifest survives, so a subsequent :meth:`evict`
        (the gateway's quarantine) still recovers every unfinished spec.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.service.take_fresh_results()  # discard, as a crash would
        self.service.shutdown(graceful=False)

    # -- Pump (shard thread) -------------------------------------------------

    def _pump(self) -> None:
        while not self._stop.is_set():
            self._feed()
            try:
                results = self.service.step()
            except Exception as exc:
                with self._lock:
                    self._broken = f"shard service failed: {exc!r}"
                    held = list(self._pending.values())
                    self._inbox.clear()
                self._fail(held, self._broken)
                return
            self._forward(results)

    def _feed(self) -> None:
        """Move every inbox spec into the service (admission already
        bounded them)."""
        while True:
            with self._lock:
                if not self._inbox:
                    return
                spec, front = self._inbox.popleft()
            try:
                self.service.submit(spec, front=front)
            except Exception as exc:
                self._fail([spec], f"service refused the job: {exc!r}")

    def _fail(self, specs: list[JobSpec], error: str) -> None:
        self._forward([JobResult.failure(spec, error) for spec in specs])

    def _forward(self, results: list[JobResult]) -> None:
        for result in results:
            with self._lock:
                self._pending.pop(result.job_id, None)
            self.outbox.put(
                ShardEvent("done", self.shard_id, result=result)
            )

    def _on_progress(
        self,
        worker_id: int,
        job_id: str,
        batch: int,
        seconds: float,
        n_particles: int,
    ) -> None:
        self.outbox.put(
            ShardEvent(
                "progress",
                self.shard_id,
                progress=(worker_id, job_id, batch, seconds, n_particles),
            )
        )

    # -- Observability -------------------------------------------------------

    def metrics_summary(self) -> dict:
        return self.service.metrics_summary()
