"""The service loop: queue -> batcher -> pool, with metrics and recovery.

:class:`SimulationService` ties the subsystem together.  Jobs enter through
:meth:`submit` (bounded, typed backpressure), stage into the
fingerprint-affinity :class:`~repro.serve.batching.Batcher`, and dispatch
to idle :class:`~repro.serve.pool.WorkerPool` workers.  Completions,
job-level errors, and worker crashes come back as pool events; crashes
requeue the in-flight job at the front of its priority class under the
service's :class:`~repro.resilience.recovery.RetryPolicy` — the same
attempt-bounded recovery the cluster layer applies to rank loss.

Nothing in this loop can perturb physics: a job's result is a pure
function of its spec, so scheduling order, batching decisions, and crash
reruns are all invisible in the payload (the bit-identical service
guarantee, tested end to end).

The module also provides the file spool used by the ``repro-sim
serve/submit/status`` subcommands: ``pending/`` holds submitted specs,
``done/``/``failed/`` hold results, ``metrics.json`` the last service
export — a filesystem contract simple enough to drive from a shell.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path

from ..durable import atomic_write_text, quarantine
from ..errors import (
    JobError,
    PoisonedJobError,
    QueueFullError,
    ServeError,
)
from ..resilience.recovery import RetryPolicy
from ..supervise.deadline import Deadline
from .batching import Batcher
from .jobs import JobResult, JobSpec
from .metrics import MetricsRegistry
from .pool import PoolEvent, WorkerPool
from .queue import JobQueue, QueuedJob, RetryAfterModel

__all__ = [
    "SimulationService",
    "atomic_write_text",
    "read_spool_pending",
    "spool_dirs",
    "spool_status",
    "submit_to_spool",
    "write_spool_result",
]

_POLL_S = 0.05


class SimulationService:
    """A batched multi-worker simulation service."""

    def __init__(
        self,
        n_workers: int = 2,
        *,
        cache_dir: str | None = None,
        capacity: int = 64,
        retry_policy: RetryPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        start_method: str | None = None,
        drain_deadline_s: float | None = None,
    ) -> None:
        self.queue = JobQueue(capacity)
        self.batcher = Batcher()
        self.pool = WorkerPool(
            n_workers, cache_dir=cache_dir, start_method=start_method
        )
        self.metrics = metrics or MetricsRegistry("serve")
        self.retry_policy = retry_policy or RetryPolicy()
        #: Wall-clock bound on one :meth:`run` drain; ``None`` = unbounded.
        #: Overrun raises a typed :class:`~repro.errors.
        #: DeadlineExceededError` instead of hanging a caller forever on a
        #: wedged pool.
        self.drain_deadline_s = drain_deadline_s
        self.results: dict[str, JobResult] = {}
        #: Submission order; a dict so the duplicate check is O(1) on a
        #: queue that can hold a whole gateway's admitted jobs.
        self._order: dict[str, None] = {}
        self._wait_s: dict[str, float] = {}
        self._started = False
        self._retry_after = RetryAfterModel()
        #: Results recorded since the last :meth:`take_fresh_results` —
        #: the incremental completion feed a long-running driver (the
        #: gateway shard pump) consumes between :meth:`step` calls.
        self._fresh: list[JobResult] = []
        #: Per-batch progress observer, ``f(worker_id, job_id, batch,
        #: seconds, n_particles)`` — the PR 5 ``on_batch`` contract bridged
        #: out of the worker processes.  Timing only; never tallies.
        self.on_progress = None
        # Pre-register the export surface so an idle service still reports
        # a complete (zeroed) metrics document.
        for name in (
            "jobs_submitted", "jobs_completed", "jobs_failed",
            "jobs_expired", "jobs_requeued", "jobs_poisoned",
            "worker_crashes", "queue_rejections", "library_builds",
            "library_disk_hits", "library_memory_hits",
        ):
            self.metrics.counter(name)
        for name in ("queue_depth", "in_flight", "workers_alive",
                     "cache_hit_rate", "circuits_open"):
            self.metrics.gauge(name)
        self.metrics.gauge("retry_after_seconds").set(
            self.queue.retry_after_hint
        )
        self.metrics.info("circuit_breaker").set(self.pool.breaker.as_dict())
        for name in ("queue_wait_seconds", "service_seconds",
                     "build_seconds", "dispatch_overhead_seconds"):
            self.metrics.histogram(name)

    # -- Submission ----------------------------------------------------------

    def submit(self, spec: JobSpec, *, front: bool = False) -> str:
        """Admit one job; raises :class:`QueueFullError` at capacity.

        ``front=True`` is the recovery path (capacity-exempt, enters ahead
        of its priority class): the gateway uses it to requeue jobs pulled
        back from an evicted shard, mirroring the pool's own crash requeue.
        """
        if spec.submitted_at is None:
            import dataclasses

            spec = dataclasses.replace(spec, submitted_at=time.time())
        if spec.job_id in self.results or spec.job_id in self._order:
            raise JobError(f"duplicate job id {spec.job_id!r}")
        try:
            self.queue.put(spec, front=front)
        except QueueFullError:
            self.metrics.counter("queue_rejections").inc()
            raise
        self._order[spec.job_id] = None
        self.metrics.counter("jobs_submitted").inc()
        self.metrics.gauge("queue_depth").set(len(self.queue))
        return spec.job_id

    # -- Lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if not self._started:
            self.pool.start()
            self._started = True
            self.metrics.gauge("workers_alive").set(self.pool.alive_count())

    def shutdown(self, *, graceful: bool = True) -> None:
        """Stop accepting jobs and stop workers (after in-flight work when
        graceful)."""
        self.queue.close()
        if self._started:
            self.pool.stop(graceful=graceful)
            self._started = False
        self.metrics.gauge("workers_alive").set(self.pool.alive_count())

    # -- Main loop -----------------------------------------------------------

    def run(self, specs: list[JobSpec] | None = None) -> list[JobResult]:
        """Feed ``specs`` (respecting queue capacity) and drain everything.

        Returns results for *all* jobs this service has completed, in
        submission order — the drain contract: every submitted job appears
        exactly once, as done, failed, or expired.
        """
        backlog = deque(specs or [])
        deadline = (
            Deadline(self.drain_deadline_s, label="serve drain")
            if self.drain_deadline_s is not None
            else None
        )
        self.start()
        while backlog or self.outstanding():
            if deadline is not None:
                deadline.check(
                    f"draining {len(self.queue)} queued / "
                    f"{self.pool.in_flight()} in-flight job(s)"
                )
            while backlog:
                try:
                    self.submit(backlog[0])
                except QueueFullError:
                    break
                backlog.popleft()
            self._tick()
        self._fresh.clear()
        return [self.results[job_id] for job_id in self._order
                if job_id in self.results]

    def outstanding(self) -> int:
        """Jobs admitted but not yet resolved (queued, staged, in flight)."""
        return len(self.queue) + len(self.batcher) + self.pool.in_flight()

    def step(self) -> list[JobResult]:
        """One incremental scheduling round; returns newly recorded results.

        The long-running-driver API: where :meth:`run` owns the whole
        drain, ``step`` advances the loop exactly one tick (stage,
        dispatch, collect — blocking at most the poll interval) so an
        outer scheduler (a gateway shard pump) can interleave feeding,
        supervision, and completion forwarding at its own cadence.
        """
        self.start()
        self._tick()
        return self.take_fresh_results()

    def take_fresh_results(self) -> list[JobResult]:
        """Results recorded since the last take (completion order)."""
        fresh = self._fresh
        self._fresh = []
        return fresh

    def _tick(self) -> None:
        """One scheduling round: stage, dispatch, collect."""
        t0 = time.perf_counter()
        self._stage_jobs()
        dispatched = self._dispatch_idle()
        overhead = time.perf_counter() - t0
        if dispatched:
            self.metrics.histogram("dispatch_overhead_seconds").observe(
                overhead
            )

        for event in self.pool.poll(timeout=_POLL_S):
            t1 = time.perf_counter()
            self._handle_event(event)
            self.metrics.histogram("dispatch_overhead_seconds").observe(
                time.perf_counter() - t1
            )
        self.metrics.gauge("queue_depth").set(len(self.queue))
        self.metrics.gauge("in_flight").set(self.pool.in_flight())
        self.metrics.gauge("workers_alive").set(self.pool.alive_count())

    def _stage_jobs(self) -> None:
        """Move queued jobs into the batcher while workers could use them."""
        window = 2 * self.pool.n_workers
        while len(self.batcher) < window:
            item = self.queue.get(timeout=0.0)
            if item is None:
                break
            if self._expired(item):
                continue
            self.batcher.add(item)

    def _expired(self, item: QueuedJob) -> bool:
        spec = item.spec
        if spec.deadline_s is None or spec.submitted_at is None:
            return False
        if time.time() - spec.submitted_at <= spec.deadline_s:
            return False
        self._record(
            JobResult.failure(
                spec,
                f"deadline of {spec.deadline_s}s exceeded before dispatch",
                status="expired",
                attempts=item.attempt,
            )
        )
        self.metrics.counter("jobs_expired").inc()
        return True

    def _dispatch_idle(self) -> int:
        dispatched = 0
        for worker_id in self.pool.idle_workers():
            picked = self.batcher.take_for(worker_id)
            if picked is None:
                break
            job, _affinity_hit = picked
            wait = time.monotonic() - job.enqueued_at
            self._wait_s[job.spec.job_id] = wait
            self.metrics.histogram("queue_wait_seconds").observe(wait)
            self.pool.dispatch(worker_id, job)
            dispatched += 1
        return dispatched

    def _handle_event(self, event: PoolEvent) -> None:
        if event.kind == "progress":
            if self.on_progress is not None:
                self.on_progress(event.worker_id, *event.progress)
            return
        if event.kind == "done":
            result = event.result
            result.wait_seconds = self._wait_s.pop(result.job_id, 0.0)
            self._record(result)
            self.batcher.note_done(event.worker_id, result.service_seconds)
            self.metrics.counter("jobs_completed").inc()
            self.metrics.histogram("service_seconds").observe(
                result.service_seconds
            )
            if result.build_seconds:
                self.metrics.histogram("build_seconds").observe(
                    result.build_seconds
                )
            source_counter = {
                "built": "library_builds",
                "disk-cache": "library_disk_hits",
                "memory": "library_memory_hits",
            }.get(result.library_source)
            if source_counter:
                self.metrics.counter(source_counter).inc()
            self._update_cache_hit_rate()
            self.queue.retry_after_hint = self._retry_after.note(
                result.service_seconds, self.pool.n_workers
            )
            self.metrics.gauge("retry_after_seconds").set(
                self.queue.retry_after_hint
            )
        elif event.kind == "error":
            job = event.job
            self._record(
                JobResult.failure(
                    job.spec,
                    event.message,
                    worker_id=event.worker_id,
                    attempts=job.attempt,
                )
            )
            self.batcher.note_done(event.worker_id, event.service_seconds)
            self.metrics.counter("jobs_failed").inc()
        elif event.kind == "poisoned":
            # The job's circuit tripped: quarantine it as a typed failure
            # and move on — the pool already respawned the worker, and no
            # further attempts will be dispatched for this spec.
            self.metrics.counter("worker_crashes").inc()
            self.batcher.forget_worker_library(event.worker_id)
            job = event.job
            self.batcher.note_done(event.worker_id)
            error = PoisonedJobError(
                f"job {job.spec.job_id} quarantined: {event.message}",
                job_id=job.spec.job_id,
                crashes=self.pool.breaker.failures(job.spec.job_id),
            )
            self._record(
                JobResult.failure(
                    job.spec,
                    f"{type(error).__name__}: {error}",
                    status="poisoned",
                    worker_id=event.worker_id,
                    attempts=job.attempt,
                )
            )
            self.metrics.counter("jobs_poisoned").inc()
            self._export_breaker()
        elif event.kind == "crash":
            self.metrics.counter("worker_crashes").inc()
            self.batcher.forget_worker_library(event.worker_id)
            job = event.job
            if job is None:
                return
            self.batcher.note_done(event.worker_id)
            if job.attempt < self.retry_policy.max_attempts:
                self.queue.put(
                    job.spec, attempt=job.attempt + 1, front=True
                )
                self.metrics.counter("jobs_requeued").inc()
            else:
                self._record(
                    JobResult.failure(
                        job.spec,
                        f"worker crashed; retry budget of "
                        f"{self.retry_policy.max_attempts} attempts exhausted",
                        worker_id=event.worker_id,
                        attempts=job.attempt,
                    )
                )
                self.metrics.counter("jobs_failed").inc()
        else:  # pragma: no cover - defensive
            raise ServeError(f"unknown pool event {event.kind!r}")

    def _record(self, result: JobResult) -> None:
        if result.job_id in self.results:
            raise ServeError(
                f"job {result.job_id} completed twice — lost/duplicated "
                f"work in the dispatch path"
            )
        self.results[result.job_id] = result
        self._fresh.append(result)

    def _export_breaker(self) -> None:
        """Mirror circuit-breaker state into the metrics registry."""
        state = self.pool.breaker.as_dict()
        self.metrics.gauge("circuits_open").set(len(state["open"]))
        self.metrics.info("circuit_breaker").set(state)

    def _update_cache_hit_rate(self) -> None:
        builds = self.metrics.counter("library_builds").value
        hits = (
            self.metrics.counter("library_disk_hits").value
            + self.metrics.counter("library_memory_hits").value
        )
        total = builds + hits
        if total:
            self.metrics.gauge("cache_hit_rate").set(hits / total)

    # -- Observability -------------------------------------------------------

    def metrics_summary(self) -> dict:
        """Metrics document + worker utilization + health, for export."""
        return {
            "metrics": self.metrics.as_dict(),
            "workers": self.batcher.utilization_dict(),
            "health": self.pool.health(),
        }


# -- File spool (the CLI's persistence layer) --------------------------------

_SPOOL_SUBDIRS = ("pending", "done", "failed")


def spool_dirs(root: str | Path, *, create: bool = False) -> dict[str, Path]:
    root = Path(root)
    dirs = {name: root / name for name in _SPOOL_SUBDIRS}
    if create:
        for path in dirs.values():
            path.mkdir(parents=True, exist_ok=True)
    return dirs


def submit_to_spool(root: str | Path, spec: JobSpec) -> Path:
    """Write a spec into ``root/pending`` (stamping submission time)."""
    import dataclasses

    if spec.submitted_at is None:
        spec = dataclasses.replace(spec, submitted_at=time.time())
    dirs = spool_dirs(root, create=True)
    path = dirs["pending"] / f"{spec.job_id}.json"
    if path.exists():
        raise JobError(f"job {spec.job_id} already spooled at {path}")
    # Atomic publish: a kill mid-submit leaves an invisible temp file,
    # never a half-record that would poison a later ``serve --spool``.
    return atomic_write_text(path, spec.to_json())


def read_spool_pending(root: str | Path) -> list[JobSpec]:
    """Pending specs in service order (priority, then submission time).

    A spool is shared mutable state: a record torn by a crashed (or
    pre-atomic-write) submitter must not poison the whole drain.  Any
    pending file that does not parse as a spec is quarantined — renamed
    to ``<job>.corrupt``, out of the ``*.json`` namespace — and skipped.
    """
    dirs = spool_dirs(root)
    specs = []
    if dirs["pending"].is_dir():
        for path in sorted(dirs["pending"].glob("*.json")):
            try:
                specs.append(JobSpec.from_json(path.read_text()))
            except (JobError, OSError):
                quarantine(path)
    specs.sort(
        key=lambda s: (-s.priority, s.submitted_at or 0.0, s.job_id)
    )
    return specs


def write_spool_result(root: str | Path, result: JobResult) -> Path:
    """File a result under ``done/`` or ``failed/`` and clear its pending
    spec."""
    dirs = spool_dirs(root, create=True)
    bucket = "done" if result.status == "done" else "failed"
    path = dirs[bucket] / f"{result.job_id}.json"
    atomic_write_text(path, result.to_json(indent=2))
    pending = dirs["pending"] / f"{result.job_id}.json"
    if pending.exists():
        pending.unlink()
    return path


def spool_status(root: str | Path) -> dict:
    """Counts, recent results, and the last metrics export for a spool."""
    root = Path(root)
    dirs = spool_dirs(root)
    counts = {
        name: len(list(path.glob("*.json"))) if path.is_dir() else 0
        for name, path in dirs.items()
    }
    results = []
    if dirs["done"].is_dir():
        for path in sorted(dirs["done"].glob("*.json")):
            result = JobResult.from_json(path.read_text())
            results.append(
                {
                    "job_id": result.job_id,
                    "k_effective": result.k_effective,
                    "k_std_err": result.k_std_err,
                    "n_batches": result.n_batches,
                    "worker_id": result.worker_id,
                    "attempts": result.attempts,
                    "library_source": result.library_source,
                    # Scenario provenance (PR 6): which case of which
                    # suite, and the document fingerprint it compiled
                    # from.  Empty strings for ad-hoc jobs.
                    "case_id": result.case_id,
                    "suite_id": result.suite_id,
                    "scenario_fingerprint": result.scenario_fingerprint,
                }
            )
    status: dict = {"root": str(root), "counts": counts, "results": results}
    metrics_path = root / "metrics.json"
    if metrics_path.exists():
        status["metrics"] = json.loads(metrics_path.read_text())
        # Surface the adaptive backpressure hint (what a rejected client
        # would be told to wait) at the top level, where shell callers
        # expect it — the nested metrics document keeps the raw gauge.
        try:
            status["retry_after_s"] = (
                status["metrics"]["metrics"]["metrics"]
                ["retry_after_seconds"]["value"]
            )
        except (KeyError, TypeError):
            pass
    return status
