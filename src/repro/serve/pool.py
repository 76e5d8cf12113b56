"""Persistent multiprocessing workers that amortize library construction.

Each worker is a long-lived process with a private task queue and a private
result pipe.  On its first job for a given library fingerprint it builds
the library — or loads it from the shared on-disk
:class:`~repro.serve.cache.LibraryCache` — and keeps it in memory, so
every subsequent compatible job pays only transport time.  This is the
paper's offload model applied to scheduling: the build is the fixed cost,
the resident library is the bank, and the batcher keeps the bank full.

Failure handling reuses :mod:`repro.resilience` semantics: a worker that
dies mid-job surfaces as a ``crash`` event carrying the in-flight job, the
pool respawns the worker (fresh incarnation, empty library memory), and
the service requeues the job under its
:class:`~repro.resilience.recovery.RetryPolicy`.  Because every job is
deterministic in its spec alone, a rerun after a crash is bit-identical to
an undisturbed run — the same invariant checkpoint/restart guarantees
within a single simulation.

The result channel is one pipe per worker *incarnation*, written by the
worker's only thread and read with :func:`multiprocessing.connection.wait`,
so a worker that dies — mid-frame included — damages nothing but its own
channel, which the pool reads to end-of-file and drops at respawn.  (A
shared ``multiprocessing.Queue`` cannot promise that: a death while its
feeder thread holds the cross-process write lock wedges every other writer.)
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as stdlib_queue
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from time import perf_counter

from ..errors import ServeError
from ..supervise.circuit import CircuitBreaker
from .cache import CacheOutcome, LibraryCache
from .jobs import JobResult, JobSpec
from .queue import QueuedJob

__all__ = ["PoolEvent", "WorkerPool"]

#: Exit code used by the fault-injection hard exit (distinguishable from a
#: genuine interpreter death in test assertions).
CRASH_EXIT_CODE = 23

_HEARTBEAT_S = 0.25

#: Serializes create-pipes -> fork -> close-the-child's-ends across every
#: pool in the process (two gateway shards start theirs from two threads).
#: A worker forked inside another spawn's window inherits that worker's
#: write ends (result pipe, ``Process.sentinel``); its death is then no
#: end-of-file while the sibling lives, and ``Process.join(timeout)`` sits
#: out its whole timeout on a worker that has already exited.
_SPAWN_LOCK = threading.Lock()


def _resolve_context(start_method: str | None) -> mp.context.BaseContext:
    if start_method is not None:
        return mp.get_context(start_method)
    # fork keeps worker startup in the low-millisecond range; fall back to
    # spawn where fork is unavailable (all worker args are picklable).
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _worker_main(
    worker_id: int,
    task_q: "mp.Queue",
    results: Connection,
    cache_dir: str | None,
    heartbeat_s: float,
) -> None:
    """Worker loop: build-or-load library once per fingerprint, serve jobs."""
    libraries: dict = {}
    cache = LibraryCache(cache_dir) if cache_dir else None
    results.send(("ready", worker_id, os.getpid()))
    while True:
        try:
            msg = task_q.get(timeout=heartbeat_s)
        except stdlib_queue.Empty:
            results.send(("heartbeat", worker_id))
            continue
        if msg is None:
            results.send(("stopped", worker_id))
            return
        spec_dict, attempt = msg
        spec = JobSpec.from_dict(spec_dict)
        results.send(("started", worker_id, spec.job_id))
        if attempt <= spec.fault_crash_attempts:
            # Injected mid-job crash: die without flushing anything; this
            # thread is the pipe's only writer, so no frame is cut short.
            os._exit(CRASH_EXIT_CODE)
        t0 = perf_counter()
        try:
            fp = spec.library_fingerprint()
            if fp in libraries:
                library = libraries[fp]
                outcome = CacheOutcome(fp, "memory")
            elif cache is not None:
                library, outcome = cache.get_or_build(
                    spec.model, spec.library_config()
                )
            else:
                from ..data.library import build_library

                tb = perf_counter()
                library = build_library(spec.model, spec.library_config())
                outcome = CacheOutcome(
                    fp, "built", build_seconds=perf_counter() - tb
                )
            libraries[fp] = library

            from ..transport.simulation import Simulation

            def on_batch(
                batch: int, seconds: float, n_particles: int,
                _job_id: str = spec.job_id,
            ) -> None:
                # Per-batch progress for streaming observers: timing only
                # (the PR 5 observer contract), so it cannot perturb
                # physics no matter what the gateway does with it.
                results.send(
                    ("progress", worker_id, _job_id, batch, seconds,
                     n_particles)
                )

            result = Simulation(library, spec.to_settings()).run(
                on_batch=on_batch
            )
            job_result = JobResult.from_simulation(
                spec,
                result,
                worker_id=worker_id,
                attempts=attempt,
                build_seconds=outcome.build_seconds,
                library_source=outcome.source,
            )
            job_result.service_seconds = perf_counter() - t0
            results.send(("done", worker_id, spec.job_id, job_result.to_dict()))
        except Exception as exc:  # noqa: BLE001 — worker must never die silently
            results.send(
                (
                    "error",
                    worker_id,
                    spec.job_id,
                    f"{type(exc).__name__}: {exc}",
                    perf_counter() - t0,
                )
            )


@dataclass
class PoolEvent:
    """One observable worker transition, consumed by the service loop.

    ``kind`` is one of ``done`` (payload: :class:`JobResult`), ``error``
    (payload: message string; job carries the failed dispatch), ``crash``
    (payload: ``None``; job is the in-flight dispatch to requeue, or
    ``None`` if the worker died idle), ``poisoned`` (the crashed job's
    circuit tripped — quarantine it instead of requeueing; ``message``
    carries the crash streak), or ``progress`` (one transport batch
    finished; ``progress`` carries ``(job_id, batch, seconds,
    n_particles)``).
    """

    kind: str
    worker_id: int
    job: QueuedJob | None = None
    result: JobResult | None = None
    message: str = ""
    service_seconds: float = 0.0
    #: ``progress`` events only: (job_id, batch, seconds, n_particles).
    progress: tuple | None = None


class _WorkerHandle:
    __slots__ = (
        "worker_id", "process", "task_q", "results", "incarnation",
        "state", "current", "dispatched_at", "last_seen", "pid",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process = None
        self.task_q = None
        #: Read end of the current incarnation's result pipe (``None``
        #: once read to end-of-file or closed).
        self.results: Connection | None = None
        self.incarnation = 0
        self.state = "new"  # new | starting | idle | busy | stopped
        self.current: QueuedJob | None = None
        self.dispatched_at = 0.0
        self.last_seen = time.monotonic()
        self.pid: int | None = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def close_results(self) -> None:
        if self.results is not None:
            self.results.close()
            self.results = None


class WorkerPool:
    """A fixed-size set of persistent simulation workers."""

    def __init__(
        self,
        n_workers: int = 2,
        *,
        cache_dir: str | None = None,
        start_method: str | None = None,
        heartbeat_s: float = _HEARTBEAT_S,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if n_workers < 1:
            raise ServeError("WorkerPool needs n_workers >= 1")
        self.n_workers = n_workers
        self.cache_dir = cache_dir
        self.heartbeat_s = heartbeat_s
        #: Consecutive worker-death counter per job id: a job that keeps
        #: killing its worker is *poison*, not unlucky, and respawn-and-
        #: requeue would loop on it forever.  With a retry budget narrower
        #: than the threshold (3), budget exhaustion fires first and the
        #: job fails as a plain crash casualty; the breaker bounds the
        #: case where the budget is wide enough to keep feeding the
        #: poison back to fresh workers.
        self.breaker = breaker or CircuitBreaker()
        self._ctx = _resolve_context(start_method)
        self._workers: dict[int, _WorkerHandle] = {
            wid: _WorkerHandle(wid) for wid in range(n_workers)
        }
        #: Events read while :meth:`stop` joined; the next poll returns them.
        self._held: list[PoolEvent] = []
        self._started = False
        self._stopping = False

    # -- Lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise ServeError("pool already started")
        self._started = True
        for handle in self._workers.values():
            self._spawn(handle)

    def _spawn(self, handle: _WorkerHandle) -> None:
        handle.incarnation += 1
        handle.task_q = self._ctx.Queue()
        handle.close_results()
        with _SPAWN_LOCK:
            handle.results, writer = self._ctx.Pipe(duplex=False)
            handle.process = self._ctx.Process(
                target=_worker_main,
                args=(
                    handle.worker_id,
                    handle.task_q,
                    writer,
                    self.cache_dir,
                    self.heartbeat_s,
                ),
                daemon=True,
                name=f"repro-serve-worker-{handle.worker_id}",
            )
            handle.process.start()
            # The worker now holds the only write end: its death is an
            # end-of-file on ``handle.results``.
            writer.close()
        handle.pid = handle.process.pid
        handle.state = "starting"
        handle.current = None
        handle.last_seen = time.monotonic()

    def stop(self, *, graceful: bool = True, timeout_s: float = 10.0) -> None:
        """Shut the pool down.

        Graceful stop sends each worker a sentinel and joins it — in-flight
        jobs finish first because the sentinel queues behind them, and the
        pool keeps reading while it waits (a worker blocked on a full result
        pipe never reaches its sentinel); the next :meth:`poll` returns what
        it read.  The non-graceful path terminates processes outright.
        """
        self._stopping = True
        if graceful:
            for handle in self._workers.values():
                if handle.alive():
                    handle.task_q.put(None)
            deadline = time.monotonic() + timeout_s
            while self.alive_count() and time.monotonic() < deadline:
                self._held.extend(self._drain(0.05))
        for handle in self._workers.values():
            if handle.alive():
                handle.process.terminate()
                handle.process.join(1.0)
            if handle.task_q is not None:
                handle.task_q.cancel_join_thread()
            self._held.extend(self._read(handle))
            handle.close_results()
            handle.state = "stopped"

    # -- Dispatch ------------------------------------------------------------

    def idle_workers(self) -> list[int]:
        return [
            wid
            for wid, h in self._workers.items()
            if h.state in ("idle", "starting") and h.current is None
        ]

    def in_flight(self) -> int:
        return sum(1 for h in self._workers.values() if h.current is not None)

    def dispatch(self, worker_id: int, job: QueuedJob) -> None:
        handle = self._workers[worker_id]
        if handle.current is not None:
            raise ServeError(
                f"worker {worker_id} already has job "
                f"{handle.current.spec.job_id} in flight"
            )
        handle.current = job
        handle.dispatched_at = time.monotonic()
        handle.state = "busy"
        handle.task_q.put((job.spec.to_dict(), job.attempt))

    # -- Event collection ----------------------------------------------------

    def poll(self, timeout: float = 0.1) -> list[PoolEvent]:
        """Drain worker messages (blocking up to ``timeout`` for the first)
        and detect crashed workers; crashed busy workers are respawned and
        their in-flight job returned for requeue."""
        events, self._held = self._held, []
        events.extend(self._drain(timeout))
        events.extend(self._reap_crashes())
        return events

    def _drain(self, timeout: float) -> list[PoolEvent]:
        """Handle every message already written, waiting up to ``timeout``
        for the first one."""
        handles = list(self._workers.values())
        wait([h.results for h in handles if h.results is not None], timeout)
        return [event for h in handles for event in self._read(h)]

    def _read(self, handle: _WorkerHandle) -> list[PoolEvent]:
        """Handle what one worker's channel holds, without blocking.  At
        end-of-file — the incarnation is dead, possibly mid-frame — the
        channel is closed; the crash itself is :meth:`_reap_crashes`'s."""
        events: list[PoolEvent] = []
        while handle.results is not None and handle.results.poll():
            try:
                msg = handle.results.recv()
            except (EOFError, OSError):
                handle.close_results()
                break
            event = self._handle_message(msg)
            if event is not None:
                events.append(event)
        return events

    def _handle_message(self, msg: tuple) -> PoolEvent | None:
        kind, worker_id = msg[0], msg[1]
        handle = self._workers[worker_id]
        handle.last_seen = time.monotonic()
        if kind == "ready":
            handle.state = "idle" if handle.current is None else "busy"
            return None
        if kind in ("heartbeat", "started"):
            return None
        if kind == "progress":
            _, _, job_id, batch, seconds, n_particles = msg
            return PoolEvent(
                "progress", worker_id,
                progress=(job_id, batch, seconds, n_particles),
            )
        if kind == "stopped":
            handle.state = "stopped"
            return None
        if kind == "done":
            _, _, job_id, result_dict = msg
            job = self._finish(handle, job_id)
            result = JobResult.from_dict(result_dict)
            self.breaker.record_success(job_id)
            return PoolEvent(
                "done",
                worker_id,
                job=job,
                result=result,
                service_seconds=result.service_seconds,
            )
        if kind == "error":
            _, _, job_id, message, service_s = msg
            job = self._finish(handle, job_id)
            return PoolEvent(
                "error", worker_id, job=job, message=message,
                service_seconds=service_s,
            )
        raise ServeError(f"unknown worker message kind {kind!r}")

    def _finish(self, handle: _WorkerHandle, job_id: str) -> QueuedJob | None:
        job = handle.current
        if job is not None and job.spec.job_id != job_id:
            raise ServeError(
                f"worker {handle.worker_id} finished {job_id} but "
                f"{job.spec.job_id} was in flight"
            )
        handle.current = None
        handle.state = "idle"
        return job

    def _reap_crashes(self) -> list[PoolEvent]:
        events: list[PoolEvent] = []
        if self._stopping:
            return events
        for handle in self._workers.values():
            proc = handle.process
            if proc is None or proc.is_alive() or handle.state == "stopped":
                continue
            # Whatever the worker finished writing before it died counts.
            events.extend(self._read(handle))
            lost = handle.current
            if lost is None:
                events.append(PoolEvent("crash", handle.worker_id))
            else:
                streak = self.breaker.record_failure(lost.spec.job_id)
                if self.breaker.is_open(lost.spec.job_id):
                    events.append(
                        PoolEvent(
                            "poisoned",
                            handle.worker_id,
                            job=lost,
                            message=(
                                f"worker died {streak} consecutive times "
                                f"with this job in flight"
                            ),
                        )
                    )
                else:
                    events.append(
                        PoolEvent("crash", handle.worker_id, job=lost)
                    )
            self._spawn(handle)
        return events

    # -- Health --------------------------------------------------------------

    def health(self) -> dict[int, dict]:
        """Liveness/heartbeat snapshot per worker."""
        now = time.monotonic()
        return {
            wid: {
                "alive": h.alive(),
                "state": h.state,
                "pid": h.pid,
                "incarnation": h.incarnation,
                "last_seen_s": now - h.last_seen,
                "in_flight": None
                if h.current is None
                else h.current.spec.job_id,
            }
            for wid, h in sorted(self._workers.items())
        }

    def alive_count(self) -> int:
        return sum(h.alive() for h in self._workers.values())
