"""A process-free stand-in service for gateway load benchmarks.

Benchmarking the *gateway* — admission, routing, caching, event pumping —
requires thousands of jobs per second, which real worker processes
running real transport cannot supply (nor should they: the transport
kernels have their own benches).  :class:`SyntheticService` implements
exactly the protocol :class:`~repro.gateway.shard.GatewayShard` drives —
``submit`` / ``step`` / ``take_fresh_results`` / ``outstanding`` /
``shutdown``, an ``on_progress`` observer, and a
:class:`~repro.serve.metrics.MetricsRegistry` — but resolves each job
instantly with a **fabricated, deterministic** payload: every physics
field is a pure function of the spec's cache key, so the result-cache
byte-identity property holds under synthetic load exactly as it does
under real transport.

Library-source accounting is modelled too (first sight of a fingerprint
is a ``built``, repeats are ``memory``), so affinity assertions — "one
build per fingerprint when routing is affine" — carry over to the bench.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque

from ..serve.jobs import JobResult, JobSpec
from ..serve.metrics import MetricsRegistry

__all__ = ["SyntheticService"]

_IDLE_SLEEP_S = 0.001


def _frac(digest: bytes, i: int) -> float:
    """A [0, 1) float carved deterministically out of a digest."""
    return int.from_bytes(digest[4 * i: 4 * i + 4], "big") / 2.0**32


class SyntheticService:
    """Drop-in shard service that fabricates deterministic results."""

    def __init__(
        self,
        n_workers: int = 2,
        *,
        cache_dir: str | None = None,
        start_method: str | None = None,
    ) -> None:
        del cache_dir, start_method  # protocol compatibility only
        self.n_workers = n_workers
        self.on_progress = None
        self.metrics = MetricsRegistry("synthetic")
        for name in (
            "jobs_submitted", "jobs_completed", "jobs_failed",
            "jobs_poisoned", "jobs_requeued", "worker_crashes",
            "library_builds", "library_disk_hits", "library_memory_hits",
        ):
            self.metrics.counter(name)
        for name in ("dispatch_overhead_seconds", "service_seconds"):
            self.metrics.histogram(name)
        self._queue: deque[JobSpec] = deque()
        self._fresh: list[JobResult] = []
        self._seen_fingerprints: set[str] = set()
        self._started = False

    # -- Shard-service protocol ----------------------------------------------

    def submit(self, spec: JobSpec, *, front: bool = False) -> str:
        if front:
            self._queue.appendleft(spec)
        else:
            self._queue.append(spec)
        self.metrics.counter("jobs_submitted").inc()
        return spec.job_id

    def outstanding(self) -> int:
        return len(self._queue)

    def start(self) -> None:
        self._started = True

    def step(self) -> list[JobResult]:
        self.start()
        if not self._queue:
            time.sleep(_IDLE_SLEEP_S)
            return self.take_fresh_results()
        t0 = time.perf_counter()
        for _ in range(self.n_workers):
            if not self._queue:
                break
            self._fresh.append(self._fabricate(self._queue.popleft()))
        self.metrics.histogram("dispatch_overhead_seconds").observe(
            time.perf_counter() - t0
        )
        return self.take_fresh_results()

    def take_fresh_results(self) -> list[JobResult]:
        fresh = self._fresh
        self._fresh = []
        return fresh

    def shutdown(self, *, graceful: bool = True) -> None:
        del graceful
        self._started = False

    def metrics_summary(self) -> dict:
        return {"metrics": self.metrics.as_dict()}

    # -- Fabrication ---------------------------------------------------------

    def _fabricate(self, spec: JobSpec) -> JobResult:
        digest = hashlib.sha256(
            f"synthetic:{spec.cache_key()}".encode()
        ).digest()
        settings = spec.to_settings()
        n_batches = settings.n_inactive + settings.n_active
        n_particles = settings.n_particles
        per_batch = [
            hashlib.sha256(f"{spec.cache_key()}:batch-{b}".encode()).digest()
            for b in range(n_batches)
        ]
        k_collision = [0.9 + 0.2 * _frac(d, 0) for d in per_batch]
        fingerprint = spec.library_fingerprint()
        if fingerprint in self._seen_fingerprints:
            source = "memory"
            self.metrics.counter("library_memory_hits").inc()
        else:
            self._seen_fingerprints.add(fingerprint)
            source = "built"
            self.metrics.counter("library_builds").inc()
        if self.on_progress is not None:
            for batch in range(n_batches):
                self.on_progress(
                    0, spec.job_id, batch, 1e-4, n_particles
                )
        service_s = 1e-4 * n_batches
        self.metrics.counter("jobs_completed").inc()
        self.metrics.histogram("service_seconds").observe(service_s)
        return JobResult(
            job_id=spec.job_id,
            status="done",
            mode=settings.mode,
            n_particles=n_particles,
            n_batches=n_batches,
            k_effective=0.9 + 0.2 * _frac(digest, 0),
            k_std_err=1e-3 * _frac(digest, 1),
            k_collision=k_collision,
            k_absorption=[0.9 + 0.2 * _frac(d, 1) for d in per_batch],
            k_track=[0.9 + 0.2 * _frac(d, 2) for d in per_batch],
            entropy=[_frac(d, 3) for d in per_batch],
            counters={"synthetic": True},
            settings_fingerprint=spec.settings_fingerprint(),
            library_fingerprint=fingerprint,
            case_id=spec.case_id,
            suite_id=spec.suite_id,
            scenario_fingerprint=spec.scenario_fingerprint,
            worker_id=0,
            attempts=1,
            service_seconds=service_s,
            library_source=source,
        )
