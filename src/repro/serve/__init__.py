"""Batched multi-worker simulation service.

The paper's Fig. 3 lesson — bank at least 10,000 particles so homogeneous
kernels amortize fixed offload costs — applied at the job level: batch
incoming simulation requests, shard them across persistent workers, and
amortize the dominant fixed cost (cross-section library construction) with
a shared fingerprint-keyed cache and affinity-aware batching.

Layers (each its own module):

* :mod:`~repro.serve.jobs` — :class:`JobSpec`/:class:`JobResult`, the
  JSON-round-tripping request/response model;
* :mod:`~repro.serve.queue` — priority queue with front-of-class
  recovery requeue (unbounded: the gateway's admission is the bound);
* :mod:`~repro.serve.cache` — fingerprint-keyed on-disk library cache
  (build once, load everywhere);
* :mod:`~repro.serve.batching` — fingerprint-affinity dispatch and
  per-worker utilization accounting;
* :mod:`~repro.serve.pool` — persistent multiprocessing workers with
  heartbeat health, graceful drain, and crash respawn;
* :mod:`~repro.serve.metrics` — counters/gauges/latency histograms
  exported as JSON and projectable onto :class:`repro.profiling.Profile`;
* :mod:`~repro.serve.service` — the orchestrating loop plus the file
  spool behind ``repro-sim suite submit`` and ``gateway serve --spool``.

Invariant: a job executed through the service — through queueing,
batching, caching, even a worker crash and rerun — produces bit-identical
k-effective trajectories to the same settings run directly through
:class:`~repro.transport.simulation.Simulation`.
"""

from .batching import Batcher, WorkerUtilization
from .cache import CacheOutcome, LibraryCache
from .jobs import JobResult, JobSpec
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Info,
    MetricsRegistry,
)
from .pool import PoolEvent, WorkerPool
from .queue import JobQueue, QueuedJob
from .service import (
    SimulationService,
    read_spool_pending,
    spool_dirs,
    submit_to_spool,
    write_spool_result,
)

__all__ = [
    "Batcher",
    "WorkerUtilization",
    "CacheOutcome",
    "LibraryCache",
    "JobResult",
    "JobSpec",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Info",
    "MetricsRegistry",
    "PoolEvent",
    "WorkerPool",
    "JobQueue",
    "QueuedJob",
    "SimulationService",
    "read_spool_pending",
    "spool_dirs",
    "submit_to_spool",
    "write_spool_result",
]
