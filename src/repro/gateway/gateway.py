"""The gateway: admission → cache → ring → shards, with supervision.

:class:`Gateway` is the front tier over N node-local
:class:`~repro.gateway.shard.GatewayShard`\\ s.  A submitted
:class:`~repro.serve.jobs.JobSpec` passes through four stations:

1. **Admission** (:class:`~repro.gateway.admission.AdmissionController`)
   — bounded in-flight occupancy with per-class fairness; rejection is a
   typed :class:`~repro.errors.QueueFullError` carrying the adaptive
   retry-after hint.
2. **Result cache** (:class:`~repro.gateway.results.ResultCache`) — a
   spec whose physics identity was already computed resolves immediately,
   with a payload byte-identical to recomputation and zero transport.
   Identical physics *in flight* coalesces: the first spec per cache key
   becomes the leader and runs; followers park and resolve from the
   cache the moment the leader's result lands.
3. **Routing** (:class:`~repro.gateway.routing.HashRing`) — placement by
   library fingerprint, so each XS library is built on exactly one shard
   and the single-builder lockfile election stays node-local.
4. **A shard** — whose pump thread feeds its service and reports results
   and per-batch progress back on the shared outbox.

Supervision runs shard-granular, reusing the supervise-tier primitives
one level up: per-shard throughput EMAs in a
:class:`~repro.supervise.health.HealthMonitor` (shards as ranks, fed by
worker progress events), and a
:class:`~repro.supervise.circuit.CircuitBreaker` that promotes repeated
*poisoned-job* verdicts on one shard into a **sick-shard** quarantine:
the shard is evicted, its unfinished jobs re-route deterministically
around the ring (front of their priority class, capacity-exempt), and
its fingerprints' next builds land on the surviving shards.  The last
healthy shard is never quarantined — degraded service beats none, the
supervise tier's graceful-degradation rule.

The async surface (:meth:`run_async`, :meth:`stream`) is cooperative
feeding over the same synchronous core: backlog feeding yields on
backpressure for exactly the advertised retry-after, and every cache
hit, completion, and per-batch progress report is one event in the
stream.

**Durability** (``journal_path=``): every state transition — accepted,
leader-elected, routed, completed, cache-hit, quarantined — is appended
to a :class:`~repro.gateway.journal.WriteAheadJournal` *before* the
in-memory mutation it describes.  A restarted gateway calls
:meth:`recover`: landed results are restored verbatim from their
``completed``/``cache-hit`` records (never re-simulated), unfinished
specs re-admit front-of-class in original-arrival order
(capacity-exempt — they already held a slot once), and quarantine plus
circuit-breaker state replays deterministically.  Recovered sweep
payloads are byte-identical to an uninterrupted run — the physics is a
pure function of the spec, and the journal guarantees nothing landed
twice.
"""

from __future__ import annotations

import asyncio
import queue as _queue
from collections import deque
from pathlib import Path

from ..errors import GatewayError, JobError, QueueFullError
from ..serve.jobs import JobResult, JobSpec
from ..supervise.circuit import CircuitBreaker
from ..supervise.deadline import Deadline
from ..supervise.health import HealthMonitor
from .admission import AdmissionController
from .journal import WriteAheadJournal
from .results import ResultCache
from .routing import HashRing
from .shard import GatewayShard, ShardEvent

__all__ = ["Gateway"]

#: Aggregate counters rolled up across shard services.
_AGGREGATE_COUNTERS = (
    "jobs_completed", "jobs_failed", "jobs_poisoned", "jobs_requeued",
    "worker_crashes", "library_builds", "library_disk_hits",
    "library_memory_hits",
)

_IDLE_SLEEP_S = 0.005

#: Consecutive poisoned jobs on one shard that trip its quarantine.
_BREAKER_THRESHOLD = 2


class Gateway:
    """Sharded async service tier with admission, affinity, and caching."""

    def __init__(
        self,
        n_shards: int = 2,
        *,
        workers_per_shard: int = 1,
        capacity: int = 256,
        max_class_share: float = 0.5,
        cache_dir: str | None = None,
        result_cache: ResultCache | None = None,
        start_method: str | None = None,
        service_factory=None,
        journal_path: str | Path | None = None,
        journal_fsync: bool = False,
    ) -> None:
        if n_shards < 1:
            raise GatewayError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        self.workers_per_shard = workers_per_shard
        self.outbox: "_queue.Queue[ShardEvent]" = _queue.Queue()
        self.shards: dict[int, GatewayShard] = {
            i: GatewayShard(
                i,
                self.outbox,
                n_workers=workers_per_shard,
                # Per-shard cache subtree: the LibraryCache lockfile
                # election is a *node-local* protocol, and the shard is
                # the gateway's node.
                cache_dir=(
                    str(Path(cache_dir) / f"shard-{i}") if cache_dir else None
                ),
                start_method=start_method,
                service_factory=service_factory,
            )
            for i in range(n_shards)
        }
        self.ring = HashRing(self.shards)
        self.admission = AdmissionController(
            capacity,
            max_class_share=max_class_share,
            slots=n_shards * workers_per_shard,
        )
        # `is not None`, not truthiness: an empty ResultCache is len()==0
        # and must still be honored (it may carry a disk directory).
        self.result_cache = (
            result_cache if result_cache is not None else ResultCache()
        )
        self.health = HealthMonitor(list(self.shards))
        #: Poison-promotion breaker, keyed ``shard-<id>``.
        self.breaker = CircuitBreaker(threshold=_BREAKER_THRESHOLD)
        self.quarantined: set[int] = set()
        self.results: dict[str, JobResult] = {}
        self._specs: dict[str, JobSpec] = {}
        self._order: list[str] = []
        self._outstanding: set[str] = set()
        self._admitted_class: dict[str, str] = {}
        self._job_shard: dict[str, int] = {}
        #: In-flight leader per cache key, and the followers parked on it.
        self._inflight: dict[str, str] = {}
        self._waiters: dict[str, list[str]] = {}
        #: Events produced gateway-side (cache hits) awaiting the next poll.
        self._local_events: deque[dict] = deque()
        self.counters = {
            "submitted": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "completed": 0,
            "failed": 0,
            "poisoned": 0,
            "requeued": 0,
            "quarantines": 0,
            "quarantines_skipped": 0,
            "recovered": 0,
        }
        #: Write-ahead journal: every transition lands here before the
        #: in-memory state mutates (``None`` = volatile gateway).
        self.journal = (
            WriteAheadJournal(journal_path, fsync=journal_fsync)
            if journal_path is not None
            else None
        )
        self._started = False

    def _journal_append(self, kind: str, **data) -> None:
        if self.journal is not None:
            self.journal.append(kind, **data)

    # -- Lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        for shard_id, shard in self.shards.items():
            if shard_id not in self.quarantined:
                shard.start()
        self._started = True

    def shutdown(self, *, graceful: bool = True) -> None:
        for shard_id, shard in self.shards.items():
            if shard_id in self.quarantined:
                continue  # already stopped by eviction
            shard.stop(graceful=graceful)
        if self.journal is not None:
            self.journal.close()
        self._started = False

    def __enter__(self) -> "Gateway":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(graceful=not any(exc))

    # -- Submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Admit, cache-check, and route one job; returns its id.

        Raises :class:`QueueFullError` (typed, with the adaptive
        retry-after) when admission rejects, :class:`JobError` on a
        duplicate id.
        """
        if spec.job_id in self._specs:
            raise JobError(f"duplicate job id {spec.job_id!r}")
        cls = self.admission.admit(spec)
        # Write-ahead: the acceptance is durable before any state below
        # reflects it.  A crash between admit() and this append loses
        # only the (volatile) occupancy count, which dies with us anyway.
        self._journal_append(
            "accepted", job_id=spec.job_id, cls=cls, spec=spec.to_dict()
        )
        self._specs[spec.job_id] = spec
        self._order.append(spec.job_id)
        self.counters["submitted"] += 1

        cached = self.result_cache.get(spec)
        if cached is not None:
            # Resolved at the front door: no shard, no slot held.  The
            # record carries the full result so recovery can restore it
            # even if the cache directory has since been lost.
            self._journal_append(
                "cache-hit", job_id=spec.job_id, result=cached.to_dict()
            )
            self.admission.release(cls)
            self.results[spec.job_id] = cached
            self.counters["cache_hits"] += 1
            self.counters["completed"] += 1
            self._local_events.append(
                {
                    "kind": "done",
                    "job_id": spec.job_id,
                    "status": cached.status,
                    "shard": -1,
                    "cached": True,
                }
            )
            return spec.job_id

        self._admitted_class[spec.job_id] = cls
        self._outstanding.add(spec.job_id)
        key = self.result_cache.key_for(spec)
        if key in self._inflight:
            # Coalesce: the same physics is already running somewhere in
            # the tier.  Park behind the leader; the cache answers when
            # its result lands.  The slot stays held — a parked job is
            # still admitted occupancy.
            self._waiters.setdefault(key, []).append(spec.job_id)
            self.counters["coalesced"] += 1
            return spec.job_id
        self._elect_leader(key, spec.job_id)
        self._route(spec, front=False)
        return spec.job_id

    def _elect_leader(self, key: str, job_id: str) -> None:
        self._journal_append(
            "leader-elected", job_id=job_id, key=key
        )
        self._inflight[key] = job_id

    def _route(self, spec: JobSpec, *, front: bool) -> None:
        shard_id = self.ring.shard_for(
            spec.library_fingerprint(), excluded=self.quarantined
        )
        self._journal_append(
            "routed", job_id=spec.job_id, shard=shard_id, front=front
        )
        self._job_shard[spec.job_id] = shard_id
        self.shards[shard_id].submit(spec, front=front)

    # -- Event pump ----------------------------------------------------------

    def poll(self, timeout: float = 0.05) -> list[dict]:
        """Process pending shard events; returns them in arrival order.

        Blocks up to ``timeout`` only when nothing is immediately ready.
        Event documents: ``{"kind": "progress", "shard", "job_id",
        "worker_id", "batch", "seconds", "n_particles"}`` and ``{"kind":
        "done", "job_id", "status", "shard", "cached"}``.
        """
        self.start()
        events: list[dict] = []
        while self._local_events:
            events.append(self._local_events.popleft())
        block = timeout if not events else 0.0
        while True:
            try:
                raw = self.outbox.get(timeout=block)
            except _queue.Empty:
                break
            block = 0.0
            handled = self._handle(raw)
            if handled is not None:
                events.append(handled)
            while self._local_events:
                events.append(self._local_events.popleft())
        return events

    def _handle(self, event: ShardEvent) -> dict | None:
        if event.kind == "progress":
            worker_id, job_id, batch, seconds, n_particles = event.progress
            # Shards are the supervised ranks: every batch completed by
            # any of a shard's workers feeds that shard's throughput EMA.
            self.health.record(event.shard_id, batch, seconds, n_particles)
            return {
                "kind": "progress",
                "shard": event.shard_id,
                "job_id": job_id,
                "worker_id": worker_id,
                "batch": batch,
                "seconds": seconds,
                "n_particles": n_particles,
            }

        result = event.result
        if result.job_id in self.results:
            # A completion racing an eviction can be reported by both the
            # dying shard's flush and the surviving shard's rerun; the
            # payloads are bit-identical, so first report wins.  The
            # dedup sits *before* the journal append, so a journal never
            # carries two landings for one job — the exactly-once
            # property the chaos audit checks.
            return None
        self._journal_append(
            "completed",
            job_id=result.job_id,
            status=result.status,
            shard=event.shard_id,
            result=result.to_dict(),
        )
        self.results[result.job_id] = result
        self._outstanding.discard(result.job_id)
        cls = self._admitted_class.pop(result.job_id, None)
        if cls is not None:
            self.admission.release(cls)

        shard_key = f"shard-{event.shard_id}"
        spec = self._specs.get(result.job_id)
        key = self.result_cache.key_for(spec) if spec is not None else None
        if key is not None and self._inflight.get(key) == result.job_id:
            del self._inflight[key]
        if result.status == "done":
            self.counters["completed"] += 1
            self.admission.note_service(result.service_seconds)
            self.breaker.record_success(shard_key)
            if spec is not None:
                self.result_cache.put(spec, result)
            if key is not None:
                self._resolve_waiters(key)
        elif result.status == "poisoned":
            self.counters["poisoned"] += 1
            # Poison promotion: a job that deterministically kills this
            # shard's workers may be the job's fault once — but a streak
            # indicts the shard.
            self.breaker.record_failure(shard_key)
            if (
                self.breaker.is_open(shard_key)
                and event.shard_id not in self.quarantined
            ):
                self.quarantine_shard(event.shard_id)
        else:
            self.counters["failed"] += 1
        if result.status != "done" and key is not None:
            self._promote_waiter(key)

        return {
            "kind": "done",
            "job_id": result.job_id,
            "status": result.status,
            "shard": event.shard_id,
            "cached": False,
        }

    def _resolve_waiters(self, key: str) -> None:
        """Serve every follower parked on ``key`` from the fresh cache."""
        for waiter_id in self._waiters.pop(key, []):
            cached = self.result_cache.get(self._specs[waiter_id])
            if cached is None:  # cache raced an eviction: rerun instead
                self._elect_leader(key, waiter_id)
                self._route(self._specs[waiter_id], front=True)
                continue
            self._journal_append(
                "cache-hit", job_id=waiter_id, result=cached.to_dict()
            )
            self.results[waiter_id] = cached
            self._outstanding.discard(waiter_id)
            cls = self._admitted_class.pop(waiter_id, None)
            if cls is not None:
                self.admission.release(cls)
            self.counters["cache_hits"] += 1
            self.counters["completed"] += 1
            self._local_events.append(
                {
                    "kind": "done",
                    "job_id": waiter_id,
                    "status": cached.status,
                    "shard": -1,
                    "cached": True,
                }
            )

    def _promote_waiter(self, key: str) -> None:
        """The leader for ``key`` failed: its followers must not hang.

        The first parked follower becomes the new leader and actually
        runs (front of its class — it has already waited its turn); the
        rest stay parked behind it.
        """
        waiters = self._waiters.get(key)
        if not waiters:
            self._waiters.pop(key, None)
            return
        new_leader = waiters.pop(0)
        if not waiters:
            del self._waiters[key]
        self._elect_leader(key, new_leader)
        self._route(self._specs[new_leader], front=True)

    # -- Quarantine ----------------------------------------------------------

    def quarantine_shard(self, shard_id: int) -> bool:
        """Evict a shard and re-route its unfinished jobs; False if skipped.

        The minimum-one-shard floor: quarantining the only healthy shard
        would turn a sick service into no service, so the request is
        counted and refused instead.
        """
        if shard_id in self.quarantined:
            return False
        if len(self.quarantined) + 1 >= self.n_shards:
            self.counters["quarantines_skipped"] += 1
            return False
        leftovers = self.shards[shard_id].evict()
        requeue = [
            spec for spec in leftovers if spec.job_id not in self.results
        ]
        # One record covers the whole quarantine; the re-routes that
        # follow journal themselves as ordinary ``routed`` records.
        self._journal_append(
            "quarantined",
            shard=shard_id,
            requeued=[spec.job_id for spec in requeue],
        )
        self.quarantined.add(shard_id)
        self.health.mark_dead(shard_id)
        self.counters["quarantines"] += 1
        healthy = self.n_shards - len(self.quarantined)
        self.admission.slots = healthy * self.workers_per_shard
        for spec in requeue:
            self.counters["requeued"] += 1
            self._route(spec, front=True)
        return True

    # -- Crash recovery ------------------------------------------------------

    def has_job(self, job_id: str) -> bool:
        """Whether this gateway already knows ``job_id`` (recovered,
        in flight, or resolved) — the CLI's resubmission filter."""
        return job_id in self._specs or job_id in self.results

    def recover(self) -> dict:
        """Replay the journal and resume where the dead incarnation died.

        * **Landed results** (``completed``/``cache-hit`` records) are
          restored verbatim — the payload bytes in :attr:`results` are
          exactly the ones the previous incarnation journaled, and the
          work is never re-simulated.
        * **Unfinished specs** (accepted, no landing) re-admit in their
          original arrival order, capacity-exempt and front-of-class:
          they already held a slot and already waited their turn.
        * **Quarantine and breaker state** replay deterministically —
          the breaker is a pure function of its record_* sequence, so
          the restored circuits match the dead gateway's exactly.

        Returns a summary document (``replayed``, ``restored``,
        ``requeued``, ``truncated_bytes``).  Raises
        :class:`~repro.errors.GatewayError` when the gateway has no
        journal, and :class:`~repro.errors.JournalError` on splice-level
        corruption (a torn tail is repaired silently).
        """
        if self.journal is None:
            raise GatewayError(
                "recover() needs a journal_path-configured gateway"
            )
        if self._specs or self.results:
            raise GatewayError(
                "recover() must run on a fresh gateway, before any "
                "submissions"
            )
        scan = self.journal.replay()
        specs: dict[str, JobSpec] = {}
        order: list[str] = []
        landed: dict[str, JobResult] = {}
        cached_ids: set[str] = set()
        for record in scan.records:
            data = record.data
            if record.kind == "accepted":
                spec = JobSpec.from_dict(data["spec"])
                specs[spec.job_id] = spec
                order.append(spec.job_id)
            elif record.kind == "completed":
                landed[data["job_id"]] = JobResult.from_dict(
                    data["result"]
                )
                shard_key = f"shard-{data['shard']}"
                if data["status"] == "done":
                    self.breaker.record_success(shard_key)
                elif data["status"] == "poisoned":
                    self.counters["poisoned"] += 1
                    self.breaker.record_failure(shard_key)
                if data["status"] not in ("done", "poisoned"):
                    self.counters["failed"] += 1
            elif record.kind == "cache-hit":
                landed[data["job_id"]] = JobResult.from_dict(
                    data["result"]
                )
                cached_ids.add(data["job_id"])
            elif record.kind == "quarantined":
                shard_id = int(data["shard"])
                if shard_id in self.quarantined:
                    continue
                self.quarantined.add(shard_id)
                self.health.mark_dead(shard_id)
                self.counters["quarantines"] += 1
                self.counters["requeued"] += len(data["requeued"])
        healthy = self.n_shards - len(self.quarantined)
        if healthy > 0:
            self.admission.slots = healthy * self.workers_per_shard

        # Restore the durable picture before journaling anything new.
        for job_id in order:
            self._specs[job_id] = specs[job_id]
            self._order.append(job_id)
            self.counters["submitted"] += 1
            result = landed.get(job_id)
            if result is None:
                continue
            self.counters["recovered"] += 1
            self.results[job_id] = result
            if job_id in cached_ids:
                self.counters["cache_hits"] += 1
                self.counters["completed"] += 1
            elif result.status == "done":
                self.counters["completed"] += 1
                # Re-seed the cache: identical future physics must keep
                # hitting even if the cache tier itself was volatile.
                self.result_cache.put(specs[job_id], result)

        pending = [j for j in order if j not in landed]
        self._journal_append(
            "recovered",
            replayed=len(scan.records),
            restored=len(landed),
            pending=pending,
            truncated_bytes=scan.truncated_bytes,
        )

        # Re-admit survivors: original arrival order, front of class.
        for job_id in pending:
            spec = specs[job_id]
            self.counters["recovered"] += 1
            cached = self.result_cache.get(spec)
            if cached is not None:
                self._journal_append(
                    "cache-hit", job_id=job_id, result=cached.to_dict()
                )
                self.results[job_id] = cached
                self.counters["cache_hits"] += 1
                self.counters["completed"] += 1
                self._local_events.append(
                    {
                        "kind": "done",
                        "job_id": job_id,
                        "status": cached.status,
                        "shard": -1,
                        "cached": True,
                    }
                )
                continue
            cls = self.admission.admit(spec, exempt=True)
            self._admitted_class[job_id] = cls
            self._outstanding.add(job_id)
            key = self.result_cache.key_for(spec)
            if key in self._inflight:
                self._waiters.setdefault(key, []).append(job_id)
                self.counters["coalesced"] += 1
                continue
            self._elect_leader(key, job_id)
            self._route(spec, front=True)
        return {
            "replayed": len(scan.records),
            "restored": len(landed),
            "requeued": len(pending),
            "truncated_bytes": scan.truncated_bytes,
        }

    # -- Draining ------------------------------------------------------------

    def unresolved(self) -> int:
        """Jobs admitted but not yet resolved anywhere in the tier."""
        return len(self._outstanding)

    def drain(self, *, deadline_s: float | None = None) -> None:
        """Block until every submitted job has a result."""
        deadline = (
            Deadline(deadline_s, label="gateway drain")
            if deadline_s is not None
            else None
        )
        while self.unresolved():
            if deadline is not None:
                deadline.check(
                    f"draining {self.unresolved()} unresolved job(s)"
                )
            self.poll(timeout=0.05)

    def ordered_results(self) -> list[JobResult]:
        """Results for every resolved job, in submission order."""
        return [
            self.results[job_id]
            for job_id in self._order
            if job_id in self.results
        ]

    # -- Async front tier ----------------------------------------------------

    async def run_async(
        self,
        specs: list[JobSpec],
        *,
        deadline_s: float | None = None,
    ) -> list[JobResult]:
        """Submit ``specs`` (yielding on backpressure) and drain them all."""
        results = []
        async for event in self.stream(specs, deadline_s=deadline_s):
            if event["kind"] == "done":
                results.append(self.results[event["job_id"]])
        ordered = {r.job_id: r for r in results}
        return [ordered[s.job_id] for s in specs if s.job_id in ordered]

    async def stream(
        self,
        specs: list[JobSpec],
        *,
        deadline_s: float | None = None,
    ):
        """Async event stream: submit ``specs``, yield every event.

        Yields the :meth:`poll` event documents — per-batch ``progress``
        and per-job ``done`` (cache hits included) — until every spec in
        this call has resolved.  Backpressure is cooperative: when
        admission rejects, the feeder sleeps the advertised retry-after
        and lets other coroutines run.
        """
        self.start()
        backlog = deque(specs)
        wanted = {s.job_id for s in specs}
        done = 0
        deadline = (
            Deadline(deadline_s, label="gateway stream")
            if deadline_s is not None
            else None
        )
        while backlog or done < len(wanted):
            if deadline is not None:
                deadline.check(
                    f"{len(wanted) - done} job(s) unresolved"
                )
            while backlog:
                try:
                    self.submit(backlog[0])
                except QueueFullError as exc:
                    await asyncio.sleep(
                        min(exc.retry_after_s, 0.25)
                    )
                    break
                backlog.popleft()
            events = self.poll(timeout=0.0)
            if not events:
                await asyncio.sleep(_IDLE_SLEEP_S)
                continue
            for event in events:
                if (
                    event["kind"] == "done"
                    and event["job_id"] in wanted
                ):
                    done += 1
                yield event

    def run(
        self,
        specs: list[JobSpec],
        *,
        deadline_s: float | None = None,
    ) -> list[JobResult]:
        """Synchronous wrapper over :meth:`run_async`."""
        return asyncio.run(
            self.run_async(specs, deadline_s=deadline_s)
        )

    # -- Observability -------------------------------------------------------

    def metrics_summary(self) -> dict:
        """Gateway counters + supervision state + per-shard summaries."""
        aggregate = {name: 0 for name in _AGGREGATE_COUNTERS}
        overhead_sum = 0.0
        service_sum = 0.0
        shards = {}
        for shard_id, shard in self.shards.items():
            metrics = shard.service.metrics
            for name in _AGGREGATE_COUNTERS:
                aggregate[name] += metrics.counter(name).value
            overhead_sum += metrics.histogram(
                "dispatch_overhead_seconds"
            ).sum
            service_sum += metrics.histogram("service_seconds").sum
            shards[str(shard_id)] = shard.metrics_summary()
        aggregate["dispatch_overhead_seconds"] = overhead_sum
        aggregate["service_seconds"] = service_sum
        aggregate["dispatch_overhead_fraction"] = (
            overhead_sum / service_sum if service_sum else 0.0
        )
        journal = None
        if self.journal is not None:
            journal = {
                "path": str(self.journal.path),
                "next_seq": self.journal.next_seq,
                "appended": self.journal.appended,
                "fsync": self.journal.fsync,
            }
        return {
            "gateway": {
                "n_shards": self.n_shards,
                "workers_per_shard": self.workers_per_shard,
                "quarantined": sorted(self.quarantined),
                "unresolved": self.unresolved(),
                "counters": dict(self.counters),
                "admission": self.admission.snapshot(),
                "result_cache": self.result_cache.stats(),
                "breaker": self.breaker.as_dict(),
                "health": self.health.summary(),
                "journal": journal,
            },
            "aggregate": aggregate,
            "shards": shards,
        }
