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
around the ring (front of their priority class), and its fingerprints'
next builds land on the surviving shards.  The last healthy shard is
never quarantined — degraded service beats none, the supervise tier's
graceful-degradation rule.

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
``completed``/``cache-hit`` records (never re-simulated; a hit names the
record that carries its payload instead of repeating it), unfinished
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

from ..errors import GatewayError, JobError, JournalError, QueueFullError
from ..serve.jobs import JobResult, JobSpec, compact
from ..supervise.circuit import CircuitBreaker
from ..supervise.deadline import Deadline
from ..supervise.health import HealthMonitor
from .admission import AdmissionController
from .journal import JournalRecord, WriteAheadJournal
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


def _done_event(result: JobResult, shard_id: int, *, cached: bool) -> dict:
    return {
        "kind": "done",
        "job_id": result.job_id,
        "status": result.status,
        "shard": shard_id,
        "cached": cached,
    }


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
        #: ``(admission class, cache key)`` of every accepted, still
        #: unresolved job.
        self._admitted: dict[str, tuple[str, str]] = {}
        #: Cache key -> the job whose landing record in this journal
        #: carries that key's payload; later hits name it as ``source``.
        self._payload_job: dict[str, str] = {}
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

    # -- Journal transitions -------------------------------------------------
    #
    # One method per durable record kind, holding all the record means
    # for in-memory state.  The live path appends the record and then
    # calls the method; :meth:`recover` hands each record to the same
    # method as the journal is read, so there is no second copy to keep
    # in step.  ``leader-elected``, ``routed`` and ``recovered`` describe
    # volatile scheduling state and have no transition.

    def _accepted(self, spec: JobSpec) -> None:
        self._specs[spec.job_id] = spec
        self._order.append(spec.job_id)
        self.counters["submitted"] += 1

    def _cache_hit(self, result: JobResult, key: str | None = None) -> None:
        self.results[result.job_id] = result
        self.counters["cache_hits"] += 1
        self.counters["completed"] += 1
        if key is not None:  # a hit that embeds its payload can be a source
            self._payload_job.setdefault(key, result.job_id)

    def _completed(self, result: JobResult, shard_id: int, doc: dict, key=None):
        """``doc`` is the document the cache keeps: the journaled one on
        the live path, on replay ``result``'s own field dict (a landing
        is held once); ``key`` is the job's cache key when known."""
        self.results[result.job_id] = result
        shard_key = f"shard-{shard_id}"
        if result.status == "done":
            self.counters["completed"] += 1
            self.breaker.record_success(shard_key)
            spec = self._specs.get(result.job_id)
            if spec is not None:
                key = key or spec.cache_key()
                self._payload_job[key] = result.job_id
                # On replay this re-seeds the cache: identical future
                # physics must keep hitting even if the cache tier
                # itself was volatile.
                self.result_cache.put(spec, result, key, doc)
        elif result.status == "poisoned":
            self.counters["poisoned"] += 1
            # Poison promotion: a job that deterministically kills this
            # shard's workers may be the job's fault once — but a streak
            # indicts the shard.
            self.breaker.record_failure(shard_key)
        else:
            self.counters["failed"] += 1

    def _quarantined(self, shard_id: int, n_requeued: int) -> None:
        self.quarantined.add(shard_id)
        self.health.mark_dead(shard_id)
        self.counters["quarantines"] += 1
        self.counters["requeued"] += n_requeued
        healthy = self.n_shards - len(self.quarantined)
        if healthy > 0:  # false only for a journal from a larger tier
            self.admission.slots = healthy * self.workers_per_shard

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
        self._accepted(spec)
        self._place(spec, cls, spec.cache_key(), front=False)
        return spec.job_id

    def _place(self, spec: JobSpec, cls: str, key: str, *, front: bool):
        """Cache check → park behind the in-flight leader → elect and
        route, for a spec with cache key ``key`` holding one admission
        slot of class ``cls``."""
        self._admitted[spec.job_id] = (cls, key)
        cached = self.result_cache.get(spec, key)
        if cached is not None:
            # Resolved at the front door: no shard runs.  The record
            # names the job whose landing in this journal carries the
            # payload; with none (a disk entry from an earlier run) it
            # embeds the result, so recovery never needs the cache.
            source = self._payload_job.get(key)
            carried = (
                {"source": source} if source else {"result": cached.to_dict()}
            )
            self._journal_append("cache-hit", job_id=spec.job_id, **carried)
            self._cache_hit(cached, key)
            self._release(spec.job_id)
            self._local_events.append(_done_event(cached, -1, cached=True))
            return
        if key in self._inflight:
            # Coalesce: the same physics is already running somewhere in
            # the tier.  Park behind the leader; the cache answers when
            # its result lands.  The slot stays held — a parked job is
            # still admitted occupancy.
            self._waiters.setdefault(key, []).append(spec.job_id)
            self.counters["coalesced"] += 1
            return
        self._journal_append("leader-elected", job_id=spec.job_id, key=key)
        self._inflight[key] = spec.job_id
        self._route(spec, front=front)

    def _route(self, spec: JobSpec, *, front: bool) -> None:
        shard_id = self.ring.shard_for(
            spec.library_fingerprint(), excluded=self.quarantined
        )
        self._journal_append(
            "routed", job_id=spec.job_id, shard=shard_id, front=front
        )
        self._job_shard[spec.job_id] = shard_id
        self.shards[shard_id].submit(spec, front=front)

    def _release(self, job_id: str) -> None:
        """A landed job is no longer unresolved and returns its slot."""
        admitted = self._admitted.pop(job_id, None)
        if admitted is not None:
            self.admission.release(admitted[0])

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
        doc = result.to_dict()  # built once: journaled, then cached
        self._journal_append(
            "completed",
            job_id=result.job_id,
            status=result.status,
            shard=event.shard_id,
            result=doc,
        )
        _, key = self._admitted.get(result.job_id, (None, None))
        self._completed(result, event.shard_id, doc, key)
        self._release(result.job_id)

        if key is not None and self._inflight.get(key) == result.job_id:
            del self._inflight[key]
        if result.status == "done":
            self.admission.note_service(result.service_seconds)
        elif (
            result.status == "poisoned"
            and self.breaker.is_open(f"shard-{event.shard_id}")
            and event.shard_id not in self.quarantined
        ):
            self.quarantine_shard(event.shard_id)
        if key is not None:
            self._resolve_waiters(key)
        return _done_event(result, event.shard_id, cached=False)

    def _resolve_waiters(self, key: str) -> None:
        """The leader for ``key`` landed: place its followers again.

        Front of their class — they have already waited their turn.  A
        ``done`` leader has just seeded the cache, which answers them
        all.  When it cannot (the leader failed, or its entry raced an
        eviction) followers must not hang: the first becomes the new
        leader and actually runs, the rest park behind it.
        """
        for waiter_id in self._waiters.pop(key, []):
            cls, _ = self._admitted[waiter_id]
            self._place(self._specs[waiter_id], cls, key, front=True)

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
        self._quarantined(shard_id, len(requeue))
        for spec in requeue:
            self._route(spec, front=True)
        return True

    # -- Crash recovery ------------------------------------------------------

    def has_job(self, job_id: str) -> bool:
        """Whether this gateway already knows ``job_id`` (recovered,
        in flight, or resolved) — the CLI's resubmission filter."""
        return job_id in self._specs or job_id in self.results

    def recover(self) -> dict:
        """Replay the journal and resume where the dead incarnation died.

        Each record goes, as it is read, to the transition method the
        live path ran after writing it:

        * **Landed results** (``completed``/``cache-hit`` records) are
          restored verbatim — the payload bytes in :attr:`results` are
          exactly the ones the previous incarnation journaled, and the
          work is never re-simulated.
        * **Quarantine and breaker state** replay deterministically —
          the breaker is a pure function of its record_* sequence, so
          the restored circuits match the dead gateway's exactly.
        * **Unfinished specs** (accepted, no landing) are then placed
          again in original arrival order, capacity-exempt and
          front-of-class: they already held a slot and waited their turn.

        Returns a summary document (``replayed``, ``restored``,
        ``requeued``, ``truncated_bytes``).  Raises
        :class:`~repro.errors.GatewayError` when the gateway has no
        journal, and :class:`~repro.errors.JournalError` on splice-level
        corruption or an undecodable record (a torn tail is repaired
        silently) — earlier records are applied by then, so discard the
        gateway.
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
        keys: dict[str, str] = {}  # job id -> its leader-elected cache key
        replayed, truncated_bytes = self.journal.replay(
            lambda record: self._replay(record, keys)
        )
        restored = len(self.results)
        pending = [j for j in self._order if j not in self.results]
        self.counters["recovered"] = len(self._order)
        self._journal_append(
            "recovered",
            replayed=replayed,
            restored=restored,
            pending=pending,
            truncated_bytes=truncated_bytes,
        )
        for job_id in pending:
            spec = self._specs[job_id]
            cls = self.admission.admit(spec, exempt=True)
            self._place(spec, cls, spec.cache_key(), front=True)
        return {
            "replayed": replayed,
            "restored": restored,
            "requeued": len(pending),
            "truncated_bytes": truncated_bytes,
        }

    def _replay(self, record: JournalRecord, keys: dict[str, str]) -> None:
        """The replay decoder: one journal record → its transition.
        Decoded specs and results share canonical names and enumerated
        strings; a ``completed`` landing's cache entry is its result's dict.
        The bytes are external: a well-framed record this gateway never
        wrote (missing field, undecodable spec or result, a ``source``
        that never landed) fails typed."""
        kind, data = record.kind, record.data
        try:
            if kind == "accepted":
                self._accepted(JobSpec.from_dict(data["spec"]))
            elif kind == "leader-elected":
                keys[data["job_id"]] = data["key"]
            elif kind == "cache-hit" and "source" in data:
                # By reference: the payload is the source's, re-stamped
                # for this job exactly as the live hit was.
                self._cache_hit(ResultCache.restamp(
                    vars(self.results[data["source"]]),
                    self._specs[data["job_id"]],
                ))
            elif kind == "cache-hit":
                result = JobResult.from_dict(compact(data["result"]))
                spec = self._specs.get(result.job_id)
                self._cache_hit(result, spec and spec.cache_key())
            elif kind == "completed":
                result = JobResult.from_dict(compact(data["result"]))
                self._completed(
                    result, int(data["shard"]), vars(result),
                    keys.pop(data["job_id"], None),
                )
            elif kind == "quarantined":
                self._quarantined(int(data["shard"]), len(data["requeued"]))
        except (KeyError, TypeError, ValueError, JobError) as exc:
            raise JournalError(
                f"{self.journal.path}: {kind} record seq {record.seq} "
                f"cannot be replayed: {exc!r}"
            ) from exc

    # -- Draining ------------------------------------------------------------

    def unresolved(self) -> int:
        """Jobs admitted but not yet resolved anywhere in the tier."""
        return len(self._admitted)

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
