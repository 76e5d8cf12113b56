"""The chaos runner: kill, restart, recover, and prove nothing changed.

:class:`ChaosRunner` drives one workload (by default the canned
``hm-tiny-sweep`` suite over :class:`~repro.gateway.SyntheticService`
shards) through injected process-level failures and asserts the
durability contract after every cycle:

* **Byte-identity** — the final payload of every job, killed run or
  not, equals the uninterrupted reference run's byte for byte
  (:meth:`~repro.serve.jobs.JobResult.payload_json` equality — the
  physics is a pure function of the spec, and recovery restores landed
  results verbatim).
* **Exactly-once landing** — across all incarnations, the journal
  carries at most one ``completed``/``cache-hit`` record per job, and
  no job is ever routed *after* its landing (landed work is never
  re-simulated).  Work that ran but never journaled a landing is
  at-least-once by design: its payload is a pure function of the spec,
  so the rerun is invisible in the bytes.
* **Monotonic sequence** — journal ``seq`` increases by exactly one
  across the whole file, incarnations included
  (:meth:`~repro.gateway.journal.WriteAheadJournal.scan` enforces it).

Any violation raises a typed :class:`~repro.errors.ChaosError` naming
the kill boundary that produced it — with the schedule's seed, that is
a complete reproduction recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ChaosError
from ..gateway import Gateway, ResultCache, SyntheticService
from ..gateway.journal import JournalScan, WriteAheadJournal
from ..resilience.faults import SimulatedCrash
from ..scenarios import load_suite
from ..serve.jobs import JobSpec
from ..serve.service import (
    read_spool_pending,
    spool_dirs,
    submit_to_spool,
)
from .schedule import ChaosKind, ChaosSchedule

__all__ = ["ChaosReport", "ChaosRunner"]

_LANDING_KINDS = ("completed", "cache-hit")
_DEFAULT_SUITE = "hm-tiny-sweep"


@dataclass
class ChaosReport:
    """The outcome of one chaos campaign."""

    cycles: int = 0
    kill_boundaries: list[int] = field(default_factory=list)
    shard_kills: int = 0
    disk_faults: int = 0
    spool_faults: int = 0
    #: Total journal records replayed across all recoveries.
    replayed: int = 0
    #: Landed results restored from journals instead of re-simulated.
    restored: int = 0

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "kill_boundaries": list(self.kill_boundaries),
            "shard_kills": self.shard_kills,
            "disk_faults": self.disk_faults,
            "spool_faults": self.spool_faults,
            "replayed": self.replayed,
            "restored": self.restored,
        }


class ChaosRunner:
    """Drive a workload through kill/recover cycles and audit each one."""

    def __init__(
        self,
        specs: list[JobSpec] | None = None,
        *,
        workdir: str | Path,
        n_shards: int = 2,
        workers_per_shard: int = 1,
        service_factory=SyntheticService,
        deadline_s: float = 60.0,
    ) -> None:
        if n_shards < 2:
            raise ChaosError(
                f"chaos needs n_shards >= 2 (a shard kill must leave a "
                f"survivor), got {n_shards}"
            )
        self.specs = (
            list(specs)
            if specs is not None
            else load_suite(_DEFAULT_SUITE).job_specs()
        )
        if not self.specs:
            raise ChaosError("chaos workload is empty")
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.n_shards = n_shards
        self.workers_per_shard = workers_per_shard
        self.service_factory = service_factory
        self.deadline_s = deadline_s
        self._reference: dict[str, str] | None = None
        self._reference_records: int = 0
        #: Monotonic cycle counter: every cycle gets a fresh journal
        #: (and spool) path — reusing one would append a second
        #: incarnation's records after the first's and fail the audit.
        self._cycle = 0

    # -- Gateway construction ------------------------------------------------

    def _gateway(
        self,
        journal_path: Path | None = None,
        *,
        result_cache: ResultCache | None = None,
    ) -> Gateway:
        return Gateway(
            self.n_shards,
            workers_per_shard=self.workers_per_shard,
            service_factory=self.service_factory,
            result_cache=result_cache,
            journal_path=journal_path,
        )

    def _run_to_completion(self, gateway: Gateway) -> dict[str, str]:
        """Submit the whole workload and drain it; payloads by job id."""
        for spec in self.specs:
            gateway.submit(spec)
        gateway.drain(deadline_s=self.deadline_s)
        return self._payloads(gateway)

    def _payloads(self, gateway: Gateway) -> dict[str, str]:
        return {
            result.job_id: result.payload_json()
            for result in gateway.ordered_results()
        }

    # -- Reference run -------------------------------------------------------

    def reference(self) -> dict[str, str]:
        """The uninterrupted run every chaos cycle must byte-match.

        Also fixes :attr:`n_boundaries`: the journal record count of a
        clean run, which is deterministic for a given workload (the
        *order* of completion records can vary with thread timing, but
        every run journals the same multiset of transitions).
        """
        if self._reference is not None:
            return self._reference
        journal = self.workdir / "reference.journal"
        gateway = self._gateway(journal)
        try:
            payloads = self._run_to_completion(gateway)
        finally:
            gateway.shutdown(graceful=False)
        scan = WriteAheadJournal.scan(journal)
        self._audit_journal(scan, label="reference")
        self._reference = payloads
        self._reference_records = len(scan.records)
        return payloads

    @property
    def n_boundaries(self) -> int:
        """Journal records in a clean run = kill boundaries to sweep."""
        self.reference()
        return self._reference_records

    # -- Gateway-kill cycle --------------------------------------------------

    def run_kill_cycle(self, boundary: int) -> dict:
        """Kill the gateway after journal record ``boundary``; recover;
        prove the recovered run is indistinguishable from the reference.

        The kill is modelled by raising
        :class:`~repro.resilience.faults.SimulatedCrash` from the
        journal's ``on_append`` hook: record ``boundary`` is durable,
        the in-memory mutation it describes never happens, and nothing
        downstream of the raise runs — exactly a ``kill -9`` between
        two appends.
        """
        reference = self.reference()
        self._cycle += 1
        journal = (
            self.workdir / f"c{self._cycle:04d}-kill-{boundary}.journal"
        )

        first = self._gateway(journal)

        def tripwire(record):
            if record.seq == boundary:
                raise SimulatedCrash(
                    f"chaos: gateway killed after journal seq {boundary}"
                )

        first.journal.on_append = tripwire
        crashed = False
        try:
            first.start()
            for spec in self.specs:
                first.submit(spec)
            first.drain(deadline_s=self.deadline_s)
        except SimulatedCrash:
            crashed = True
        finally:
            first.shutdown(graceful=False)
        if not crashed:
            raise ChaosError(
                f"kill boundary {boundary} was never reached "
                f"(clean run journals {self.n_boundaries} records)"
            )

        second = self._gateway(journal)
        try:
            summary = second.recover()
            for spec in self.specs:
                if not second.has_job(spec.job_id):
                    second.submit(spec)
            second.drain(deadline_s=self.deadline_s)
            payloads = self._payloads(second)
        finally:
            second.shutdown(graceful=False)

        scan = WriteAheadJournal.scan(journal)
        self._audit_journal(scan, label=f"kill@{boundary}")
        self._assert_byte_identical(
            payloads, reference, label=f"kill@{boundary}"
        )
        return {
            "boundary": boundary,
            "replayed": summary["replayed"],
            "restored": summary["restored"],
            "requeued": summary["requeued"],
            "records": len(scan.records),
        }

    def kill_sweep(
        self, boundaries: list[int] | None = None
    ) -> ChaosReport:
        """Kill at every boundary (or the given subset) and audit each."""
        self.reference()
        if boundaries is None:
            boundaries = list(range(1, self.n_boundaries + 1))
        report = ChaosReport()
        for boundary in boundaries:
            if not 1 <= boundary <= self.n_boundaries:
                raise ChaosError(
                    f"kill boundary {boundary} outside [1, "
                    f"{self.n_boundaries}]"
                )
            cycle = self.run_kill_cycle(boundary)
            report.cycles += 1
            report.kill_boundaries.append(boundary)
            report.replayed += cycle["replayed"]
            report.restored += cycle["restored"]
        return report

    # -- Shard-kill cycle ----------------------------------------------------

    def run_shard_kill_cycle(self, victim: int) -> dict:
        """A shard drops dead mid-sweep; the gateway quarantines it and
        the surviving shards finish the work — byte-identically."""
        reference = self.reference()
        if not 0 <= victim < self.n_shards:
            raise ChaosError(
                f"shard {victim} outside [0, {self.n_shards})"
            )
        self._cycle += 1
        journal = (
            self.workdir
            / f"c{self._cycle:04d}-shard-kill-{victim}.journal"
        )
        gateway = self._gateway(journal)
        try:
            for spec in self.specs:
                gateway.submit(spec)
            # The victim dies before the drain starts: any results it
            # finished but never forwarded are lost, its manifest is not.
            gateway.shards[victim].kill()
            if not gateway.quarantine_shard(victim):
                raise ChaosError(
                    f"quarantine of shard {victim} was refused"
                )
            gateway.drain(deadline_s=self.deadline_s)
            payloads = self._payloads(gateway)
        finally:
            gateway.shutdown(graceful=False)
        scan = WriteAheadJournal.scan(journal)
        self._audit_journal(scan, label=f"shard-kill@{victim}")
        self._assert_byte_identical(
            payloads, reference, label=f"shard-kill@{victim}"
        )
        quarantines = scan.by_kind("quarantined")
        if len(quarantines) != 1 or quarantines[0].data["shard"] != victim:
            raise ChaosError(
                f"shard-kill@{victim}: expected exactly one quarantined "
                f"record for shard {victim}, found "
                f"{[q.data for q in quarantines]}"
            )
        return {
            "victim": victim,
            "requeued": len(quarantines[0].data["requeued"]),
            "records": len(scan.records),
        }

    # -- Disk-fault cycles ---------------------------------------------------

    def run_disk_fault_cycle(
        self, *, truncate: bool, entry: int = 0
    ) -> dict:
        """Damage one durable result-cache entry between two runs.

        Run 1 populates the disk tier; the fault flips a byte (or
        truncates) one entry; run 2 must quarantine it (typed
        ``corrupt_entries`` accounting, no exception), recompute that
        one job, serve the rest from disk, and still end byte-identical
        to the reference.
        """
        reference = self.reference()
        self._cycle += 1
        label = "disk-truncate" if truncate else "disk-corrupt"
        cache_dir = self.workdir / f"c{self._cycle:04d}-{label}"

        warm = self._gateway(result_cache=ResultCache(cache_dir))
        try:
            self._run_to_completion(warm)
        finally:
            warm.shutdown(graceful=False)

        entries = sorted(cache_dir.glob("*.json"))
        if not entries:
            raise ChaosError(f"{label}: no disk entries to damage")
        victim = entries[entry % len(entries)]
        data = victim.read_bytes()
        half = len(data) // 2
        if truncate:
            victim.write_bytes(data[:half])
        else:
            # The seal covers the bytes, so any flipped byte is caught.
            victim.write_bytes(
                data[:half] + bytes([data[half] ^ 0x01]) + data[half + 1:]
            )

        cache = ResultCache(cache_dir)
        cold = self._gateway(result_cache=cache)
        try:
            payloads = self._run_to_completion(cold)
        finally:
            cold.shutdown(graceful=False)
        self._assert_byte_identical(payloads, reference, label=label)
        if cache.corrupt_entries != 1:
            raise ChaosError(
                f"{label}: expected exactly 1 quarantined entry, "
                f"counted {cache.corrupt_entries}"
            )
        quarantined = list(cache_dir.glob("*.corrupt"))
        if len(quarantined) != 1:
            raise ChaosError(
                f"{label}: expected one *.corrupt file, found "
                f"{[p.name for p in quarantined]}"
            )
        return {
            "kind": label,
            "victim": victim.name,
            "corrupt_entries": cache.corrupt_entries,
            "cache_hits": cold.counters["cache_hits"],
        }

    # -- Spool-fault cycle ---------------------------------------------------

    def run_spool_fault_cycle(self) -> dict:
        """A torn pending file must be quarantined, not drain-fatal."""
        self._cycle += 1
        root = self.workdir / f"c{self._cycle:04d}-spool"
        dirs = spool_dirs(root, create=True)
        torn = dirs["pending"] / "torn-victim.json"
        # A pre-atomic-write submitter died mid-write: half a spec.
        torn.write_text(self.specs[0].to_json()[: 20])
        for spec in self.specs:
            submit_to_spool(root, spec)
        pending = read_spool_pending(root)
        got = {spec.job_id for spec in pending}
        want = {spec.job_id for spec in self.specs}
        if got != want:
            raise ChaosError(
                f"spool-partial: drained {sorted(got)}, "
                f"expected {sorted(want)}"
            )
        if torn.exists() or not torn.with_suffix(".corrupt").exists():
            raise ChaosError(
                "spool-partial: torn file was not quarantined to "
                "*.corrupt"
            )
        return {"kind": "spool-partial", "pending": len(pending)}

    # -- Schedule dispatch ---------------------------------------------------

    def run_schedule(self, schedule: ChaosSchedule) -> ChaosReport:
        """Execute every event in a seeded schedule; audited cycles."""
        report = ChaosReport()
        for event in schedule.events:
            if event.kind is ChaosKind.GATEWAY_KILL:
                boundary = 1 + (event.boundary - 1) % self.n_boundaries
                cycle = self.run_kill_cycle(boundary)
                report.kill_boundaries.append(boundary)
                report.replayed += cycle["replayed"]
                report.restored += cycle["restored"]
            elif event.kind is ChaosKind.SHARD_KILL:
                victim = (
                    event.shard
                    if 0 <= event.shard < self.n_shards
                    else event.boundary % self.n_shards
                )
                self.run_shard_kill_cycle(victim)
                report.shard_kills += 1
            elif event.kind is ChaosKind.DISK_CORRUPT:
                self.run_disk_fault_cycle(
                    truncate=False, entry=event.entry
                )
                report.disk_faults += 1
            elif event.kind is ChaosKind.DISK_TRUNCATE:
                self.run_disk_fault_cycle(
                    truncate=True, entry=event.entry
                )
                report.disk_faults += 1
            elif event.kind is ChaosKind.SPOOL_PARTIAL:
                self.run_spool_fault_cycle()
                report.spool_faults += 1
            report.cycles += 1
        return report

    # -- Audits --------------------------------------------------------------

    def _audit_journal(self, scan: JournalScan, *, label: str) -> None:
        """Exactly-once landings and no routing after a landing.

        Monotonic ``seq`` is already enforced by the scan itself (a
        discontinuity raises :class:`~repro.errors.JournalError` before
        we get here).
        """
        landed: set[str] = set()
        for record in scan.records:
            job_id = record.data.get("job_id")
            if record.kind in _LANDING_KINDS:
                if job_id in landed:
                    raise ChaosError(
                        f"{label}: job {job_id!r} landed twice in the "
                        f"journal (second at seq {record.seq})"
                    )
                landed.add(job_id)
            elif record.kind == "routed" and job_id in landed:
                raise ChaosError(
                    f"{label}: job {job_id!r} routed at seq "
                    f"{record.seq} after its result already landed"
                )

    def _assert_byte_identical(
        self,
        payloads: dict[str, str],
        reference: dict[str, str],
        *,
        label: str,
    ) -> None:
        if set(payloads) != set(reference):
            missing = sorted(set(reference) - set(payloads))
            extra = sorted(set(payloads) - set(reference))
            raise ChaosError(
                f"{label}: result set diverged (missing {missing}, "
                f"extra {extra})"
            )
        diverged = sorted(
            job_id
            for job_id, payload in payloads.items()
            if payload != reference[job_id]
        )
        if diverged:
            raise ChaosError(
                f"{label}: payload bytes diverged from the reference "
                f"run for {diverged}"
            )
