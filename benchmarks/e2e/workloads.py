"""The five workloads: inputs from a seed, a timed region, an output oracle.

Each workload is a class with the same three steps, run by ``worker.py`` in
a fresh process:

``setup()``
    everything a user pays before the first timed operation can be issued
    (input generation, library build, context, gateway start, warm-up);
    phase times land in ``self.phases``.
``measure(rec, tracer)``
    the timed region(s).  ``tracer`` is ``None`` in the end-to-end run; in
    the traced run the same inputs go through temporary wrappers and the
    per-layer numbers are recorded too.
``attempted`` / ``failed`` / ``checks``
    the oracle's verdict: operations attempted, operations failed, and the
    named checks behind them.  A violated check marks the operations it
    covers as failed; it never aborts the run.

The workload seed only ever reaches the program as generated inputs
(``Settings.seed``, the suite's ``seed`` axis, job seeds).  Sizes are
constants — batches and rounds per workload, measured on the 2-core
reference sandbox to fill about 10 s — so the work is a pure function of the
seed and the oracle can pin exact counters.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

from repro.data.library import LibraryConfig, build_library
from repro.data.unionized import UnionizedGrid
from repro.transport.backends import get_backend
from repro.transport.context import TransportContext
from repro.transport.simulation import Settings, Simulation
from repro.transport.tally import GlobalTallies

from metrics import STAGES, Recorder
from tracing import Tracer, trace_calculator, trace_gateway, trace_transport

__all__ = ["WORKLOAD_CLASSES", "make_workload", "OUT_DIR"]

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE_PATH = HERE / "reference.json"

#: Counters the seed-1 reference pins exactly.
PINNED_COUNTERS = ("lookups", "collisions", "fissions", "rn_draws")
K_REL_TOL = 1e-12
K_RANGE = (0.3, 1.5)


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def scratch_dir() -> Path:
    """A fresh directory under ``out/`` (the benchmark writes nowhere
    outside its checkout)."""
    root = OUT_DIR / "tmp"
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=root))


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


class Workload:
    """Shared bookkeeping: phases, the oracle tally, the trace document."""

    name = ""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.phases: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        #: What the oracle saw, for ``--write-reference``.
        self.observed: dict = {}
        #: Extra sections of the trace file (per-job rows, coverage).
        self.trace_extra: dict = {}

    def check(self, name: str, ok: bool, *, affected: int, detail: str = "") -> None:
        """Record one oracle check; a violation fails ``affected`` ops."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed = min(self.attempted, self.failed + affected)

    def teardown(self) -> None:
        """Release whatever ``setup`` left running."""


# -- Core workloads: Simulation.run() on a built context -----------------------


class CoreWorkload(Workload):
    """One eigenvalue run through ``Simulation.run(on_batch=...)``."""

    model = "hm-small"
    fidelity = "default"
    mode = "event"
    particles = 1000
    quick_particles = 100
    #: (inactive, active) batches of the timed run.
    batches = (2, 3)
    warm_particles = 64

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.n_particles = self.quick_particles if quick else self.particles
        self.n_inactive, n_active = (1, 2) if quick else self.batches
        self.n_batches = self.n_inactive + n_active
        self.attempted = self.n_batches

    def setup(self) -> None:
        config = (
            LibraryConfig.tiny()
            if self.quick or self.fidelity == "tiny"
            else LibraryConfig()
        )
        t0 = perf_counter()
        self.library = build_library(self.model, config)
        t1 = perf_counter()
        self.union = UnionizedGrid(self.library)
        t2 = perf_counter()
        self.ctx = TransportContext.create(
            self.library, union=self.union, master_seed=self.seed
        )
        t3 = perf_counter()
        # Fixed warm-up on the run's own context: one small generation
        # fills the calculator's material-plan caches (and a JIT, should
        # one land) so the timed run starts warm.  Straight through the
        # backend, because a 4-particle generation may bank no fission
        # site and Simulation.run() rightly refuses to continue from that.
        warm = Simulation(
            self.library,
            Settings(n_particles=self.warm_particles, seed=self.seed,
                     mode=self.mode),
            context=self.ctx,
        )
        get_backend(self.mode).run_generation(
            self.ctx, *warm.initial_source(self.warm_particles), GlobalTallies()
        )
        self.ctx.counters.reset()
        t4 = perf_counter()
        self.sim = Simulation(
            self.library,
            Settings(
                n_particles=self.n_particles,
                n_inactive=self.n_inactive,
                n_active=self.n_batches - self.n_inactive,
                seed=self.seed,
                mode=self.mode,
            ),
            context=self.ctx,
        )
        self.phases.update({
            "data.build_library_s": t1 - t0,
            "data.union_grid_s": t2 - t1,
            "context.create_s": t3 - t2,
            "warmup_s": t4 - t3,
        })

    def measure(self, rec: Recorder, tracer: Tracer | None) -> None:
        generations: list[float] = []

        def on_batch(batch, seconds, n_particles):
            generations.append(seconds)
            if tracer is not None:
                tracer.cut(batch)

        if tracer is not None:
            trace_transport(tracer)
            trace_calculator(tracer, self.ctx.calculator)
        cpu0 = cpu_seconds()
        result = self.sim.run(on_batch=on_batch)
        cpu = cpu_seconds() - cpu0
        wall = result.wall_time

        histories = self.n_particles * self.n_batches
        if tracer is None:
            rec.e2e("particles_per_s", histories / wall, interval_s=wall,
                    samples=[self.n_particles / s for s in generations])
        self._oracle(result)
        if tracer is not None:
            rec.layer("traced.particles_per_s", histories / wall)
            self._layers(rec, tracer, result, generations, wall, cpu)

    # -- Oracle ---------------------------------------------------------------

    def _oracle(self, result) -> None:
        stats = result.statistics
        counters = result.counters.as_dict()
        k = result.k_effective.mean
        bad = 0
        for ks in zip(stats.k_collision, stats.k_absorption, stats.k_track):
            if not all(
                math.isfinite(v) and K_RANGE[0] < v < K_RANGE[1] for v in ks
            ):
                bad += 1
        self.check(
            "k finite and in (0.3, 1.5) every batch", bad == 0, affected=bad,
            detail=f"{bad} of {self.n_batches} batches out of range",
        )
        self.check(
            "every batch transported", stats.n_batches == self.n_batches,
            affected=self.n_batches - stats.n_batches,
        )
        pinned_counts = {c: counters[c] for c in PINNED_COUNTERS}
        size = "quick" if self.quick else "full"
        self.observed = {
            "size": size, "k_effective": k, "counters": pinned_counts,
        }
        if self.seed == 1:
            # A missing entry fails like a wrong one: the oracle must not
            # go quiet because a size changed and nobody re-pinned.
            pinned = load_reference().get(self.name, {}).get(size)
            same = (
                pinned is not None
                and pinned["counters"] == pinned_counts
                and math.isclose(k, pinned["k_effective"],
                                 rel_tol=K_REL_TOL, abs_tol=0.0)
            )
            self.check(
                "seed-1 reference: exact counters, k_effective rel 1e-12",
                same, affected=self.n_batches,
                detail=f"observed k={k!r} {pinned_counts}, pinned {pinned}",
            )

    # -- Per-layer numbers ----------------------------------------------------

    def _layers(self, rec, tracer, result, generations, wall, cpu) -> None:
        for name in ("data.build_library_s", "data.union_grid_s",
                     "context.create_s", "warmup_s"):
            rec.layer(name, self.phases[name])
        rec.layer("data.library_mb", self.library.nbytes / 1e6)
        rec.layer("data.union_grid_mb", self.union.nbytes / 1e6)
        rec.layer("proc.cpu_s", cpu)
        rec.layer("proc.cpu_per_wall", cpu / wall)
        transport_layers(
            rec, tracer.totals(), result.counters, generations, wall
        )
        rec.layer("trace.overhead_frac", tracer.overhead_frac(wall))
        self.trace_extra["batches"] = [
            {"batch": b, "generation_s": s} for b, s in enumerate(generations)
        ]


#: The row of a layer no span was recorded for.
_NO_SPANS = {"total_s": 0.0, "self_s": 0.0, "calls": 0, "items": 0}


def transport_layers(rec, totals, counters, generations, run_wall) -> None:
    """physics / stages / backend / simulation / rng metrics of one or more
    traced ``Simulation.run()`` calls.

    ``generations`` are the per-batch seconds ``on_batch`` reported and
    ``run_wall`` the summed ``wall_time``; the accounting identity is
    ``run_wall = sum(stage self) + physics.xs_* + schedule_self + overhead``.
    """
    banked = totals.get("physics.xs_banked", _NO_SPANS)
    scalar = totals.get("physics.xs_scalar", _NO_SPANS)
    rec.layer("physics.xs_banked_s", banked["total_s"])
    rec.layer("physics.xs_banked_calls", banked["calls"])
    rec.layer("physics.xs_scalar_s", scalar["total_s"])
    rec.layer("physics.xs_scalar_calls", scalar["calls"])
    rec.layer("physics.xs_lookups", counters.lookups)
    rec.layer("physics.nuclide_iterations", counters.nuclide_iterations)
    rec.layer("physics.bytes_read_mb", counters.bytes_read / 1e6)
    xs_s = banked["total_s"] + scalar["total_s"]
    if xs_s > 0:
        rec.layer("physics.xs_lookups_per_s", counters.lookups / xs_s)
    stage_total = 0.0
    for k in STAGES:
        row = totals.get(f"stages.{k}", _NO_SPANS)
        rec.layer(f"stages.{k}.self_s", row["self_s"])
        rec.layer(f"stages.{k}.calls", row["calls"])
        rec.layer(f"stages.{k}.items", row["items"])
        # Stage spans are top-level inside a generation, so their totals
        # (self + the physics spans under them) tile it.
        stage_total += row["total_s"]
    lookup = totals.get("stages.xs_lookup", _NO_SPANS)
    if lookup["calls"]:
        rec.layer("stages.mean_bank", lookup["items"] / lookup["calls"])
    generation_s = sum(generations)
    rec.layer("backend.generation_s", generation_s)
    rec.layer("backend.generation_median_s", statistics.median(generations))
    rec.layer("backend.generation_p90_s", nearest_rank(generations, 0.9))
    rec.layer("backend.schedule_self_s", generation_s - stage_total)
    rec.layer("simulation.overhead_s", run_wall - generation_s)
    rec.layer("rng.draws", counters.rn_draws)


class EventLargeBank(CoreWorkload):
    name = "event-large-bank"
    particles = 20000
    quick_particles = 400


class EventManyNuclides(CoreWorkload):
    name = "event-many-nuclides"
    model = "hm-large"
    particles = 4000
    quick_particles = 300
    batches = (1, 3)


class HistoryScalar(CoreWorkload):
    name = "history-scalar"
    fidelity = "tiny"
    mode = "history"
    particles = 100
    quick_particles = 30
    batches = (1, 3)
    warm_particles = 4


# -- Service workloads -----------------------------------------------------------


def drain(gateway, on_done=None) -> None:
    """``Gateway.drain`` — or, when the traced run wants per-job done
    times, the same loop with the events looked at."""
    if on_done is None:
        gateway.drain(deadline_s=150)
        return
    while gateway.unresolved():
        for event in gateway.poll(timeout=0.05):
            if event["kind"] == "done":
                on_done(event["job_id"])


def station_layers(rec, rows, stations) -> None:
    """Record the span totals of traced gateway stations (``{tracer layer:
    metric}``) out of one cut."""
    for layer, metric in stations.items():
        rec.layer(metric, rows.get(layer, _NO_SPANS)["total_s"])


#: Tracer layer → metric, for the stations on the submit/drain path.
_DRAIN_STATIONS = {
    "gateway.submit": "gateway.submit_s",
    "gateway.admission": "gateway.admission_s",
    "gateway.routing": "gateway.routing_s",
    "gateway.cache_put": "gateway.cache_put_s",
    "gateway.journal_append": "gateway.journal_append_s",
    "gateway.poll": "gateway.poll_s",
    "gateway.shard_submit": "gateway.shard_submit_s",
}


class SweepReal(Workload):
    """A generated case suite through the gateway with real workers."""

    name = "sweep-real"

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.rounds = 1 if quick else 3

    def suite_document(self) -> dict:
        seeds = [self.seed * 1000 + i for i in range(2 if self.quick else 4)]
        return {
            "suite": {"id": "e2e-sweep"},
            "scenario": "hm-full-core",
            "axes": {
                "fidelity": ["tiny" if self.quick else "default"],
                "backend": ["event"],
                "particles": [40 if self.quick else 200],
                "inactive": [1],
                "active": [1],
                "temperature": [293.6, 600.0],
                "boron_ppm": [300.0] if self.quick else [300.0, 900.0],
                "seed": seeds,
            },
        }

    def make_gateway(self, root: Path):
        from repro.gateway import Gateway

        return Gateway(
            2, workers_per_shard=1,
            cache_dir=str(root / "libs"),
            journal_path=root / "journal.log",
        )

    def setup(self) -> None:
        from repro.scenarios import load_suite

        t0 = perf_counter()
        self.cases = load_suite(self.suite_document()).expand()
        self.specs = [case.job for case in self.cases]
        self.phases["scenarios.expand_s"] = perf_counter() - t0
        self.histories = sum(
            s.settings["n_particles"]
            * (s.settings["n_inactive"] + s.settings["n_active"])
            for s in self.specs
        )
        self.n_libraries = len({s.library_fingerprint() for s in self.specs})
        self.attempted = len(self.specs) * self.rounds
        # No warm-up: every round starts cold workers on purpose, so their
        # start-up and the library builds sit inside the timed drain.
        self.phases["warmup_s"] = 0.0
        self.root = scratch_dir()
        self.gateway = self.make_gateway(self.root)
        self.gateway.start()

    def teardown(self) -> None:
        if self.gateway is not None:
            self.gateway.shutdown(graceful=False)
        shutil.rmtree(self.root, ignore_errors=True)

    def one_round(self, gateway, tracer=None):
        """Burst the suite in, wait for the drain; returns (wall, results,
        aggregate metrics)."""
        if tracer is not None:
            trace_gateway(tracer, gateway)
        gateway.start()
        t0 = perf_counter()
        results = gateway.run(self.specs, deadline_s=150)
        wall = perf_counter() - t0
        # Everything has drained, so stop the workers outright: a graceful
        # pool stop sporadically sits out its 10 s join timeout.
        gateway.shutdown(graceful=False)
        return wall, results, gateway.metrics_summary()["aggregate"]

    def measure(self, rec: Recorder, tracer: Tracer | None) -> None:
        rounds = 1 if tracer is not None else self.rounds
        n_jobs = len(self.specs)
        self.attempted = n_jobs * rounds
        walls, first_payloads = [], None
        cpu0, t_all = cpu_seconds(), perf_counter()
        for rnd in range(rounds):
            root = self.root if rnd == 0 else scratch_dir()
            gateway = self.gateway if rnd == 0 else self.make_gateway(root)
            self.gateway = None
            try:
                wall, results, aggregate = self.one_round(gateway, tracer)
                journal_mb = (root / "journal.log").stat().st_size / 1e6
            finally:
                if tracer is not None:
                    tracer.restore()
                shutil.rmtree(root, ignore_errors=True)
            walls.append(wall)
            done = [res for res in results if res.status == "done"]
            self.check(f"round {rnd}: all {n_jobs} jobs done",
                       len(done) == n_jobs, affected=n_jobs - len(done))
            self.check(
                f"round {rnd}: exactly {self.n_libraries} library builds",
                aggregate["library_builds"] == self.n_libraries,
                affected=n_jobs,
                detail=f"library_builds={aggregate['library_builds']}",
            )
            k_bad = sum(
                not (math.isfinite(res.k_effective)
                     and K_RANGE[0] < res.k_effective < K_RANGE[1])
                for res in done
            )
            self.check(f"round {rnd}: k finite and in (0.3, 1.5)",
                       k_bad == 0, affected=k_bad)
            payloads = {res.job_id: res.payload_json() for res in results}
            if first_payloads is None:
                first_payloads = payloads
            else:
                differ = sum(
                    payloads.get(j) != p for j, p in first_payloads.items()
                )
                self.check(
                    f"round {rnd}: payload_json byte-identical to round 0",
                    differ == 0, affected=differ,
                )
        cpu, wall_all = cpu_seconds() - cpu0, perf_counter() - t_all

        if tracer is None:
            shortest = min(walls)
            median = statistics.median(walls)
            rec.e2e("jobs_per_s", n_jobs / median, interval_s=shortest,
                    samples=[n_jobs / w for w in walls])
            rec.e2e("particles_per_s", self.histories / median,
                    interval_s=shortest,
                    samples=[self.histories / w for w in walls])
            return
        rec.layer("traced.jobs_per_s", n_jobs / walls[0])
        rec.layer("traced.particles_per_s", self.histories / walls[0])

        # -- Per-layer: the traced round plus the ladder ---------------------
        rec.layer("scenarios.expand_s", self.phases["scenarios.expand_s"])
        rec.layer("scenarios.cases", n_jobs)
        rec.layer("warmup_s", 0.0)
        drain_rows = tracer.cut("drain")
        rec.layer("proc.cpu_s", cpu)
        rec.layer("proc.cpu_per_wall", cpu / wall_all)
        station_layers(rec, drain_rows, {
            **_DRAIN_STATIONS, "gateway.cache_get": "gateway.cache_get_s",
        })
        rec.layer("gateway.submit_calls",
                  drain_rows["gateway.submit"]["calls"])
        rec.layer("gateway.cache_hits", gateway.counters["cache_hits"])
        rec.layer("gateway.coalesced", gateway.counters["coalesced"])
        rec.layer("gateway.journal_records", gateway.journal.appended)
        rec.layer("gateway.journal_mb", journal_mb)
        rec.layer("serve.service_s", aggregate["service_seconds"])
        rec.layer("serve.dispatch_overhead_s",
                  aggregate["dispatch_overhead_seconds"])
        for counter in ("library_builds", "library_disk_hits",
                        "library_memory_hits", "worker_crashes",
                        "jobs_requeued"):
            rec.layer(f"serve.{counter}", aggregate[counter])
        rec.layer("ladder.gateway_s", walls[0])
        self.trace_extra["jobs"] = [
            {"job_id": res.job_id, "worker_id": res.worker_id,
             "wait_s": res.wait_seconds, "service_s": res.service_seconds,
             "build_s": res.build_seconds, "library": res.library_source}
            for res in results
        ]
        self._ladder(rec, tracer)

    def _ladder(self, rec: Recorder, tracer: Tracer) -> None:
        """The same specs with fewer tiers around them: sequential
        in-process runs (traced, so sweep-real gets stage numbers at its
        own bank size), then a bare ``SimulationService``."""
        from repro.serve import SimulationService

        libraries: dict[str, object] = {}
        generations: list[float] = []
        run_wall = 0.0
        counters = None
        trace_transport(tracer)
        t0 = perf_counter()
        try:
            for case in self.cases:
                fingerprint = case.job.library_fingerprint()
                if fingerprint not in libraries:
                    libraries[fingerprint] = case.compiled.build_library()
                sim = case.compiled.build_simulation(libraries[fingerprint])
                trace_calculator(tracer, sim.ctx.calculator)
                result = sim.run(
                    on_batch=lambda b, s, n: generations.append(s)
                )
                run_wall += result.wall_time
                counters = (
                    result.counters if counters is None
                    else counters + result.counters
                )
        finally:
            tracer.restore()
        rec.layer("ladder.inprocess_s", perf_counter() - t0)
        tracer.cut("ladder.inprocess")
        transport_layers(rec, tracer.totals(), counters, generations, run_wall)
        rec.layer("trace.overhead_frac", tracer.overhead_frac(
            run_wall + rec.per_layer["ladder.gateway_s"]
        ))

        root = scratch_dir()
        service = SimulationService(2, cache_dir=str(root / "libs"))
        try:
            t0 = perf_counter()
            results = service.run(self.specs)
            rec.layer("ladder.serve_s", perf_counter() - t0)
        finally:
            service.shutdown(graceful=False)
            shutil.rmtree(root, ignore_errors=True)
        bad = sum(res.status != "done" for res in results)
        self.check("ladder: bare service finished every job", bad == 0,
                   affected=bad)


class GatewaySynth(Workload):
    """Orchestration only: cold drain, warm resubmit, journal recover."""

    name = "gateway-synth"
    settings = {
        "n_particles": 24, "n_inactive": 0, "n_active": 2,
        "mode": "event", "pincell": True,
    }

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.n_jobs = 256 if quick else 4096
        self.rounds = 2 if quick else 3
        self.attempted = 2 * self.n_jobs * self.rounds

    def specs(self, prefix: str, n: int | None = None):
        """``n`` jobs over ``3n/4`` distinct physics identities, so a
        quarter of a cold burst coalesces or hits."""
        from repro.serve import JobSpec

        n = self.n_jobs if n is None else n
        distinct = n * 3 // 4
        return [
            JobSpec(
                job_id=f"{prefix}{i:05d}",
                settings={**self.settings,
                          "seed": self.seed * 100_000 + i % distinct},
            )
            for i in range(n)
        ]

    def make_gateway(self, journal: Path, n: int | None = None):
        from repro.gateway import Gateway, SyntheticService

        return Gateway(
            2, workers_per_shard=1,
            capacity=2 * (self.n_jobs if n is None else n),
            max_class_share=1.0,
            service_factory=SyntheticService,
            journal_path=journal,
        )

    def setup(self) -> None:
        self.root = scratch_dir()
        self.cold = self.specs("c0-")
        self.warm = self.specs("w0-")
        t0 = perf_counter()
        # Fixed warm-up: 64 jobs through a throwaway gateway.
        with self.make_gateway(self.root / "warmup.log", 64) as gw:
            for spec in self.specs("u", 64):
                gw.submit(spec)
            gw.drain(deadline_s=60)
        self.phases["warmup_s"] = perf_counter() - t0
        self.gateway = self.make_gateway(self.root / "journal.log")
        self.gateway.start()

    def teardown(self) -> None:
        if self.gateway is not None:
            self.gateway.shutdown(graceful=False)
        shutil.rmtree(self.root, ignore_errors=True)

    def one_round(self, r, gateway, cold, warm, tracer=None, sojourn=None):
        """Returns ``(cold_s, warm_s, recover_s, summary, journal_mb)`` and
        runs the round's oracle checks."""
        n = len(cold)
        journal = Path(gateway.journal.path)
        if tracer is not None:
            trace_gateway(tracer, gateway)
        gateway.start()
        submitted, done = {}, {}

        def stamp_done(job_id):
            done[job_id] = perf_counter()

        on_done = stamp_done if sojourn is not None else None
        t0 = perf_counter()
        for spec in cold:
            if sojourn is not None:
                submitted[spec.job_id] = perf_counter()
            gateway.submit(spec)
        drain(gateway, on_done)
        cold_s = perf_counter() - t0
        if tracer is not None:
            self.cuts["cold"] = tracer.cut(f"round{r}.cold")
            self.cuts["cold_wall"] = cold_s
        t0 = perf_counter()
        for spec in warm:
            gateway.submit(spec)
        drain(gateway)
        warm_s = perf_counter() - t0
        gateway.shutdown()
        if tracer is not None:
            tracer.restore()
            self.cuts["warm"] = tracer.cut(f"round{r}.warm")
        if sojourn is not None:
            sojourn.extend(done[j] - submitted[j] for j in done if j in submitted)

        copy = journal.with_name(f"recover-{r}-{n}.log")
        shutil.copyfile(journal, copy)
        journal_mb = copy.stat().st_size / 1e6
        second = self.make_gateway(copy, n)
        if tracer is not None:
            trace_gateway(tracer, second)
        try:
            t0 = perf_counter()
            summary = second.recover()
            recover_s = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
                self.cuts["recover"] = tracer.cut(f"round{r}.recover")
            second.shutdown()

        results = gateway.results
        not_done = sum(
            results.get(s.job_id) is None or results[s.job_id].status != "done"
            for s in (*cold, *warm)
        )
        self.check(f"round {r}: all {2 * n} jobs done", not_done == 0,
                   affected=not_done)
        warm_hits = sum(
            results[s.job_id].library_source == "result-cache"
            for s in warm if s.job_id in results
        )
        self.check(f"round {r}: {n}/{n} warm jobs were cache hits",
                   warm_hits == n, affected=n - warm_hits)
        self.check(
            f"round {r}: recover restored {2 * n}, requeued 0",
            summary["restored"] == 2 * n and summary["requeued"] == 0,
            affected=2 * n, detail=json.dumps(summary),
        )
        differ = sum(
            job_id not in second.results
            or second.results[job_id].payload_json() != result.payload_json()
            for job_id, result in results.items()
        )
        self.check(f"round {r}: restored payload bytes equal the originals",
                   differ == 0, affected=differ)
        return cold_s, warm_s, recover_s, summary, journal_mb

    def measure(self, rec: Recorder, tracer: Tracer | None) -> None:
        rounds = 1 if tracer is not None else self.rounds
        self.attempted = 2 * self.n_jobs * rounds
        self.cuts: dict = {}
        sojourn = [] if tracer is not None else None
        cold_s, warm_s, recover_s = [], [], []
        cpu0, t_all = cpu_seconds(), perf_counter()
        for r in range(rounds):
            if r == 0:
                root, gateway, cold, warm = (
                    self.root, self.gateway, self.cold, self.warm
                )
                self.gateway = None
            else:
                root = scratch_dir()
                gateway = self.make_gateway(root / "journal.log")
                cold, warm = self.specs(f"c{r}-"), self.specs(f"w{r}-")
            try:
                c, w, rcv, summary, journal_mb = self.one_round(
                    r, gateway, cold, warm, tracer, sojourn
                )
            finally:
                shutil.rmtree(root, ignore_errors=True)
            cold_s.append(c)
            warm_s.append(w)
            recover_s.append(rcv)
        cpu, wall_all = cpu_seconds() - cpu0, perf_counter() - t_all

        n = self.n_jobs
        if tracer is None:
            rec.e2e("jobs_per_s", n / statistics.median(cold_s),
                    interval_s=min(cold_s), samples=[n / s for s in cold_s])
            rec.e2e("warm_jobs_per_s", n / statistics.median(warm_s),
                    interval_s=min(warm_s), samples=[n / s for s in warm_s])
            rec.e2e("recover_s", statistics.median(recover_s),
                    interval_s=min(recover_s), samples=recover_s)
            return

        # -- Per-layer: the traced round, phase by phase ---------------------
        rec.layer("warmup_s", self.phases["warmup_s"])
        rec.layer("proc.cpu_s", cpu)
        rec.layer("proc.cpu_per_wall", cpu / wall_all)
        cold_rows, warm_rows, rec_rows = (
            self.cuts["cold"], self.cuts["warm"], self.cuts["recover"]
        )
        station_layers(rec, cold_rows, {
            **_DRAIN_STATIONS,
            "gateway.service_step": "gateway.synthetic_step_s",
        })
        station_layers(rec, warm_rows,
                       {"gateway.cache_get": "gateway.cache_get_s"})
        rec.layer("gateway.submit_calls", cold_rows["gateway.submit"]["calls"])
        rec.layer("gateway.cache_hits", gateway.counters["cache_hits"])
        rec.layer("gateway.coalesced", gateway.counters["coalesced"])
        rec.layer("gateway.journal_records", gateway.journal.appended)
        rec.layer("gateway.journal_mb", journal_mb)
        scan_s = rec_rows["gateway.recover_scan"]["total_s"]
        rec.layer("gateway.recover_scan_s", scan_s)
        rec.layer("gateway.recover_restore_s", recover_s[0] - scan_s)
        rec.layer("gateway.sojourn_p50_s", nearest_rank(sojourn, 0.5))
        rec.layer("gateway.sojourn_p95_s", nearest_rank(sojourn, 0.95))
        rec.layer("traced.jobs_per_s", n / cold_s[0])
        rec.layer("traced.warm_jobs_per_s", n / warm_s[0])
        rec.layer("traced.recover_s", recover_s[0])
        rec.layer("gateway.recover_us_per_record_n8192",
                  recover_s[0] / summary["replayed"] * 1e6)
        main_thread = (
            cold_rows["gateway.submit"]["total_s"]
            + cold_rows["gateway.poll"]["total_s"]
        )
        self.trace_extra["cold_phase"] = {
            "wall_s": self.cuts["cold_wall"],
            "gateway_span_s": main_thread,
            "coverage": main_thread / self.cuts["cold_wall"],
        }
        rec.layer("trace.overhead_frac", tracer.overhead_frac(
            cold_s[0] + warm_s[0] + recover_s[0]
        ))

        # Spec round trip: what every journal record and cache key pays.
        from repro.serve import JobSpec

        t0 = perf_counter()
        for spec in self.cold:
            JobSpec.from_json(spec.to_json()).cache_key()
        rec.layer("serve.spec_roundtrip_us", (perf_counter() - t0) / n * 1e6)

        # Size pair: a quarter-size round (untraced), for the superlinear
        # lead — cold throughput and replay cost per record at two sizes.
        small_n = n // 4
        root = scratch_dir()
        try:
            c, _, rcv, small, _ = self.one_round(
                "s", self.make_gateway(root / "journal.log", small_n),
                self.specs("cs-", small_n), self.specs("ws-", small_n),
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        rec.layer("gateway.cold_jobs_per_s_n1024", small_n / c)
        rec.layer("gateway.recover_us_per_record_n2048",
                  rcv / small["replayed"] * 1e6)


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (EventLargeBank, EventManyNuclides, HistoryScalar,
                SweepReal, GatewaySynth)
}


def make_workload(name: str, seed: int, quick: bool) -> Workload:
    return WORKLOAD_CLASSES[name](seed, quick)


def load_reference() -> dict:
    """The pinned seed-1 oracle values (empty before the first recording)."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())
