"""Metric declarations for the end-to-end benchmark.

Every number the harness emits is declared here once, with its unit, the
direction that counts as better, and — for end-to-end metrics — the bound
by which it may worsen before :mod:`compare` calls it a regression.  The
per-layer entries also name the end-to-end metric each one should move
(choosing-metrics §3: written down *before* measuring).

``BENCHMARK.json`` carries the workloads, the per-layer metrics and the
end-to-end metrics named in :data:`DRIVER_END_TO_END`;
``tests/test_harness.py`` asserts that it equals these declarations, so the
driver's view and the harness's view cannot drift apart.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass

__all__ = [
    "ALL",
    "END_TO_END",
    "PER_LAYER",
    "DRIVER_END_TO_END",
    "MAX_BOUND",
    "MIN_INTERVAL_S",
    "NAME_RE",
    "SERVICE",
    "STAGES",
    "TRANSPORT",
    "WORKLOADS",
    "IntervalTooShort",
    "Recorder",
    "summarize",
]

#: Names and units must survive the driver's manifest checks.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: No end-to-end metric may rest on a timed interval shorter than this
#: (full mode).  PR 11's benchmark was rejected because identical code
#: disagreed with itself by 19 % on sub-millisecond intervals.
MIN_INTERVAL_S = 0.3

#: Workload name → the one-line reason it exists (BENCHMARK.json `why`).
WORKLOADS = {
    "event-large-bank": (
        "hm-small, 43 nuclides, event mode, 20000-particle bank: per-element "
        "stage-kernel cost dominates per-call dispatch, so fused/JIT/sorted "
        "banked applies must show here"
    ),
    "event-many-nuclides": (
        "hm-large, 329 nuclides, 361 MB union grid (computed) > 260 MiB L3: "
        "XS lookup is two thirds of wall and the working set leaves cache; "
        "largest set-up and RSS"
    ),
    "history-scalar": (
        "hm-small tiny, history mode: the same stage kernels through their "
        "scalar applies, one particle at a time; a banked-only gain must "
        "show no change here"
    ),
    "sweep-real": (
        "16-case scenario suite through Gateway(2 shards x 1 real worker) "
        "with library cache, result cache and journal: the whole path on "
        "many small 200-particle jobs; closed loop, one burst then drain"
    ),
    "gateway-synth": (
        "4096 synthetic jobs (3072 distinct keys) burst through the gateway: "
        "cold drain, all-hit resubmit, journal recover; orchestration only, "
        "a kernel change must not move it"
    ),
}
ALL = tuple(WORKLOADS)
#: The workloads that transport particles, and the ones that serve jobs.
TRANSPORT = ALL[:4]
SERVICE = ALL[3:]

#: Issue 12: no bound compare.py applies may exceed a tenth.
MAX_BOUND = 0.10

#: Stage kernels traced on the transport path (survival biasing is off in
#: every workload, so SURVIVAL never runs).
STAGES = ("xs_lookup", "flight", "crossing", "collision", "fission", "scatter")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the reference median by which the metric may worsen before
    #: compare.py calls it a regression; at most MAX_BOUND.  Where the runs
    #: of a set spread by more than this, compare.py says `unresolved`
    #: instead of judging (README, "Steadiness").
    bound: float
    definition: str
    #: The workloads whose layer it measures; no other workload emits it.
    workloads: tuple = ALL


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: Repo module the number belongs to.
    layer: str
    #: Which end-to-end metric it should move, on which workload.
    moves: str


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.10,
        "fresh process, first line of the worker (before `import repro`) "
        "until the first timed operation can be issued: imports, input "
        "generation, build_library, UnionizedGrid, TransportContext.create, "
        "gateway construct+start and a fixed warm-up; the fastest of "
        "several fresh processes",
    ),
    EndToEnd(
        "particles_per_s", "1/s", "higher", 0.10,
        "particles x batches / wall of the timed Simulation.run() (core); "
        "particles of the sweep / median round drain wall (sweep-real)",
        TRANSPORT,
    ),
    EndToEnd(
        "jobs_per_s", "1/s", "higher", 0.10,
        "jobs / wall from first submit to drained, median over rounds (the "
        "cold phase on gateway-synth)",
        SERVICE,
    ),
    EndToEnd(
        "warm_jobs_per_s", "1/s", "higher", 0.10,
        "all-cache-hit resubmission of the cold jobs under new ids / wall, "
        "median over rounds",
        ("gateway-synth",),
    ),
    EndToEnd(
        "recover_s", "s", "lower", 0.10,
        "wall of Gateway.recover() on a pristine copy of the round's "
        "journal (cold + warm jobs), median over rounds",
        ("gateway-synth",),
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.05,
        "max ru_maxrss over the workload process and its children",
    ),
    EndToEnd(
        "failed_frac", "fraction", "lower", 0.0,
        "operations (batches or jobs) failed, refused or wrong / attempted",
    ),
)

#: What BENCHMARK.json's driver gates, with the bound it is given.  The
#: driver takes every end-to-end metric from every workload and rejects a
#: benchmark whose runs spread by more than the bound, so it gets the two
#: metrics that all five workloads emit: peak_rss_mb, which holds its bound
#: run to run, and setup_s, which the driver requires and whose spread it
#: exempts.  The driver has no `unresolved` verdict: it compares the medians
#: of two sets of ten runs, and for setup_s two sets of identical code
#: differed by up to 16 % on the reference sandbox, so setup_s carries the
#: driver's widest bound there and only there.  The throughput metrics
#: reach the driver ungated, as the per-layer `traced.*` numbers, and
#: failed_frac as the `failed` / `attempted` keys.
DRIVER_END_TO_END = {"setup_s": 0.25, "peak_rss_mb": 0.05}

_PPS = "particles_per_s"


def _stage_rows():
    moves = {
        "xs_lookup": "schedule glue around physics.xs_*; <10 % everywhere",
        "flight": f"{_PPS}: history-scalar (42 %), event-large-bank (18 %)",
        "crossing": f"{_PPS}: <10 % everywhere",
        "collision": f"{_PPS}: <10 % everywhere",
        "fission": f"{_PPS}: <10 % everywhere",
        "scatter": f"{_PPS}: both event workloads (16 %)",
    }
    rows = []
    for k in STAGES:
        rows += [
            PerLayer(f"stages.{k}.self_s", "s", "lower",
                     "transport.stages", moves[k]),
            PerLayer(f"stages.{k}.calls", "count", "lower",
                     "transport.stages", "dispatch count behind self_s"),
            PerLayer(f"stages.{k}.items", "count", "lower",
                     "transport.stages", "particles processed by the stage"),
        ]
    return rows


PER_LAYER = (
    # -- process ------------------------------------------------------------
    PerLayer("import_s", "s", "lower", "process",
             "setup_s on history-scalar, sweep-real, gateway-synth"),
    PerLayer("warmup_s", "s", "lower", "process", "setup_s"),
    PerLayer("proc.cpu_s", "s", "lower", "process",
             "user+sys CPU of the process and its children over the run"),
    PerLayer("proc.cpu_per_wall", "ratio", "higher", "process",
             "cores kept busy; ~2 on sweep-real, ~1 on core workloads"),
    PerLayer("trace.overhead_frac", "fraction", "lower", "process",
             "computed: wrapped calls x calibrated wrapper cost / traced wall"),
    PerLayer("ambient.calibration_s", "s", "lower", "process",
             "gather-shaped calibration kernel; machine speed, not the repo"),
    PerLayer("ambient.drift_frac", "fraction", "lower", "process",
             ">0.15 marks the run disturbed"),
    # -- data ---------------------------------------------------------------
    PerLayer("data.build_library_s", "s", "lower", "data",
             "setup_s and peak_rss_mb on event-many-nuclides"),
    PerLayer("data.union_grid_s", "s", "lower", "data",
             "setup_s on event-many-nuclides"),
    PerLayer("data.library_mb", "MB", "lower", "data",
             "computed from .nbytes; peak_rss_mb"),
    PerLayer("data.union_grid_mb", "MB", "lower", "data",
             "computed from .nbytes; peak_rss_mb on event-many-nuclides"),
    # -- transport.context / geometry ------------------------------------------
    PerLayer("context.create_s", "s", "lower", "transport.context",
             "setup_s on core workloads (~30 ms: predicted invisible)"),
    # -- physics (macroxs) ----------------------------------------------------
    PerLayer("physics.xs_banked_s", "s", "lower", "physics",
             f"{_PPS}: halving it is worth <=+50 % on event-many-nuclides, "
             "<=+26 % on event-large-bank, 0 on history-scalar"),
    PerLayer("physics.xs_banked_calls", "count", "lower", "physics",
             "one per material group per cycle"),
    PerLayer("physics.xs_scalar_s", "s", "lower", "physics",
             f"{_PPS} on history-scalar only (19 %)"),
    PerLayer("physics.xs_scalar_calls", "count", "lower", "physics",
             "one per flight segment"),
    PerLayer("physics.xs_lookups", "count", "lower", "physics",
             "WorkCounters.lookups; repeats exactly for a fixed seed"),
    PerLayer("physics.nuclide_iterations", "count", "lower", "physics",
             "WorkCounters.nuclide_iterations; the vectorisation target"),
    PerLayer("physics.bytes_read_mb", "MB", "lower", "physics",
             "computed (WorkCounters.bytes_read), not measured traffic"),
    PerLayer("physics.xs_lookups_per_s", "1/s", "higher", "physics",
             "paper Fig. 2's unit: lookups / time inside XSCalculator"),
    # -- transport.stages -----------------------------------------------------
    *_stage_rows(),
    PerLayer("stages.mean_bank", "count", "higher", "transport.stages",
             "items per lookup dispatch; why sweep-real runs 6-8x fewer "
             "particles/s than event-large-bank"),
    # -- transport.backends ---------------------------------------------------
    PerLayer("backend.generation_s", "s", "lower", "transport.backends",
             f"{_PPS}: all but simulation.overhead_s of the run"),
    PerLayer("backend.generation_median_s", "s", "lower",
             "transport.backends", "per-batch median"),
    PerLayer("backend.generation_p90_s", "s", "lower",
             "transport.backends", "per-batch nearest-rank p90"),
    PerLayer("backend.schedule_self_s", "s", "lower", "transport.backends",
             f"{_PPS} on history-scalar (19 %) and sweep-real; <=5 % on the "
             "large event workloads"),
    # -- transport.simulation / rng -------------------------------------------
    PerLayer("simulation.overhead_s", "s", "lower", "transport.simulation",
             "<=0.6 % everywhere: predicted no end-to-end move"),
    PerLayer("rng.draws", "count", "lower", "rng",
             "WorkCounters.rn_draws; repeats exactly"),
    # -- scenarios ------------------------------------------------------------
    PerLayer("scenarios.expand_s", "s", "lower", "scenarios",
             "setup_s on sweep-real (ms today)"),
    PerLayer("scenarios.cases", "count", "higher", "scenarios",
             "cases the suite expanded to"),
    # -- serve ----------------------------------------------------------------
    PerLayer("serve.service_s", "s", "lower", "serve",
             "program-reported worker seconds; jobs_per_s on sweep-real"),
    PerLayer("serve.dispatch_overhead_s", "s", "lower", "serve",
             "program-reported; jobs_per_s on sweep-real"),
    PerLayer("serve.library_builds", "count", "lower", "serve",
             "program-reported; exactly 2 per sweep-real round"),
    PerLayer("serve.library_disk_hits", "count", "higher", "serve",
             "program-reported"),
    PerLayer("serve.library_memory_hits", "count", "higher", "serve",
             "program-reported"),
    PerLayer("serve.worker_crashes", "count", "lower", "serve",
             "program-reported; 0 on every workload"),
    PerLayer("serve.jobs_requeued", "count", "lower", "serve",
             "program-reported; 0 on every workload"),
    PerLayer("serve.spec_roundtrip_us", "us", "lower", "serve",
             "to_json->from_json->cache_key per spec; jobs_per_s on "
             "gateway-synth"),
    PerLayer("ladder.inprocess_s", "s", "lower", "serve",
             "the sweep's specs run sequentially in-process"),
    PerLayer("ladder.serve_s", "s", "lower", "serve",
             "same specs through a bare SimulationService, 2 workers"),
    PerLayer("ladder.gateway_s", "s", "lower", "serve",
             "same specs through the gateway; differences are what serve "
             "and gateway each add: jobs_per_s on sweep-real"),
    # -- gateway --------------------------------------------------------------
    PerLayer("gateway.submit_s", "s", "lower", "gateway",
             "jobs_per_s on gateway-synth"),
    PerLayer("gateway.submit_calls", "count", "lower", "gateway",
             "jobs submitted in the traced round"),
    PerLayer("gateway.admission_s", "s", "lower", "gateway",
             "jobs_per_s on gateway-synth"),
    PerLayer("gateway.routing_s", "s", "lower", "gateway",
             "jobs_per_s on gateway-synth"),
    PerLayer("gateway.cache_get_s", "s", "lower", "gateway",
             "warm_jobs_per_s"),
    PerLayer("gateway.cache_put_s", "s", "lower", "gateway",
             "jobs_per_s on gateway-synth"),
    PerLayer("gateway.cache_hits", "count", "higher", "gateway",
             "Gateway.counters; warm hits + resolved followers"),
    PerLayer("gateway.coalesced", "count", "higher", "gateway",
             "Gateway.counters; followers parked behind a leader"),
    PerLayer("gateway.journal_append_s", "s", "lower", "gateway",
             "jobs_per_s and warm_jobs_per_s on gateway-synth"),
    PerLayer("gateway.journal_records", "count", "lower", "gateway",
             "records appended in the traced round"),
    PerLayer("gateway.journal_mb", "MB", "lower", "gateway",
             "journal file size; recover_s"),
    PerLayer("gateway.poll_s", "s", "lower", "gateway",
             "jobs_per_s on gateway-synth"),
    PerLayer("gateway.shard_submit_s", "s", "lower", "gateway",
             "jobs_per_s on gateway-synth"),
    PerLayer("gateway.synthetic_step_s", "s", "lower", "gateway",
             "pump-thread busy time in SyntheticService.step; competes with "
             "the main thread for the interpreter lock"),
    PerLayer("gateway.recover_scan_s", "s", "lower", "gateway",
             "recover_s: WriteAheadJournal.replay inside recover()"),
    PerLayer("gateway.recover_restore_s", "s", "lower", "gateway",
             "recover_s: the rest of recover()"),
    PerLayer("gateway.sojourn_p50_s", "s", "lower", "gateway",
             "submit -> done event, cold phase"),
    PerLayer("gateway.sojourn_p95_s", "s", "lower", "gateway",
             "submit -> done event, cold phase"),
    PerLayer("gateway.cold_jobs_per_s_n1024", "1/s", "higher", "gateway",
             "size pair for jobs_per_s: throughput fell between 2048 and "
             "4096 jobs in prototypes"),
    PerLayer("gateway.recover_us_per_record_n2048", "us", "lower", "gateway",
             "size pair for recover_s: superlinear replay is a lead"),
    PerLayer("gateway.recover_us_per_record_n8192", "us", "lower", "gateway",
             "size pair for recover_s"),
    # -- the traced run's own throughput (what the driver sees of it) ---------
    PerLayer("traced.particles_per_s", "1/s", "higher", "process",
             "particles_per_s as the traced run measured it, wrappers on"),
    PerLayer("traced.jobs_per_s", "1/s", "higher", "process",
             "jobs_per_s of the traced round"),
    PerLayer("traced.warm_jobs_per_s", "1/s", "higher", "process",
             "warm_jobs_per_s of the traced round"),
    PerLayer("traced.recover_s", "s", "lower", "process",
             "recover_s of the traced round"),
)

E2E_BY_NAME = {m.name: m for m in END_TO_END}
LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


class IntervalTooShort(ValueError):
    """An end-to-end metric was about to be emitted from a timed interval
    under :data:`MIN_INTERVAL_S`."""


def quartiles(values):
    """``(q1, median, q3)`` the way the driver computes them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values) -> dict:
    q1, med, q3 = quartiles(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "values": list(values)}


class Recorder:
    """Collects one workload's metrics, enforcing the declarations."""

    def __init__(self, workload: str, *, quick: bool = False) -> None:
        self.workload = workload
        self.quick = quick
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}
        #: n / median / quartiles behind every round-based metric.
        self.rounds: dict[str, dict] = {}
        #: Shortest timed interval behind each timed end-to-end metric.
        self.intervals: dict[str, float] = {}

    def e2e(self, name: str, value: float, *, interval_s: float | None = None,
            samples=None) -> None:
        """Record an end-to-end metric.

        ``interval_s`` is the (shortest) wall interval the value rests on;
        under :data:`MIN_INTERVAL_S` the harness refuses to emit it in
        full mode.  ``samples`` are the per-round values behind a median.
        """
        decl = E2E_BY_NAME.get(name)
        if decl is None:
            raise KeyError(f"undeclared end-to-end metric {name!r}")
        if self.workload not in decl.workloads:
            raise KeyError(
                f"{name!r} is not declared for workload {self.workload!r}"
            )
        if interval_s is not None:
            if interval_s < MIN_INTERVAL_S and not self.quick:
                raise IntervalTooShort(
                    f"{self.workload}/{name}: timed over {interval_s:.4f} s, "
                    f"under the {MIN_INTERVAL_S} s floor"
                )
            self.intervals[name] = interval_s
        if samples is not None:
            self.rounds[name] = summarize(samples)
        self.end_to_end[name] = float(value)

    def layer(self, name: str, value: float) -> None:
        if name not in LAYER_BY_NAME:
            raise KeyError(f"undeclared per-layer metric {name!r}")
        self.per_layer[name] = float(value)
