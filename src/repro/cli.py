"""``repro-sim``: run eigenvalue simulations from the command line.

Subcommands::

    repro-sim run --pincell --particles 500 --mode event
    repro-sim checkpoint --pincell --dir ckpts --every 2   # checkpointed run
    repro-sim resume --pincell --dir ckpts                 # continue latest
    repro-sim scenario validate --all          # check every canned document
    repro-sim scenario run hm-full-core        # canned name or a JSON path
    repro-sim suite submit hm-tiny-sweep --spool jobs/
    repro-sim suite expand hm-tiny-sweep --json \
        | repro-sim gateway serve --jobs - --shards 2
    repro-sim gateway serve --spool jobs/ --shards 2
    repro-sim gateway serve --spool jobs/ --journal jobs/gateway.journal
    repro-sim gateway status --spool jobs/
    repro-sim chaos run --sweep                # kill at every boundary
    repro-sim chaos run --seed 42 --json       # seeded fault schedule

``resume`` must be given the same physics flags as the original run —
checkpoints carry a settings fingerprint and refuse to resume under
different physics (the bit-identical-resume guarantee would silently
break otherwise).

``scenario`` and ``suite`` drive the declarative layer
(:mod:`repro.scenarios`): ``scenario validate|compile|run`` check, lower,
and execute one document (canned scenarios are addressable by bare name);
``suite expand`` prints a sweep's job specs (``--json`` emits JSON lines
that pipe straight into ``gateway serve --jobs -``) and ``suite submit``
spools them for a later ``gateway serve --spool``.

``gateway`` is the one way to serve jobs (:mod:`repro.gateway`):
``gateway serve`` drains a spool's ``pending/`` (``--spool DIR``, results
filed back into ``done``/``failed``) or a JSON-lines / JSON-array jobs
file (``--jobs FILE``, ``-`` for stdin) through N node-local services
with fingerprint-affine routing, admission control (the tier's one
capacity), and a result cache (``--result-cache DIR`` persists it, so
resubmitting an identical sweep is answered without running a single
simulation); ``gateway status`` reports the tier's counters, cache
economics, and per-shard health from the state document a previous
drain wrote.  ``--journal PATH``
write-ahead journals every gateway transition: restarting the same
command after a kill replays the journal, restores landed results
byte-identically, and finishes only the unfinished work.

``chaos`` is the deterministic chaos harness (:mod:`repro.chaos`):
``chaos run`` drives the canned ``hm-tiny-sweep`` through seeded
kill/recover cycles — gateway kills at journal boundaries, shard
kills, disk corruption, torn spool writes — and audits every cycle for
byte-identical payloads and exactly-once journal landings.

Examples::

    repro-sim run --model hm-large --particles 200 --batches 3 --inactive 1 \
              --survival-biasing --tally-power
    repro-sim run --pincell --save-library lib.npz
    repro-sim run --pincell --library lib.npz     # reuse a saved library
    repro-sim run --pincell --library-cache xs-cache/   # fingerprint cache
    repro-sim run --pincell --json                # machine-readable result
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import LibraryConfig, build_library
from .data.io import load_library, save_library
from .errors import CheckpointError, DeadlineExceededError, JobError
from .resilience.checkpoint import DEFAULT_CADENCE, latest_checkpoint
from .transport import Settings, Simulation, available_backends

__all__ = ["main"]


def _backend_name(value: str) -> str:
    """Argparse type for ``--mode``/``--backend``: validate against the
    live backend registry so the error names what is actually available."""
    if value not in available_backends():
        raise argparse.ArgumentTypeError(
            f"unknown transport backend {value!r}; available backends: "
            f"{', '.join(available_backends())}"
        )
    return value


def _device_list(value: str) -> list[str]:
    """Argparse type for ``--devices``: comma-separated preset device
    names (or one fleet preset name), validated against the live device
    registry so the error names what is actually available."""
    from .cluster.topology import FLEET_PRESETS
    from .machine.presets import DEVICE_PRESETS, available_devices

    names = [v.strip() for v in value.split(",") if v.strip()]
    if len(names) == 1 and names[0] in FLEET_PRESETS:
        return list(FLEET_PRESETS[names[0]])
    unknown = [n for n in names if n not in DEVICE_PRESETS]
    if not names or unknown:
        bad = unknown[0] if unknown else value
        raise argparse.ArgumentTypeError(
            f"unknown device {bad!r}; available devices: "
            f"{', '.join(available_devices())}; fleet presets: "
            f"{', '.join(sorted(FLEET_PRESETS))}"
        )
    return names


def _simulation_args() -> argparse.ArgumentParser:
    """Shared simulation flags (parent parser for every run-like command)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--model", default="hm-small",
                   choices=["hm-small", "hm-large"])
    p.add_argument("--pincell", action="store_true",
                   help="reflected pin cell instead of the full core")
    p.add_argument("--mode", "--backend", dest="mode", default="event",
                   type=_backend_name, metavar="BACKEND",
                   help="transport backend from the registry "
                   "(e.g. scalar history loop, vectorized event loop, "
                   "Woodcock delta tracking; --backend is an alias)")
    p.add_argument("--particles", type=int, default=500)
    p.add_argument("--batches", type=int, default=5,
                   help="active batches")
    p.add_argument("--inactive", type=int, default=2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fidelity", default="tiny", choices=["tiny", "default"],
                   help="synthetic library fidelity")
    p.add_argument("--survival-biasing", action="store_true")
    p.add_argument("--tally-power", action="store_true",
                   help="accumulate the 17x17 assembly power map")
    p.add_argument("--no-sab", action="store_true",
                   help="strip S(alpha,beta) (paper's vectorized config)")
    p.add_argument("--no-urr", action="store_true",
                   help="strip URR probability tables")
    p.add_argument("--supervise", action="store_true",
                   help="attach an in-flight supervisor: per-batch health "
                   "observations and a supervision report at the end")
    p.add_argument("--batch-deadline-s", type=float, default=None,
                   metavar="S", dest="batch_deadline_s",
                   help="abort (typed, exit 1) if any single batch takes "
                   "longer than S seconds (implies --supervise)")
    return p


def build_parser() -> argparse.ArgumentParser:
    shared = _simulation_args()
    p = argparse.ArgumentParser(
        prog="repro-sim",
        description="Monte Carlo eigenvalue simulation (history or "
        "event/banked transport) on the Hoogenboom-Martin models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[shared],
                         help="run a simulation start to finish")
    run.add_argument("--library", metavar="NPZ",
                     help="load a saved library instead of building one")
    run.add_argument("--save-library", metavar="NPZ",
                     help="save the built library and exit")
    run.add_argument("--library-cache", metavar="DIR",
                     help="fingerprint-keyed library cache directory: "
                     "repeat runs with the same model/fidelity skip "
                     "library construction")
    run.add_argument("--json", action="store_true", dest="json_output",
                     help="emit the result as JSON (the JobResult payload)")
    run.add_argument("--devices", type=_device_list, default=None,
                     metavar="DEV[,DEV...]",
                     help="project the run onto a heterogeneous device "
                     "fleet (preset device names or one fleet preset): "
                     "prints per-device modelled rates and the equal vs "
                     "rate-balanced node rates after the run")

    ck = sub.add_parser("checkpoint", parents=[shared],
                        help="run with periodic checkpoints")
    ck.add_argument("--dir", required=True, dest="checkpoint_dir",
                    help="directory receiving checkpoint files")
    ck.add_argument("--every", type=int, default=DEFAULT_CADENCE,
                    dest="checkpoint_every", metavar="N",
                    help=f"batches between checkpoints "
                    f"(default {DEFAULT_CADENCE})")
    rs = sub.add_parser("resume", parents=[shared],
                        help="resume an interrupted run from its latest "
                        "checkpoint (bit-identical to an uninterrupted run)")
    rs.add_argument("--dir", required=True, dest="checkpoint_dir",
                    help="directory holding the run's checkpoints")
    rs.add_argument("--every", type=int, default=DEFAULT_CADENCE,
                    dest="checkpoint_every", metavar="N",
                    help="keep checkpointing every N batches while resumed")

    sc = sub.add_parser("scenario",
                        help="validate / compile / run a declarative "
                        "scenario document")
    scsub = sc.add_subparsers(dest="scenario_command", required=True)
    scv = scsub.add_parser("validate",
                           help="schema-check a document (all findings "
                           "at once)")
    scv.add_argument("source", nargs="?", metavar="NAME_OR_PATH",
                     help="canned scenario name or JSON/YAML path")
    scv.add_argument("--all", action="store_true", dest="validate_all",
                     help="validate every canned scenario and suite")
    scc = scsub.add_parser("compile",
                           help="lower a document to its runnable "
                           "configuration")
    scc.add_argument("source", metavar="NAME_OR_PATH")
    scc.add_argument("--json", action="store_true", dest="json_output",
                     help="emit the compiled job spec as JSON")
    scr = scsub.add_parser("run", help="compile and run a scenario")
    scr.add_argument("source", metavar="NAME_OR_PATH")
    scr.add_argument("--fidelity", default=None,
                     choices=["tiny", "default"],
                     help="override the document's library fidelity")
    scr.add_argument("--particles", type=int, default=None)
    scr.add_argument("--batches", type=int, default=None,
                     help="override active batches")
    scr.add_argument("--inactive", type=int, default=None)
    scr.add_argument("--seed", type=int, default=None)
    scr.add_argument("--backend", default=None, type=_backend_name,
                     metavar="BACKEND",
                     help="override the document's transport backend")
    scr.add_argument("--json", action="store_true", dest="json_output",
                     help="emit the result as JSON (the JobResult payload)")

    su = sub.add_parser("suite",
                        help="expand / submit a case-suite sweep")
    susub = su.add_subparsers(dest="suite_command", required=True)
    sue = susub.add_parser("expand",
                           help="expand a sweep to its cases "
                           "(fingerprint-affine order)")
    sue.add_argument("source", metavar="NAME_OR_PATH",
                     help="canned suite name or JSON/YAML path")
    sue.add_argument("--json", action="store_true", dest="json_output",
                     help="emit job specs as JSON lines "
                     "(pipe into 'gateway serve --jobs -')")
    sus = susub.add_parser("submit",
                           help="spool every case of a sweep")
    sus.add_argument("source", metavar="NAME_OR_PATH")
    sus.add_argument("--spool", required=True, metavar="DIR")

    gw = sub.add_parser("gateway",
                        help="drain jobs through the sharded service tier "
                        "(admission control, fingerprint-affine routing, "
                        "result cache)")
    gwsub = gw.add_subparsers(dest="gateway_command", required=True)

    gws = gwsub.add_parser("serve",
                           help="drain a spool (or a jobs file) through "
                           "the gateway; file results back")
    gwsrc = gws.add_mutually_exclusive_group(required=True)
    gwsrc.add_argument("--spool", metavar="DIR",
                       help="process the spool's pending jobs; results "
                       "and gateway.json land back in it")
    gwsrc.add_argument("--jobs", metavar="FILE",
                       help="JSON-lines (or JSON array) of job specs; "
                       "'-' reads stdin")
    gws.add_argument("--shards", type=int, default=2,
                     help="node-local service shards")
    gws.add_argument("--workers-per-shard", type=int, default=1,
                     dest="workers_per_shard")
    gws.add_argument("--cache", metavar="DIR", default=None,
                     help="library cache root (one subtree per shard)")
    gws.add_argument("--result-cache", metavar="DIR", default=None,
                     dest="result_cache",
                     help="persist the result cache on disk: identical "
                     "resubmissions are answered without simulating")
    gws.add_argument("--capacity", type=int, default=256,
                     help="gateway-wide in-flight admission bound")
    gws.add_argument("--max-class-share", type=float, default=0.5,
                     dest="max_class_share", metavar="FRAC",
                     help="fairness cap: one priority class may hold at "
                     "most FRAC of capacity")
    gws.add_argument("--journal", metavar="PATH", default=None,
                     help="write-ahead journal every state transition to "
                     "PATH; if PATH already holds records, recover from "
                     "them first (landed results restore without "
                     "re-simulating)")
    gws.add_argument("--deadline-s", type=float, default=None,
                     metavar="S", dest="deadline_s",
                     help="abort (typed, exit 1) if the drain overruns S "
                     "seconds")
    gws.add_argument("--stream", action="store_true",
                     help="print per-batch progress events to stderr as "
                     "they arrive")
    gws.add_argument("--json", action="store_true", dest="json_output",
                     help="emit results + gateway metrics as one JSON "
                     "document")

    gwt = gwsub.add_parser("status",
                           help="report gateway state from a spool's "
                           "gateway.json")
    gwt.add_argument("--spool", required=True, metavar="DIR")
    gwt.add_argument("--json", action="store_true", dest="json_output")

    ch = sub.add_parser("chaos",
                        help="deterministic chaos harness: kill/recover "
                        "the service stack and prove byte-identity")
    chsub = ch.add_subparsers(dest="chaos_command", required=True)
    chr_ = chsub.add_parser("run",
                            help="drive the canned hm-tiny-sweep through "
                            "seeded kill/recover cycles and audit each")
    chr_.add_argument("--seed", type=int, default=0,
                      help="chaos schedule seed (pure function of it)")
    chr_.add_argument("--shards", type=int, default=2)
    chr_.add_argument("--boundaries", type=int, default=8,
                      help="journal boundaries the seeded schedule draws "
                      "faults over")
    chr_.add_argument("--sweep", action="store_true",
                      help="ignore the seed: kill the gateway at EVERY "
                      "journal boundary of a clean run")
    chr_.add_argument("--workdir", metavar="DIR", default=None,
                      help="keep journals/caches here (default: a "
                      "temporary directory)")
    chr_.add_argument("--json", action="store_true", dest="json_output")

    fl = sub.add_parser("fleet",
                        help="heterogeneous device fleets: list presets, "
                        "model a fleet's load balance")
    flsub = fl.add_subparsers(dest="fleet_command", required=True)
    flsub.add_parser("devices",
                     help="list the preset device registry")
    flr = flsub.add_parser("report",
                           help="modelled fleet report: per-device rates, "
                           "equal vs rate-balanced split")
    flr.add_argument("--devices", type=_device_list, required=True,
                     metavar="DEV[,DEV...]",
                     help="preset device names (or one fleet preset name)")
    flr.add_argument("--model", default="hm-large",
                     choices=["hm-small", "hm-large"])
    flr.add_argument("--particles", type=int, default=100_000)
    flr.add_argument("--json", action="store_true", dest="json_output")
    return p


def _build_settings(args: argparse.Namespace) -> Settings:
    return Settings(**_job_settings(args),
                    checkpoint_every=getattr(args, "checkpoint_every", 0),
                    checkpoint_dir=getattr(args, "checkpoint_dir", None))


def _job_settings(args: argparse.Namespace) -> dict:
    """The physics settings of a run as JobSpec-compatible kwargs."""
    return {
        "n_particles": args.particles,
        "n_inactive": args.inactive,
        "n_active": args.batches,
        "seed": args.seed,
        "mode": args.mode,
        "pincell": args.pincell,
        "use_sab": not args.no_sab,
        "use_urr": not args.no_urr,
        "survival_biasing": args.survival_biasing,
        "tally_power": args.tally_power,
    }


def _library_config(args: argparse.Namespace) -> LibraryConfig:
    return (
        LibraryConfig.tiny() if args.fidelity == "tiny" else LibraryConfig()
    )


# -- run / checkpoint / resume ------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    json_output = getattr(args, "json_output", False)
    quiet = json_output

    build_seconds = 0.0
    if getattr(args, "library", None):
        library = load_library(args.library)
        library_source = "loaded"
        if not quiet:
            print(f"loaded library: {library.model}, "
                  f"{len(library)} nuclides")
    elif getattr(args, "library_cache", None):
        from .serve.cache import LibraryCache

        cache = LibraryCache(args.library_cache)
        library, outcome = cache.get_or_build(
            args.model, _library_config(args)
        )
        library_source = outcome.source
        build_seconds = outcome.build_seconds
        if not quiet:
            verb = ("built and cached" if outcome.source == "built"
                    else "cache hit")
            print(f"{verb}: {library.model}, {len(library)} nuclides "
                  f"({cache.path_for(outcome.fingerprint).name})")
    else:
        config = _library_config(args)
        library = build_library(args.model, config)
        library_source = "built"
        if not quiet:
            print(
                f"built library: {library.model}, {len(library)} nuclides, "
                f"{library.nbytes / 1e6:.1f} MB"
            )
    if getattr(args, "save_library", None):
        save_library(library, args.save_library)
        if not quiet:
            print(f"saved to {args.save_library}")
        return 0

    settings = _build_settings(args)
    sim = Simulation(library, settings)

    supervisor = None
    if args.supervise or args.batch_deadline_s is not None:
        from .supervise import SupervisionPolicy, Supervisor

        supervisor = Supervisor(
            n_ranks=1,
            policy=SupervisionPolicy(
                batch_deadline_s=args.batch_deadline_s
            ),
        )

    try:
        on_batch = (
            supervisor.batch_callback() if supervisor is not None else None
        )
        if args.command == "resume":
            ckpt = latest_checkpoint(args.checkpoint_dir)
            if ckpt is None:
                print(f"no checkpoint found in {args.checkpoint_dir}",
                      file=sys.stderr)
                return 1
            if not quiet:
                print(f"resuming from {ckpt}")
            result = sim.run(resume_from=ckpt, on_batch=on_batch)
        else:
            result = sim.run(on_batch=on_batch)
    except CheckpointError as exc:
        # Most commonly: resuming under different physics flags — the
        # settings fingerprint refuses rather than silently diverging.
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 1
    except DeadlineExceededError as exc:
        # A batch overran --batch-deadline-s: a typed abort, not a hang.
        print(f"deadline exceeded: {exc}", file=sys.stderr)
        return 1

    if json_output:
        from .serve.jobs import JobResult, JobSpec

        spec = JobSpec(
            job_id=f"run-seed{args.seed}",
            model=args.model,
            fidelity=args.fidelity,
            settings=_job_settings(args),
        )
        payload = JobResult.from_simulation(
            spec, result,
            build_seconds=build_seconds, library_source=library_source,
        )
        print(payload.to_json(indent=2))
        return 0

    print(f"\nmode: {result.mode}  "
          f"({'pin cell' if args.pincell else 'full core'}, "
          f"{result.n_batches} batches x {result.n_particles} particles)")
    print(f"k-effective (combined)  = {result.k_effective}")
    print(f"k (collision)           = {result.statistics.result_collision()}")
    print(f"k (absorption)          = {result.statistics.result_absorption()}")
    print(f"k (track-length)        = {result.statistics.result_track()}")
    print(f"calculation rate        = {result.calculation_rate:,.0f} n/s")
    print("entropy trace           = "
          + " ".join(f"{e:.3f}" for e in result.entropy_trace))
    c = result.counters
    print(f"work: {c.lookups:,} lookups, {c.collisions:,} collisions, "
          f"{c.fissions:,} fissions, {c.urr_samples:,} URR samples, "
          f"{c.sab_samples:,} S(a,b) samples")
    if supervisor is not None:
        report = supervisor.report()
        health = report["health"][0]
        rate = health["rate"]
        print(f"supervision: {report['batches']} batches observed, "
              f"status {health['status']}"
              + (f", smoothed rate {rate:,.0f} n/s" if rate else "")
              + f", {report['retries']} retries, "
              f"{len(report['evicted'])} evictions")
    if result.power is not None:
        norm = result.power.normalized_power()
        print(f"assembly power peaking factor = {norm.max():.2f} "
              f"({result.power.n_batches} active batches)")
    if args.command in ("checkpoint", "resume") and result.profile is not None:
        ck_stats = result.profile.routines.get("checkpoint_write")
        if ck_stats is not None:
            print(f"checkpoints: {ck_stats.calls} written, "
                  f"{ck_stats.total_seconds * 1e3:.1f} ms total "
                  f"({100 * result.profile.fraction('checkpoint_write'):.2f}% "
                  f"of profiled time)")
    if getattr(args, "devices", None):
        _print_fleet_projection(
            _fleet_projection(args.devices, args.model, args.particles)
        )
    return 0


# -- gateway ------------------------------------------------------------------


def _read_job_specs(source: str) -> list:
    """The specs of a JSON-lines or JSON-array jobs file (``-`` reads
    stdin); raises :class:`JobError` on a malformed spec or a repeated
    job id."""
    from .serve.jobs import JobSpec

    text = sys.stdin.read() if source == "-" else Path(source).read_text()
    text = text.strip()
    if text.startswith("["):
        specs = [JobSpec.from_dict(item) for item in json.loads(text)]
    else:
        specs = [JobSpec.from_json(line)
                 for line in text.splitlines() if line.strip()]
    seen = set()
    for spec in specs:
        if spec.job_id in seen:
            raise JobError(f"duplicate job id {spec.job_id!r}")
        seen.add(spec.job_id)
    return specs


def _cmd_gateway_status(args: argparse.Namespace) -> int:
    path = Path(args.spool) / "gateway.json"
    if not path.exists():
        print(f"no gateway state at {path}", file=sys.stderr)
        return 1
    doc = json.loads(path.read_text())
    if args.json_output:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    g = doc["gateway"]
    agg = doc["aggregate"]
    c = g["counters"]
    quarantined = g["quarantined"]
    print(f"gateway: {g['n_shards']} shard(s) x "
          f"{g['workers_per_shard']} worker(s), quarantined "
          f"{quarantined if quarantined else 'none'}")
    print(f"jobs: {c['submitted']} submitted, {c['completed']} completed "
          f"({c['cache_hits']} from result cache), {c['failed']} failed, "
          f"{c['poisoned']} poisoned, {c['requeued']} requeued"
          + (f", {c['recovered']} recovered from journal"
             if c.get("recovered") else ""))
    breaker = g.get("breaker", {})
    open_keys = breaker.get("open", [])
    if open_keys or c.get("quarantines") or c.get("quarantines_skipped"):
        print(f"supervision: sick shards "
              f"{open_keys if open_keys else 'none'}, "
              f"{c.get('quarantines', 0)} quarantine(s) "
              f"({c.get('quarantines_skipped', 0)} refused at the "
              f"last-shard floor), {agg['jobs_requeued']} shard-level "
              f"requeue(s), {agg['worker_crashes']} worker crash(es)")
    for key, circuit in sorted(breaker.get("keys", {}).items()):
        if circuit["consecutive_failures"] or circuit["state"] == "open":
            print(f"  {key}: {circuit['state']}, "
                  f"{circuit['consecutive_failures']} consecutive "
                  f"poison verdict(s) (threshold "
                  f"{breaker.get('threshold')})")
    rc = g["result_cache"]
    print(f"result cache: {rc['entries']} entries, {rc['hits']} hits / "
          f"{rc['misses']} misses ({100 * rc['hit_rate']:.0f}%)"
          + (f", {rc['corrupt_entries']} corrupt entr"
             f"{'y' if rc['corrupt_entries'] == 1 else 'ies'} "
             f"quarantined" if rc.get("corrupt_entries") else ""))
    journal = g.get("journal")
    if journal:
        print(f"journal: {journal['path']} ({journal['appended']} "
              f"record(s) appended, next seq {journal['next_seq']}, "
              f"fsync {'on' if journal['fsync'] else 'off'})")
    print(f"libraries: {agg['library_builds']} built, "
          f"{agg['library_disk_hits']} disk hits, "
          f"{agg['library_memory_hits']} memory hits")
    print(f"dispatch overhead: "
          f"{100 * agg['dispatch_overhead_fraction']:.2f}% of service time")
    print(f"admission: retry-after hint "
          f"{g['admission']['retry_after_s']:.2f}s")
    for shard_id, health in sorted(g["health"].items(),
                                   key=lambda kv: int(kv[0])):
        rate = health["rate"]
        print(f"  shard {shard_id}: {health['status']}, "
              f"{health['batches']} batches observed"
              + (f", {rate:,.0f} n/s smoothed" if rate else ""))
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    if args.gateway_command == "status":
        return _cmd_gateway_status(args)

    import asyncio

    from .gateway import Gateway, ResultCache
    from .serve.service import (
        atomic_write_text,
        read_spool_pending,
        write_spool_result,
    )

    spool = args.spool
    if spool:
        specs = read_spool_pending(spool)
    else:
        try:
            specs = _read_job_specs(args.jobs)
        except (OSError, json.JSONDecodeError, JobError) as exc:
            print(f"cannot read jobs: {exc}", file=sys.stderr)
            return 1

    journal = args.journal
    gateway = Gateway(
        args.shards,
        workers_per_shard=args.workers_per_shard,
        capacity=args.capacity,
        max_class_share=args.max_class_share,
        cache_dir=args.cache,
        result_cache=(
            ResultCache(args.result_cache) if args.result_cache else None
        ),
        journal_path=journal,
        # The CLI is the operator durability surface: a journal asked
        # for here must survive a host power cut, not just a SIGKILL.
        journal_fsync=True,
    )

    recovery = None
    if journal is not None:
        path = Path(journal)
        if path.exists() and path.stat().st_size > 0:
            # A previous incarnation died here: replay its journal,
            # restore every landed result verbatim, and re-admit the
            # unfinished work before accepting anything new.
            recovery = gateway.recover()
            print(f"recovered from {journal}: "
                  f"{recovery['replayed']} record(s) replayed, "
                  f"{recovery['restored']} result(s) restored, "
                  f"{recovery['requeued']} job(s) requeued"
                  + (f", {recovery['truncated_bytes']} torn byte(s) "
                     f"trimmed" if recovery["truncated_bytes"] else ""),
                  file=sys.stderr)
            specs = [s for s in specs if not gateway.has_job(s.job_id)]
    if not specs and recovery is None:
        print("no jobs for the gateway", file=sys.stderr)
        return 1

    async def _drain() -> None:
        async for event in gateway.stream(specs,
                                          deadline_s=args.deadline_s):
            if args.stream and event["kind"] == "progress":
                print(f"progress shard={event['shard']} "
                      f"job={event['job_id']} batch={event['batch']} "
                      f"({event['n_particles']} particles in "
                      f"{event['seconds']:.3f}s)", file=sys.stderr)

    try:
        with gateway:
            asyncio.run(_drain())
            # Recovered jobs are not in this invocation's spec list;
            # the stream does not wait on them, so drain explicitly.
            gateway.drain(deadline_s=args.deadline_s)
    except DeadlineExceededError as exc:
        print(f"drain deadline exceeded: {exc}", file=sys.stderr)
        return 1
    results = gateway.ordered_results()
    summary = gateway.metrics_summary()

    if spool:
        for result in results:
            write_spool_result(spool, result)
        atomic_write_text(
            Path(spool) / "gateway.json",
            json.dumps(summary, indent=2, sort_keys=True, default=str),
        )

    failed = [r for r in results if r.status != "done"]
    if args.json_output:
        print(json.dumps(
            {
                "results": [r.to_dict() for r in results],
                "gateway": summary,
            },
            indent=2, sort_keys=True, default=str,
        ))
        return 1 if failed else 0
    for r in results:
        shard = gateway._job_shard.get(r.job_id, -1)
        source = r.library_source or "-"
        line = (f"{r.job_id}: {r.status}  shard="
                f"{'cache' if source == 'result-cache' else shard} "
                f"library={source}")
        if r.status == "done":
            line += f"  k-eff={r.k_effective:.5f} +/- {r.k_std_err:.5f}"
        else:
            line += f"  error={r.error}"
        print(line)
    c = gateway.counters
    rc = summary["gateway"]["result_cache"]
    print(f"\ngateway: {len(results)} jobs over {args.shards} shard(s), "
          f"{c['completed']} done ({c['cache_hits']} from result cache, "
          f"{100 * rc['hit_rate']:.0f}% hit rate), "
          f"{c['failed'] + c['poisoned']} failed/poisoned, "
          f"{c['quarantines']} shard quarantine(s), "
          f"{summary['aggregate']['library_builds']} library build(s)")
    return 1 if failed else 0


# -- chaos --------------------------------------------------------------------


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from .chaos import ChaosRunner, ChaosSchedule
    from .errors import ChaosError, JournalError

    def _campaign(workdir: str) -> dict:
        runner = ChaosRunner(workdir=workdir, n_shards=args.shards)
        runner.reference()
        if args.sweep:
            schedule = ChaosSchedule.kill_every_boundary(
                runner.n_boundaries
            )
        else:
            schedule = ChaosSchedule.generate(
                args.seed,
                args.boundaries,
                n_shards=args.shards,
                p_gateway_kill=0.4,
                p_shard_kill=0.2,
                p_disk_corrupt=0.15,
                p_disk_truncate=0.1,
                p_spool_partial=0.1,
            )
        report = runner.run_schedule(schedule)
        return {
            "seed": args.seed,
            "sweep": bool(args.sweep),
            "boundaries": runner.n_boundaries,
            "events": len(schedule),
            "report": report.to_dict(),
        }

    try:
        if args.workdir:
            doc = _campaign(args.workdir)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                doc = _campaign(tmp)
    except (ChaosError, JournalError) as exc:
        print(f"chaos invariant violated: {exc}", file=sys.stderr)
        return 1
    if args.json_output:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    r = doc["report"]
    mode = ("exhaustive kill sweep" if doc["sweep"]
            else f"seeded schedule (seed {doc['seed']})")
    print(f"chaos: {mode}, {r['cycles']} cycle(s) over "
          f"{doc['boundaries']} journal boundaries — all audits passed")
    print(f"  gateway kills: {len(r['kill_boundaries'])} "
          f"({r['replayed']} record(s) replayed, {r['restored']} "
          f"result(s) restored without re-simulation)")
    print(f"  shard kills: {r['shard_kills']}, disk faults: "
          f"{r['disk_faults']}, spool faults: {r['spool_faults']}")
    print("  every cycle ended byte-identical to the uninterrupted "
          "reference run")
    return 0


# -- scenario / suite ---------------------------------------------------------


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .errors import ScenarioError
    from .scenarios import (
        canned_scenario_names,
        canned_suite_names,
        compile_scenario,
        load_scenario,
        load_suite,
    )

    if args.scenario_command == "validate":
        if not args.validate_all and not args.source:
            print("scenario validate: give a NAME_OR_PATH or --all",
                  file=sys.stderr)
            return 2
        failures = 0
        sources = ([args.source] if args.source else
                   list(canned_scenario_names()))
        for source in sources:
            try:
                compiled = load_scenario(source)
            except ScenarioError as exc:
                print(f"FAIL {source}\n{exc}", file=sys.stderr)
                failures += 1
            else:
                print(f"ok   {compiled.name}  "
                      f"fingerprint={compiled.fingerprint[:16]}")
        if args.validate_all:
            for name in canned_suite_names():
                try:
                    suite = load_suite(name)
                except ScenarioError as exc:
                    print(f"FAIL suite {name}\n{exc}", file=sys.stderr)
                    failures += 1
                else:
                    print(f"ok   suite {suite.suite_id}  "
                          f"cases={suite.n_cases()}")
        return 1 if failures else 0

    try:
        compiled = load_scenario(args.source)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1

    if args.scenario_command == "run":
        overrides = {
            key: value for key, value in (
                ("fidelity", args.fidelity),
                ("particles", args.particles),
                ("active", args.batches),
                ("inactive", args.inactive),
                ("seed", args.seed),
                ("backend", args.backend),
            ) if value is not None
        }
        if overrides:
            try:
                compiled = compile_scenario(
                    compiled.spec.with_overrides(**overrides)
                )
            except ScenarioError as exc:
                print(f"scenario error: {exc}", file=sys.stderr)
                return 1

    if args.scenario_command == "compile":
        spec = compiled.job_spec(job_id=f"scenario-{compiled.name}")
        if args.json_output:
            print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
            return 0
        s = compiled.settings
        config = compiled.library_config()
        print(f"scenario {compiled.name}  "
              f"fingerprint={compiled.fingerprint}")
        print(f"library: model={compiled.spec.model} "
              f"fidelity={compiled.spec.fidelity} seed={config.seed} "
              f"temperature={config.temperature} K")
        print(f"geometry: "
              f"{'pin cell' if s.pincell else 'full core'}"
              + (f", {len(s.core_pattern)}x{len(s.core_pattern)} "
                 f"custom footprint" if s.core_pattern else "")
              + f", boron {s.boron_ppm} ppm")
        print(f"run: {s.n_inactive}+{s.n_active} batches x "
              f"{s.n_particles} particles, seed {s.seed}, "
              f"backend {s.mode}")
        print(f"physics: sab={s.use_sab} urr={s.use_urr} "
              f"union_grid={s.use_union_grid} "
              f"survival_biasing={s.survival_biasing} "
              f"tally_power={s.tally_power}")
        if s.fuel_overrides:
            print(f"fuel overrides: {len(s.fuel_overrides)} nuclides "
                  "(explicit isotopics)")
        return 0

    # scenario run
    quiet = args.json_output
    library = compiled.build_library()
    if not quiet:
        print(f"scenario {compiled.name}: built library "
              f"{library.model} ({len(library)} nuclides)")
    result = compiled.build_simulation(library).run()
    if args.json_output:
        from .serve.jobs import JobResult

        spec = compiled.job_spec(job_id=f"scenario-{compiled.name}")
        print(JobResult.from_simulation(spec, result).to_json(indent=2))
        return 0
    print(f"mode: {result.mode}  ({result.n_batches} batches x "
          f"{result.n_particles} particles)")
    print(f"k-effective (combined)  = {result.k_effective}")
    print(f"calculation rate        = {result.calculation_rate:,.0f} n/s")
    if result.power is not None:
        norm = result.power.normalized_power()
        print(f"assembly power peaking factor = {norm.max():.2f}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from .errors import ScenarioError
    from .scenarios import load_suite

    try:
        suite = load_suite(args.source)
        cases = suite.expand()
    except ScenarioError as exc:
        print(f"suite error: {exc}", file=sys.stderr)
        return 1

    if args.suite_command == "expand":
        if args.json_output:
            for case in cases:
                print(case.job.to_json())
            return 0
        print(f"suite {suite.suite_id}: {len(cases)} cases over axes "
              f"{', '.join(suite.axes) or '(none)'}")
        last_fp = None
        for case in cases:
            fp = case.job.library_fingerprint()
            marker = "* " if fp != last_fp else "  "
            print(f"  {marker}{case.case_id}  library={fp[:12]}")
            last_fp = fp
        n_groups = len({c.job.library_fingerprint() for c in cases})
        print(f"{n_groups} distinct library build(s) "
              "(* marks each group; order is cache-affine)")
        return 0

    # suite submit
    from .serve.service import submit_to_spool

    try:
        for case in cases:
            submit_to_spool(args.spool, case.job)
    except JobError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(f"submitted {len(cases)} cases of suite {suite.suite_id} "
          f"-> {args.spool}")
    return 0


# -- fleet --------------------------------------------------------------------


def _fleet_projection(device_names: list[str], model: str,
                      n_particles: int) -> dict:
    """Modelled fleet load-balance document for ``fleet report`` and the
    ``run --devices`` trailer."""
    from .execution.symmetric import FleetNode
    from .machine.presets import fleet_from_names

    fleet = FleetNode(fleet_from_names(device_names), model)
    rates = fleet.device_rates(n_particles)
    equal = fleet.calculation_rate(n_particles, "equal")
    balanced = fleet.calculation_rate(n_particles, "rate")
    counts = fleet.fleet_counts(n_particles, "rate")
    return {
        "devices": [
            {
                "name": d.name,
                "class": d.class_key,
                "rate": rate,
                "balanced_share": count,
            }
            for d, rate, count in zip(fleet.devices, rates, counts)
        ],
        "particles": n_particles,
        "model": model,
        "equal_rate": equal,
        "balanced_rate": balanced,
        "ideal_rate": fleet.ideal_rate(n_particles),
        "speedup": balanced / equal if equal > 0 else None,
    }


def _print_fleet_projection(doc: dict) -> None:
    print(f"\nfleet projection ({doc['model']}, "
          f"{doc['particles']:,} particles/batch):")
    for dev in doc["devices"]:
        print(f"  {dev['name']:24s} [{dev['class']:8s}] "
              f"{dev['rate']:12,.0f} n/s  "
              f"balanced share {dev['balanced_share']:,}")
    print(f"  equal split     = {doc['equal_rate']:12,.0f} n/s")
    print(f"  rate balanced   = {doc['balanced_rate']:12,.0f} n/s "
          f"({doc['speedup']:.2f}x equal)")
    print(f"  ideal (no sync) = {doc['ideal_rate']:12,.0f} n/s")


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .machine.presets import DEVICE_PRESETS, available_devices

    if args.fleet_command == "devices":
        seen = {}
        for name in available_devices():
            dev = DEVICE_PRESETS[name]
            seen.setdefault(dev.name, []).append(name)
        for full_name, names in sorted(seen.items()):
            dev = DEVICE_PRESETS[full_name]
            aliases = [n for n in names if n != full_name]
            alias = f" (alias: {', '.join(aliases)})" if aliases else ""
            print(f"{full_name:24s} [{dev.class_key:8s}] "
                  f"{dev.cores:4d} cores x {dev.threads_per_core:3d} thr, "
                  f"{dev.dram_bw_gbps:7.1f} GB/s, "
                  f"{dev.mem_gb:6.1f} GB{alias}")
        return 0
    doc = _fleet_projection(args.devices, args.model, args.particles)
    if getattr(args, "json_output", False):
        print(json.dumps(doc, indent=2))
    else:
        _print_fleet_projection(doc)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "scenario": _cmd_scenario, "suite": _cmd_suite,
        "gateway": _cmd_gateway, "fleet": _cmd_fleet, "chaos": _cmd_chaos,
    }
    # run / checkpoint / resume share one driver.
    return commands.get(args.command, _cmd_run)(args)


if __name__ == "__main__":
    sys.exit(main())
