"""The repo benchmark: five workloads, stage kernel to gateway.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload W] [--seed S]
        [--trace] [--quick] [--out F]

Each workload runs in a fresh subprocess (``worker.py``).  Tracing off
gives the end-to-end metrics; ``--trace`` is the separate traced run that
gives the per-layer ones.  Every metric is printed by name with its unit,
outputs are checked against the oracle, and after each workload one JSON
object — ``correct`` / ``attempted`` / ``failed`` / ``metrics``, the form
``BENCHMARK.json``'s driver reads — is printed on its own line.

This process stays small on purpose (no numpy, no ``repro``): a child's
``ru_maxrss`` starts from its parent's resident size, so whatever this
process held would be the floor of every ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import ambient  # noqa: E402
import metrics  # noqa: E402

#: The timed regions are sized (as constants, in workloads.py) to this many
#: seconds on the reference sandbox; it is BENCHMARK.json's `run_seconds`
#: and the only value `--seconds` accepts.
RUN_SECONDS = 10
#: Set-up is sampled in fresh processes (the measuring process is the first
#: sample): always twice, then until this much set-up time or this many
#: samples were seen.
SETUP_MIN_SAMPLES = 2
SETUP_BUDGET_S = 4.0
SETUP_MAX_SAMPLES = 4
#: The driver allows one run 180 s.
WORKER_TIMEOUT_S = 170.0


def run_script(script: str, argv: list[str]) -> dict:
    """Run one of the benchmark's scripts in its own process group; return
    its last stdout line parsed as JSON.  The whole group is gone when this
    returns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *argv],
        stdout=subprocess.PIPE, text=True, env=env, cwd=REPO,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise SystemExit(
            f"{script} {' '.join(argv)} exited with code {proc.returncode}"
        )
    return json.loads(out.strip().splitlines()[-1])


def calibrate() -> float:
    return run_script("ambient.py", [])["calibration_s"]


def run_workload(name: str, args) -> dict:
    """One workload: ambient reading, measurement, set-up samples, ambient
    reading; returns the workload's result document."""
    argv = ["--workload", name, "--seed", str(args.seed),
            "--trace", str(args.trace)]
    if args.quick:
        argv.append("--quick")
    t0 = perf_counter()
    before = calibrate()
    doc = run_script("worker.py", argv)
    samples = [doc.pop("setup_s")]
    if not args.trace:
        while not args.quick and (
            len(samples) < SETUP_MIN_SAMPLES
            or (len(samples) < SETUP_MAX_SAMPLES
                and sum(samples) < SETUP_BUDGET_S)
        ):
            samples.append(
                run_script("worker.py", [*argv, "--setup-only"])["setup_s"]
            )
        doc["rounds"]["setup_s"] = metrics.summarize(samples)
        # The fastest process, not the median one: whatever else runs on
        # the machine can only add to a set-up, and on the reference
        # sandbox the fastest sample repeats more closely run to run than
        # the median one (README, "Steadiness").
        doc["end_to_end"]["setup_s"] = min(samples)
        doc["intervals"]["setup_s"] = min(samples)
        if min(samples) < metrics.MIN_INTERVAL_S and not args.quick:
            raise metrics.IntervalTooShort(
                f"{name}/setup_s: a set-up sample took {min(samples):.4f} s"
            )
    after = calibrate()
    doc["ambient"] = {
        "calibration_s": min(before, after),
        "drift_frac": ambient.drift(before, after),
    }
    doc["disturbed"] = doc["ambient"]["drift_frac"] > ambient.DISTURBED_FRAC
    if args.trace:
        doc["per_layer"]["ambient.calibration_s"] = doc["ambient"]["calibration_s"]
        doc["per_layer"]["ambient.drift_frac"] = doc["ambient"]["drift_frac"]
    doc["harness_wall_s"] = perf_counter() - t0
    return doc


def driver_line(doc: dict) -> dict:
    """The object the driver reads: every declared metric of the run's
    kind, a per-layer metric the workload does not have reading 0."""
    if doc["trace"]:
        out = {
            m.name: {"value": doc["per_layer"].get(m.name, 0.0), "unit": m.unit}
            for m in metrics.PER_LAYER
        }
    else:
        out = {
            name: {"value": doc["end_to_end"][name],
                   "unit": metrics.E2E_BY_NAME[name].unit}
            for name in metrics.DRIVER_END_TO_END
        }
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": out,
    }


def print_report(name: str, doc: dict) -> None:
    kind = "traced, per-layer" if doc["trace"] else "end-to-end"
    print(f"== {name} (seed {doc['seed']}, {kind}) "
          f"[{doc['harness_wall_s']:.1f} s] ==")
    for metric, value in doc["end_to_end"].items():
        if doc["trace"] and metric not in ("failed_frac", "peak_rss_mb"):
            continue  # timed through the wrappers: not an end-to-end number
        decl = metrics.E2E_BY_NAME[metric]
        spread = ""
        if metric in doc["rounds"]:
            r = doc["rounds"][metric]
            spread = f"  [n={r['n']} q1={r['q1']:.6g} q3={r['q3']:.6g}]"
        print(f"  {metric:<34} {value:>14.6g} {decl.unit:<9}"
              f"({decl.better} is better, bound {decl.bound:.0%}){spread}")
    for metric, value in doc["per_layer"].items():
        unit = metrics.LAYER_BY_NAME[metric].unit
        print(f"  {metric:<34} {value:>14.6g} {unit}")
    print(f"  ambient calibration {doc['ambient']['calibration_s'] * 1e3:.1f} ms,"
          f" drift {doc['ambient']['drift_frac']:.1%}"
          + ("  ** DISTURBED: a neighbour moved the machine under this run **"
             if doc["disturbed"] else ""))
    for check in doc["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED: {check['name']} {check['detail']}")
    print(f"  oracle: {doc['attempted'] - doc['failed']}/{doc['attempted']} "
          f"operations correct, {len(doc['checks'])} checks")


def write_reference(results: dict) -> None:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for name, doc in results.items():
        if doc["observed"]:
            observed = dict(doc["observed"])
            reference.setdefault(name, {})[observed.pop("size")] = observed
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=metrics.ALL,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"only {RUN_SECONDS} is accepted (the driver "
                        "passes it): the sizes are constants, so that every "
                        "recorded run is comparable")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="the traced, per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help="seconds-sized smoke run (self-tests)")
    parser.add_argument("--out", help="write every result document here")
    parser.add_argument("--write-reference", action="store_true",
                        help="pin this run's counters and k in reference.json")
    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        print(f"{REPO}/src/repro not found: nothing to benchmark",
              file=sys.stderr)
        return 2
    if args.write_reference and args.seed != 1:
        parser.error("the reference is pinned for seed 1")
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS}: the sizes are fixed")

    results = {}
    for name in ([args.workload] if args.workload else metrics.ALL):
        doc = results[name] = run_workload(name, args)
        print_report(name, doc)
        print(json.dumps(driver_line(doc)), flush=True)
    if args.write_reference:
        write_reference(results)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "quick": args.quick, "trace": args.trace,
            "workloads": results,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
