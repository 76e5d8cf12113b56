"""One workload in one fresh process; prints a single JSON document.

``run.py`` starts this file once per measurement and once more per extra
set-up sample (``--setup-only``).  The clock starts on the first line,
before ``import repro``, because a user pays the imports too.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t_import = perf_counter()
    from metrics import Recorder
    from tracing import Tracer
    from workloads import OUT_DIR, make_workload

    workload = make_workload(args.workload, args.seed, args.quick)
    import_s = perf_counter() - t_import
    try:
        workload.setup()
        setup_s = perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        rec = Recorder(args.workload, quick=args.quick)
        if args.trace:
            with Tracer() as tracer:
                workload.measure(rec, tracer)
            rec.layer("import_s", import_s)
            OUT_DIR.mkdir(exist_ok=True)
            (OUT_DIR / f"trace-{args.workload}.json").write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "quick": args.quick,
                "phases": {"import_s": import_s, **workload.phases},
                "cuts": tracer.cuts_document(),
                **workload.trace_extra,
            }, indent=1))
        else:
            workload.measure(rec, None)
    finally:
        workload.teardown()

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    rec.e2e("peak_rss_mb", usage / 1024.0)
    rec.e2e("failed_frac", workload.failed / workload.attempted)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "trace": args.trace,
        "setup_s": setup_s,
        "end_to_end": rec.end_to_end,
        "rounds": rec.rounds,
        "intervals": rec.intervals,
        "per_layer": rec.per_layer,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "checks": workload.checks,
        "observed": workload.observed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
