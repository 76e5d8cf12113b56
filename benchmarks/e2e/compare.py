"""Compare two sets of benchmark runs against the benchmark's own bounds.

    python benchmarks/e2e/compare.py A B

``A`` is the reference, ``B`` the candidate.  Each is a ``run.py --out``
file or a directory of them (one file per seed — a *set*).  For every
(workload, end-to-end metric) the verdict is

``within``      B's median is no worse and no better than A's by more than
                the metric's bound;
``worse``       B's median is worse than A's by more than the bound;
``better``      B's median is better than A's by more than the bound;
``unresolved``  the run-to-run spread (the wider interquartile range, as a
                share of A's median) exceeds the bound, so "unchanged"
                cannot be told from "changed" (choosing-metrics §6.5) —
                unless every run of B reads better than every run of A
                (``better``), or every run reads worse and the medians
                differ by more than the bound (``worse``).

Runs the ambient guard marked ``disturbed`` are counted per pairing and the
spread is printed a second time without them; the verdict uses every run,
because on the reference sandbox the guard's before/after drift did not
pick out the slow runs (README, "Steadiness").  Sets of different sizes
(``--quick`` against full) are refused.

Exit status 1 if any verdict is ``worse``, else 0.  Two sets of the same
code must exit 0: that is the A/A acceptance check.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402

__all__ = ["load_set", "verdict", "compare", "main"]


def load_set(path) -> dict:
    """``{"quick": bool, workload: {metric: [(value, disturbed) per run]}}``
    from a ``run.py --out`` document, a list of them, or a directory of
    either (traced runs carry no end-to-end timings and are skipped)."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = []
    for file in files:
        loaded = json.loads(file.read_text())
        docs += loaded if isinstance(loaded, list) else [loaded]
    docs = [doc for doc in docs if not doc["trace"]]
    if not docs:
        raise SystemExit(f"{path}: no end-to-end result documents")
    if len({doc["quick"] for doc in docs}) > 1:
        raise SystemExit(f"{path}: --quick and full-size runs in one set")
    out: dict = {"quick": docs[0]["quick"]}
    for doc in docs:
        for workload, result in doc["workloads"].items():
            for metric, value in result["end_to_end"].items():
                out.setdefault(workload, {}).setdefault(metric, []).append(
                    (value, result["disturbed"])
                )
    return out


def relative_spread(a: list, b: list, median_a: float) -> float:
    """The wider interquartile range of the two samples, as a share of A's
    median."""
    def iqr(values):
        if len(values) < 2:
            return 0.0
        q1, _, q3 = metrics.quartiles(values)
        return q3 - q1

    return max(iqr(a), iqr(b)) / abs(median_a) if median_a else 0.0


def verdict(a: list, b: list, decl: metrics.EndToEnd) -> dict:
    """Judge one (workload, metric) pairing; ``worsening`` is the share of
    A's median by which B's median is worse (negative = better)."""
    sign = 1.0 if decl.better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    if med_a == 0:
        # Only failed_frac may be 0: any increase is a regression.
        worsening = float("inf") if sign * (med_b - med_a) > 0 else 0.0
    else:
        worsening = sign * (med_b - med_a) / abs(med_a)

    spread = relative_spread(a, b, med_a)
    if spread > decl.bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            word = "better"
        elif worsening > decl.bound and all(
            sign * (y - x) > 0 for x in a for y in b
        ):
            word = "worse"
        else:
            word = "unresolved"
    elif worsening > decl.bound:
        word = "worse"
    elif worsening < -decl.bound:
        word = "better"
    else:
        word = "within"
    return {"verdict": word, "median_a": med_a, "median_b": med_b,
            "worsening": worsening, "spread": spread,
            "n_a": len(a), "n_b": len(b)}


def compare(set_a: dict, set_b: dict) -> list:
    if set_a["quick"] != set_b["quick"]:
        raise SystemExit("one set is --quick and the other full-size: "
                         "their numbers are not comparable")
    rows = []
    for workload in metrics.ALL:
        for decl in metrics.END_TO_END:
            a = set_a.get(workload, {}).get(decl.name)
            b = set_b.get(workload, {}).get(decl.name)
            if not (a and b):
                continue
            row = verdict([v for v, _ in a], [v for v, _ in b], decl)
            calm_a = [v for v, disturbed in a if not disturbed]
            calm_b = [v for v, disturbed in b if not disturbed]
            rows.append({
                "workload": workload, "metric": decl.name,
                "bound": decl.bound, **row,
                "disturbed": len(a) + len(b) - len(calm_a) - len(calm_b),
                "calm_spread": relative_spread(calm_a, calm_b, row["median_a"]),
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load_set(argv[0]), load_set(argv[1]))
    if not rows:
        print("no (workload, metric) pairing present in both sets",
              file=sys.stderr)
        return 2
    print(f"{'workload':<20} {'metric':<16} {'median A':>12} {'median B':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6} {'n':>6} "
          f"{'disturbed':>9} {'calm spread':>11}  verdict")
    for r in rows:
        print(f"{r['workload']:<20} {r['metric']:<16} {r['median_a']:>12.6g} "
              f"{r['median_b']:>12.6g} {r['worsening']:>+9.2%} "
              f"{r['spread']:>7.2%} {r['bound']:>6.0%} "
              f"{r['n_a']:>3}/{r['n_b']:<2} {r['disturbed']:>9} "
              f"{r['calm_spread']:>11.2%}  {r['verdict']}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    print(f"{len(rows)} pairings: "
          + ", ".join(f"{sum(r['verdict'] == v for r in rows)} {v}"
                      for v in ("within", "better", "unresolved", "worse")))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
