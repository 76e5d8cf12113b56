"""The harness checks itself: declarations, the 0.3 s refusal, wrapper
hygiene, traced == untraced physics, and compare.py's verdicts."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import metrics
from metrics import IntervalTooShort, Recorder
from tracing import Tracer, trace_transport
from workloads import make_workload

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]


# -- Declarations ----------------------------------------------------------------


def test_every_metric_is_declared_with_name_unit_direction_and_bound():
    names = [m.name for m in (*metrics.END_TO_END, *metrics.PER_LAYER)]
    assert len(names) == len(set(names))
    for m in (*metrics.END_TO_END, *metrics.PER_LAYER):
        assert metrics.NAME_RE.match(m.name), m.name
        assert metrics.UNIT_RE.match(m.unit), (m.name, m.unit)
        assert m.better in ("lower", "higher")
    for m in metrics.END_TO_END:
        assert 0.0 <= m.bound <= metrics.MAX_BOUND == 0.10, m.name
        assert set(m.workloads) <= set(metrics.ALL)
    for m in metrics.PER_LAYER:
        assert m.moves and m.layer
    # The driver takes every one of its metrics from every workload.
    assert all(metrics.E2E_BY_NAME[n].workloads == metrics.ALL
               for n in metrics.DRIVER_END_TO_END)
    assert all(0 < b <= 0.25 for b in metrics.DRIVER_END_TO_END.values())


def test_manifest_matches_the_declarations():
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in manifest["workloads"]] == list(metrics.ALL)
    for w in manifest["workloads"]:
        assert w["why"] == metrics.WORKLOADS[w["name"]]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert manifest["end_to_end"] == [
        {"name": n, "unit": metrics.E2E_BY_NAME[n].unit,
         "better": metrics.E2E_BY_NAME[n].better, "bound": bound}
        for n, bound in metrics.DRIVER_END_TO_END.items()
    ]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    assert 1 <= len(manifest["per_layer"]) <= 128


# -- The 0.3 s refusal -------------------------------------------------------------


def test_end_to_end_metric_under_the_interval_floor_is_refused():
    rec = Recorder("event-large-bank")
    with pytest.raises(IntervalTooShort):
        rec.e2e("particles_per_s", 1.0, interval_s=0.29)
    assert "particles_per_s" not in rec.end_to_end
    rec.e2e("particles_per_s", 1.0, interval_s=0.31)
    assert rec.intervals["particles_per_s"] == 0.31
    # --quick sizes are allowed their short intervals.
    Recorder("event-large-bank", quick=True).e2e(
        "particles_per_s", 1.0, interval_s=0.01
    )


def test_undeclared_or_unlisted_metrics_are_refused():
    rec = Recorder("event-large-bank")
    with pytest.raises(KeyError):
        rec.e2e("latency_ms", 1.0)
    with pytest.raises(KeyError):
        rec.e2e("recover_s", 1.0, interval_s=1.0)  # gateway-synth only
    with pytest.raises(KeyError):
        rec.e2e("jobs_per_s", 1.0, interval_s=1.0)  # a core run is no job
    with pytest.raises(KeyError):
        # Fabricated jobs transport nothing.
        Recorder("gateway-synth").e2e("particles_per_s", 1.0, interval_s=1.0)
    with pytest.raises(KeyError):
        rec.layer("stages.teleport.self_s", 1.0)


def test_a_workload_emits_exactly_the_metrics_listed_for_it():
    workload = make_workload("event-large-bank", seed=3, quick=True)
    workload.setup()
    rec = Recorder("event-large-bank", quick=True)
    workload.measure(rec, None)
    # setup_s, peak_rss_mb and failed_frac are added by run.py / worker.py.
    assert set(rec.end_to_end) == {"particles_per_s"}
    listed = {m.name for m in metrics.END_TO_END
              if "event-large-bank" in m.workloads}
    assert listed == {"setup_s", "particles_per_s", "peak_rss_mb",
                      "failed_frac"}


def test_seed_1_without_a_pinned_reference_fails_the_check(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "load_reference", lambda: {})
    workload = make_workload("history-scalar", seed=1, quick=True)
    workload.setup()
    workload.measure(Recorder("history-scalar", quick=True), None)
    assert workload.failed == workload.attempted
    assert [c["name"] for c in workload.checks if not c["ok"]] == [
        "seed-1 reference: exact counters, k_effective rel 1e-12"
    ]


# -- Wrapper hygiene -----------------------------------------------------------------


def test_trace_wrappers_restore_originals_on_exit_and_on_exception():
    from repro.transport import stages

    kernels = (stages.XS_LOOKUP, stages.FLIGHT, stages.CROSSING,
               stages.COLLISION, stages.FISSION, stages.SCATTER)
    with Tracer() as tracer:
        trace_transport(tracer)
        assert all("banked" in vars(k) and "scalar" in vars(k) for k in kernels)
    assert all(not vars(k) for k in kernels)
    assert stages.XS_LOOKUP.banked.__func__ is stages.XSLookupKernel.banked

    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            trace_transport(tracer)
            raise RuntimeError("boom")
    assert all(not vars(k) for k in kernels)


def test_restore_puts_back_a_previous_instance_attribute():
    class Calculator:
        def scalar(self):
            return "class"

    calc = Calculator()
    calc.scalar = lambda: "instance"
    mine = calc.scalar
    with Tracer() as tracer:
        wrapper = tracer.wrap(calc, "scalar", "physics.xs_scalar")
        assert calc.scalar is wrapper
        assert calc.scalar() == "instance"
    assert calc.scalar is mine


def test_self_time_is_span_minus_child_spans():
    class Layers:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return sum(range(20000))

    obj = Layers()
    with Tracer() as tracer:
        tracer.wrap(obj, "outer", "outer")
        tracer.wrap(obj, "inner", "inner")
        obj.outer()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 2 and totals["outer"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"]
    )
    assert totals["outer"]["self_s"] < totals["inner"]["total_s"]


# -- Traced and untraced runs agree ---------------------------------------------------


@pytest.mark.parametrize("name", ["event-large-bank", "history-scalar"])
def test_traced_and_untraced_runs_give_identical_counters_and_k(name):
    observed = []
    for traced in (False, True):
        workload = make_workload(name, seed=3, quick=True)
        workload.setup()
        rec = Recorder(name, quick=True)
        if traced:
            with Tracer() as tracer:
                workload.measure(rec, tracer)
            assert rec.per_layer["physics.xs_lookups"] > 0
            # The accounting identity: the layers tile the run.
            wall = (rec.per_layer["backend.generation_s"]
                    + rec.per_layer["simulation.overhead_s"])
            parts = (
                sum(rec.per_layer[f"stages.{k}.self_s"] for k in metrics.STAGES)
                + rec.per_layer["physics.xs_banked_s"]
                + rec.per_layer["physics.xs_scalar_s"]
                + rec.per_layer["backend.schedule_self_s"]
                + rec.per_layer["simulation.overhead_s"]
            )
            assert parts == pytest.approx(wall, rel=1e-9)
        else:
            workload.measure(rec, None)
            assert not rec.per_layer
        assert workload.failed == 0, workload.checks
        observed.append(workload.observed)
    assert observed[0] == observed[1]


# -- The command line, as the driver calls it ------------------------------------------


def run_cli(*argv, returncode=0):
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), *argv],
        capture_output=True, text=True, cwd=REPO, timeout=120,
    )
    assert proc.returncode == returncode, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]) if not returncode else None


def test_driver_line_carries_exactly_the_declared_metrics():
    line = run_cli("--workload", "gateway-synth", "--seed", "5",
                   "--seconds", "10", "--trace", "0", "--quick")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == list(metrics.DRIVER_END_TO_END)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == metrics.E2E_BY_NAME[name].unit
        assert entry["value"] > 0

    traced = run_cli("--workload", "gateway-synth", "--seed", "5",
                     "--seconds", "10", "--trace", "1", "--quick")
    assert list(traced["metrics"]) == [m.name for m in metrics.PER_LAYER]
    assert traced["metrics"]["gateway.submit_calls"]["value"] == 256
    assert traced["metrics"]["traced.jobs_per_s"]["value"] > 0
    # A layer this workload never enters reads 0.
    assert traced["metrics"]["physics.xs_banked_s"]["value"] == 0
    assert traced["metrics"]["traced.particles_per_s"]["value"] == 0


def test_seconds_other_than_the_recorded_size_are_refused():
    run_cli("--workload", "gateway-synth", "--seconds", "5", "--quick",
            returncode=2)


# -- compare.py ------------------------------------------------------------------------


def result_set(tmp_path, label, scale=1.0, quick=False, disturbed=()):
    directory = tmp_path / label
    directory.mkdir()
    for seed, wobble in enumerate((0.99, 1.0, 1.01, 1.0, 0.995), start=1):
        doc = {"seed": seed, "trace": 0, "quick": quick, "workloads": {
            "event-large-bank": {"disturbed": seed in disturbed, "end_to_end": {
                "particles_per_s": 9000.0 * wobble * scale
                * (0.5 if seed in disturbed else 1.0),
                "setup_s": 1.2 / wobble,
                "peak_rss_mb": 138.0,
                "failed_frac": 0.0,
            }},
        }}
        (directory / f"seed{seed}.json").write_text(json.dumps(doc))
    return str(directory)


def test_compare_passes_an_identical_pair(tmp_path, capsys):
    a = result_set(tmp_path, "a")
    assert compare.main([a, a]) == 0
    rows = compare.compare(compare.load_set(a), compare.load_set(a))
    assert {r["verdict"] for r in rows} == {"within"}
    assert "4 within" in capsys.readouterr().out


def test_compare_flags_a_twenty_percent_regression(tmp_path):
    a = result_set(tmp_path, "a")
    b = result_set(tmp_path, "b", scale=0.8)
    assert compare.main([a, b]) == 1
    rows = {r["metric"]: r for r in
            compare.compare(compare.load_set(a), compare.load_set(b))}
    assert rows["particles_per_s"]["verdict"] == "worse"
    assert rows["particles_per_s"]["worsening"] == pytest.approx(0.2)
    assert rows["setup_s"]["verdict"] == "within"
    # The other direction is an improvement, not a regression.
    assert compare.main([b, a]) == 0
    back = {r["metric"]: r for r in
            compare.compare(compare.load_set(b), compare.load_set(a))}
    assert back["particles_per_s"]["verdict"] == "better"


def test_compare_flags_a_twenty_percent_memory_regression():
    decl = metrics.E2E_BY_NAME["peak_rss_mb"]
    row = compare.verdict([138.0, 138.2, 138.1], [165.6, 165.9, 165.7], decl)
    assert row["verdict"] == "worse"
    assert row["worsening"] == pytest.approx(0.2, abs=0.01)


def test_compare_counts_disturbed_runs_and_gives_the_spread_without_them(tmp_path):
    a = result_set(tmp_path, "a")
    # Two disturbed runs at half speed drag b's quartiles apart.
    b = result_set(tmp_path, "b", disturbed=(2, 4))
    rows = {r["metric"]: r for r in
            compare.compare(compare.load_set(a), compare.load_set(b))}
    row = rows["particles_per_s"]
    assert (row["n_a"], row["n_b"], row["disturbed"]) == (5, 5, 2)
    assert row["spread"] > 0.4 and row["verdict"] == "unresolved"
    assert row["calm_spread"] < 0.03


def test_compare_refuses_sets_of_different_sizes(tmp_path):
    full = compare.load_set(result_set(tmp_path, "a"))
    quick = compare.load_set(result_set(tmp_path, "q", quick=True))
    with pytest.raises(SystemExit):
        compare.compare(full, quick)


def test_compare_reports_noise_wider_than_the_bound_as_unresolved():
    decl = metrics.E2E_BY_NAME["particles_per_s"]
    noisy = [6000.0, 9000.0, 12000.0, 10500.0, 7500.0]
    assert compare.verdict(noisy, noisy, decl)["verdict"] == "unresolved"
    slower = [v * 0.6 for v in noisy]  # overlapping runs: still unresolved
    assert compare.verdict(noisy, slower, decl)["verdict"] == "unresolved"
    assert compare.verdict(noisy, [v * 0.3 for v in noisy], decl)["verdict"] == "worse"
    assert compare.verdict(slower, [v * 3 for v in noisy], decl)["verdict"] == "better"
    any_failure = compare.verdict([0.0], [0.01], metrics.E2E_BY_NAME["failed_frac"])
    assert any_failure["verdict"] == "worse"
